"""Command-line entry point.

Subcommands: pmf, distance, optimize, test, sweep, verify.  Exit codes are
0 (success), 1 (verification failure), 2 (usage or input error); identical
invocations produce byte-identical stdout and output files.
"""

import argparse
import functools
import sys
from importlib import resources

import numpy as np

from .bounds import extremal_pair, lemma_h2_bound, lemma_tv_bound
from .distributions import hellinger_sq, sandwich_holds, tv
from .errors import BudgetExceeded, IndistinguishableError
from .harness import (
    ExperimentSpec,
    fmt17,
    load_model_spec,
    run_bound_suite,
    run_invariance_suite,
    run_sweep,
    run_taylor_check,
    write_bounds_csv,
    write_invariance_csv,
    write_taylor_csv,
)
from .hypotest import estimate_success
from .optimize import OptimizerConfig
from .softmax import softmax_pmf

_DEMOS = ("demo-softmax", "demo-leverage")


def _resolve_spec_path(name: str) -> str:
    """Map bundled demo names to their packaged files; pass paths through."""
    if name in _DEMOS:
        return str(resources.files("softlev") / "specs" / f"{name.replace('demo-', 'demo_')}.json")
    return name


def _vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}") from exc


def _grid(text: str):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated grid: {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_pmf(args) -> int:
    model = load_model_spec(_resolve_spec_path(args.spec))
    query = model.constraint.check(args.query)
    for prob in model.pmf(0, query).probs:
        print(fmt17(prob))
    return 0


def _cmd_distance(args) -> int:
    if args.lemma_a1:
        if args.eps is None or args.n is None or args.m is None:
            print("error: --lemma-a1 needs --eps, --n, and --m", file=sys.stderr)
            return 2
        a, b = extremal_pair(args.n, args.m, args.eps)
        P = softmax_pmf(a[:, None], np.ones(1))
        Q = softmax_pmf(b[:, None], np.ones(1))
        t_val, h2_val = tv(P, Q), hellinger_sq(P, Q)
        print(f"tv={fmt17(t_val)}")
        print(f"h2={fmt17(h2_val)}")
        print(f"tv_bound={fmt17(lemma_tv_bound(args.eps))}")
        print(f"h2_bound={fmt17(lemma_h2_bound(args.eps))}")
        return 0
    if args.spec is None:
        print("error: distance needs a model spec (or --lemma-a1)", file=sys.stderr)
        return 2
    model = load_model_spec(_resolve_spec_path(args.spec))
    if args.query is None:
        print("error: distance needs --query", file=sys.stderr)
        return 2
    query = model.constraint.check(args.query)
    P, Q = model.pmf(0, query), model.pmf(1, query)
    t_val, h2_val = tv(P, Q), hellinger_sq(P, Q)
    if not sandwich_holds(h2_val, t_val):
        print(
            f"error: internal distance sandwich violated (h2={h2_val!r}, tv={t_val!r})",
            file=sys.stderr,
        )
        return 1
    print(f"tv={fmt17(t_val)}")
    print(f"h2={fmt17(h2_val)}")
    return 0


def _cmd_optimize(args) -> int:
    model = load_model_spec(_resolve_spec_path(args.spec))
    cfg = OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed if args.seed is not None else model.seed,
    )
    with model.locating():
        res = model.max_hellinger(cfg) if args.objective == "hellinger" else model.max_variance(cfg)
    cells = [fmt17(res.value), str(res.iterations_used), str(cfg.restarts), str(int(res.converged))]
    cells += [fmt17(v) for v in res.argmax]
    print(",".join(cells))
    return 0


def _cmd_test(args) -> int:
    if args.require is not None and not 0.0 <= args.require <= 1.0:
        print(f"error: --require must be a success rate in [0, 1], got {args.require!r}", file=sys.stderr)
        return 2
    model = load_model_spec(_resolve_spec_path(args.spec))
    seed = args.seed if args.seed is not None else model.seed
    with model.locating():  # the ascent to the Hellinger-optimal query, when --query is absent
        success = estimate_success(model, args.m, args.trials, seed, query=args.query)
    print(f"success={fmt17(success)}")
    if args.require is not None and success < args.require:
        return 1
    return 0


def _cmd_sweep(args) -> int:
    model = load_model_spec(_resolve_spec_path(args.spec))
    spec = ExperimentSpec(
        model=model,
        eps_grid=args.grid,
        trials=args.trials,
        opt=OptimizerConfig(restarts=args.restarts),
        seed=args.seed if args.seed is not None else model.seed,
        threads=args.threads,
        out_path=args.out,
    )
    result = run_sweep(spec)
    print(f"wrote {args.out}")
    print(f"rows={len(result.rows)}")
    print(f"slope={fmt17(result.slope)}")
    print(f"nu={fmt17(result.nu)}")
    return 0


def _cmd_verify(args) -> int:
    suites = ("bounds", "invariances", "taylor") if args.suite == "all" else (args.suite,)
    failed = False
    for suite in suites:
        if suite == "bounds":
            result = run_bound_suite(args.instances, args.seed)
            if args.out:
                write_bounds_csv(_suite_out(args, suite), result)
            print(f"bounds: rows={len(result.rows)} strict_violations={result.strict_violations}")
            for fam in sorted(result.max_ratios):
                print(f"bounds: max_ratio_{fam}={fmt17(result.max_ratios[fam])}")
            print(f"bounds: all_tight={int(result.all_tight)} monotone_ok={int(result.monotone_ok)}")
            if result.strict_violations > 0:
                failed = True
        elif suite == "invariances":
            report = run_invariance_suite(args.instances, args.seed)
            if args.out:
                write_invariance_csv(_suite_out(args, suite), report)
            for prop in report.properties:
                print(
                    f"invariances: {prop.name} max_deviation={fmt17(prop.max_deviation)} "
                    f"violations={prop.violations} ok={int(prop.ok)}"
                )
            if not report.all_ok:
                failed = True
        else:
            names = [args.spec] if args.spec else list(_DEMOS)
            for name in names:
                model = load_model_spec(_resolve_spec_path(name))
                report = run_taylor_check(model, args.seed)
                if args.out:
                    write_taylor_csv(_suite_out(args, f"taylor-{model.family}"), report)
                flags = [f"{name}={int(val)}" for name, val in report.figures() if isinstance(val, bool)]
                print(f"taylor[{model.family}]: " + " ".join(flags))
                if not report.ok:
                    failed = True
    print(f"verdict: {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


def _suite_out(args, suite: str) -> str:
    if args.suite == "all":
        return f"{args.out}-{suite}.csv"
    return args.out


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache  # built on the first call, not at import; main reuses it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softlev",
        description="Softmax and leverage-score query models: pmfs, distances, "
        "query optimization, hypothesis-testing experiments, verification suites.",
        epilog="Spec may be a JSON file path or a bundled name: demo-softmax, demo-leverage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="print the model's output distribution at a query")
    p.add_argument("spec")
    p.add_argument("--query", type=_vector, required=True, help="comma-separated query vector")
    p.set_defaults(handler=_cmd_pmf)

    p = sub.add_parser("distance", help="TV and squared Hellinger between the pair at a query")
    p.add_argument("spec", nargs="?")
    p.add_argument("--query", type=_vector)
    p.add_argument("--lemma-a1", action="store_true", help="evaluate the extremal logit-gap pair instead of a spec")
    p.add_argument("--eps", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("optimize", help="maximize Hellinger distance or the variance functional")
    p.add_argument("spec")
    p.add_argument("--objective", choices=("hellinger", "variance"), default="hellinger")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=None, help="default: the spec file's seed")
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("test", help="Monte-Carlo worst-case success of the likelihood-ratio test")
    p.add_argument("spec")
    p.add_argument("--m", type=int, required=True, help="samples per test")
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--require", type=float, default=None, help="exit 1 when success falls below this")
    p.add_argument("--query", type=_vector, default=None, help="fixed query (default: Hellinger-optimal)")
    p.set_defaults(handler=_cmd_test)

    p = sub.add_parser("sweep", help="m*(eps) sweep with log-log fit, written as CSV")
    p.add_argument("spec")
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=_grid, default=(0.2, 0.1, 0.05), help="strictly decreasing eps values")
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="threads for the grid points' m* searches (their ascents run first, as one lockstep "
        "run); output is identical for any value.  2 threads cut the wall time of long searches "
        "(400 trials on a 256x16 or 64x8 spec: 6-26%%) at more CPU time, and slow short ones "
        "(demo-leverage at 100 trials: about 20%%)",
    )
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("verify", help="bound-falsification / invariance / expansion suites")
    p.add_argument("spec", nargs="?", help="model spec for the taylor suite (default: bundled demos)")
    p.add_argument("--suite", choices=("bounds", "invariances", "taylor", "all"), default="all")
    p.add_argument("--instances", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV path (suffixed per suite when --suite all)")
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except IndistinguishableError as exc:
        print(f"error: indistinguishable models: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
