"""End-to-end benchmark of the softlev CLI, with a traced run for per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload optimize --seed 0 --seconds 36 --trace 0

One process calls ``softlev.cli.main(argv)`` for each of the workload's CLI
calls (see ``workloads.py``), repeating the whole list in a closed loop until
``--seconds`` is used up, and checks every output.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced repetitions and reports the per-layer metrics (see ``spans.py``).
The last line of stdout is one JSON object; the same object, with the
environment record, is saved under ``.perfbench_out/``.  The metric names
and units are those declared in ``BENCHMARK.json``; see README.md.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
MIN_REPS = 2  # the first two repetitions also check byte-identical reruns

# What every CLI invocation pays before its first result: a fresh
# interpreter imports the CLI, loads the specs and warms the kernels.
SETUP_CODE = """
import sys
from softlev import _kernels, cli
from softlev.harness import load_model_spec
for name in sys.argv[1:]:
    load_model_spec(cli._resolve_spec_path(name))
_kernels.warmup()
"""


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_softlev():
    if not (SRC / "softlev" / "cli.py").is_file():
        raise BenchError(f"no softlev sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import softlev

    if Path(softlev.__file__).resolve().parent != SRC / "softlev":
        raise BenchError(f"imported softlev from {softlev.__file__}, not from {SRC}")


def environment():
    import numpy

    from softlev import _kernels

    try:
        import numba  # noqa: F401

        numba_ok = True
    except ImportError:
        numba_ok = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.BACKEND,
        "numba_imports": numba_ok,
        "nproc": os.cpu_count(),
    }


def measure_setup(specs):
    """Median wall time of SETUP_SAMPLES fresh interpreters running SETUP_CODE,
    at reference machine speed: (seconds, raw seconds, speed factor)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    reference = speed.Speed()
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *specs],
            env=env,
            cwd=ROOT,
            capture_output=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.decode(errors='replace')}")
        reference.keep_up(sum(times))
    raw = statistics.median(times)
    return raw / reference.factor(), raw, reference.factor()


class Loop:
    """Runs the workload's calls, checks outputs and keeps the error count."""

    def __init__(self, workload, reference=None):
        from softlev import cli

        self.main = cli.main
        self.workload = workload
        self.first = None  # outputs of the first repetition, for the rerun check
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.self_check_failed = False  # a traced-run self-check, not a CLI call
        self.measured_s = 0.0  # wall time of every CLI call so far
        self.reference = reference  # a speed.Speed kept up between calls

    def rep(self):
        """One pass over the calls: (wall seconds, CPU seconds) of the CLI calls."""
        wall = cpu = 0.0
        outputs = []
        for call in self.workload.calls:
            buf = io.StringIO()
            t0, c0 = perf_counter(), process_time()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = self.main(list(call.argv))
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted as a failed operation
                rc = f"raised {exc!r}"
            wall += perf_counter() - t0
            cpu += process_time() - c0
            self.measured_s += perf_counter() - t0
            stdout = buf.getvalue()
            data = Path(call.csv_path).read_bytes() if call.csv_path and os.path.exists(call.csv_path) else None
            problems = [f"{call.label}: exit {rc}"] if rc != 0 else call.check(stdout, data)
            outputs.append((stdout, data))
            if self.first is not None and self.first[len(outputs) - 1] != (stdout, data):
                problems.append(f"{call.label}: output differs from the first run of the same argv")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += problems
            if data is not None:
                os.remove(call.csv_path)  # the next repetition must write its own
            if self.reference:
                self.reference.keep_up(self.measured_s)
        if self.first is None:
            self.first = outputs
        return wall, cpu


def keep_going(start, seconds, reps_done):
    """Another repetition runs if the minimum is not met or it fits the budget."""
    if reps_done < MIN_REPS:
        return True
    elapsed = perf_counter() - start
    return elapsed * (reps_done + 1) / reps_done <= seconds


def plain_run(workload, seconds):
    setup_s, raw_setup_s, setup_factor = measure_setup(workload.specs)
    from softlev import _kernels

    _kernels.warmup()
    reference = speed.Speed()
    loop = Loop(workload, reference)
    walls, cpus = [], []
    start = perf_counter()
    while keep_going(start, seconds, len(walls)):
        wall, cpu = loop.rep()
        walls.append(wall)
        cpus.append(cpu)
    factor = reference.factor()
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(walls) / factor,
        "cpu_s": statistics.fmean(cpus) / factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "reps": len(walls),
        "speed_factor": factor,
        "reference_chunks": reference.chunks,
        "raw_wall_s_median": statistics.median(walls),
        "raw_cpu_s_median": statistics.median(cpus),
        "wall_s_samples": walls,
        "cpu_s_samples": cpus,
        "raw_setup_s_median": raw_setup_s,
        "setup_speed_factor": setup_factor,
        "setup_samples": SETUP_SAMPLES,
    }
    return loop, values, extra


def traced_run(workload, seconds, spans_path):
    from softlev import _kernels

    _kernels.warmup()
    loop = Loop(workload)
    plain, traced, layer_runs = [], [], []
    start = perf_counter()
    tracer = None
    while keep_going(start, seconds, len(traced)):
        plain.append(loop.rep()[0])
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced.append(loop.rep()[0])
        finally:
            tracer.uninstall()
        layer_runs.append(tracer.layer_metrics())
    tracer.write(spans_path)
    counts = [{k: v for k, v in run.items() if not spans.is_timing(k)} for run in layer_runs]
    if any(c != counts[0] for c in counts[1:]):
        loop.problems.append("trace: per-layer counts differ between traced runs")
        loop.self_check_failed = True
    if workload.name == "verify":
        busy = [k for k, v in counts[0].items() if k.startswith(("optimize.", "hypotest.")) and k.endswith(".calls") and v]
        if busy:
            loop.problems.append(f"trace: verify called {busy}")
            loop.self_check_failed = True
    values = dict(counts[0])
    values.update({k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0] if spans.is_timing(k)})
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    wall = statistics.median(traced)
    shares = {}
    for name, value in values.items():
        if name.endswith(".self_s"):
            group = name.split(".")[0]
            shares[group] = shares.get(group, 0.0) + value / wall
    extra = {"reps": len(traced), "traced_wall_s": traced, "plain_wall_s": plain, "self_share_of_traced_wall": shares}
    return loop, values, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    import_softlev()
    env = environment()
    print("env: " + json.dumps(env), flush=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            loop, values, extra = traced_run(workload, seconds, OUT / f"spans-{tag}.jsonl")
        else:
            loop, values, extra = plain_run(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(values) != set(units):
        raise BenchError(f"measured metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    for problem in loop.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    notes = sorted(set(workload.notes))
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    error_rate = loop.failed / loop.attempted
    for name in units:
        print(f"{args.workload}: {name} = {values[name]:.6g} {units[name]}")
    print(f"{args.workload}: error_rate = {error_rate:.6g} ({loop.failed} of {loop.attempted} operations)")
    print(f"{args.workload}: " + json.dumps(extra))
    result = {
        "correct": loop.failed == 0 and not loop.self_check_failed,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    saved = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, env=env, error_rate=error_rate, notes=notes, **extra)
    (OUT / f"result-{tag}.json").write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
