"""Acceptance gate: one criterion per test, one PASS/FAIL line per criterion.

Each test prints its verdict (bypassing capture, so the line is visible in
normal runs) and then asserts.  Criteria on measured constants assert the
constants the theory proves: the quadratic coefficient of the softmax
Hellinger expansion (acceptance 05) and the Le Cam / Bhattacharyya band on
the sample complexity m* (acceptance 07).
"""

import math
import subprocess
import sys
from statistics import NormalDist
from time import perf_counter

import numpy as np
import pytest

from softlev import harness
from softlev.bounds import extremal_pair
from softlev.cli import _resolve_spec_path
from softlev.distributions import hellinger_sq, tv
from softlev.harness import (
    ExperimentSpec,
    gaussian_instance,
    load_model_spec,
    run_sweep,
    run_taylor_check,
)
from softlev.rng import derive_seed, generator
from softlev.softmax import softmax_pmf


@pytest.fixture
def verdict(capsys):
    def emit(num, label, ok, detail=""):
        line = f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            # leading newline: the progress dot of the previous test leaves
            # the terminal mid-line
            print("\n" + line, flush=True)

    return emit


def _demo(name):
    return load_model_spec(_resolve_spec_path(name))


def test_01_extremal_pair_attains_both_closed_forms(verdict):
    t0 = perf_counter()
    worst = 0.0
    for eps in (0.1, 0.5, 1.0, 2.0):
        for n in (2, 5, 10):
            for m in sorted({1, n // 2}):
                a, b = extremal_pair(n, m, eps)
                P = softmax_pmf(a[:, None], np.ones(1))
                Q = softmax_pmf(b[:, None], np.ones(1))
                tv_ref = math.tanh(eps / 4.0)
                h2_ref = math.expm1(eps / 4.0) ** 2 / (1.0 + math.exp(eps / 2.0))
                worst = max(worst, abs(tv(P, Q) - tv_ref), abs(hellinger_sq(P, Q) - h2_ref))
    elapsed = perf_counter() - t0
    ok = worst <= 1e-10
    verdict(1, "extremal logit-gap pair attains both closed forms", ok and elapsed < 1.0,
            f"max deviation {worst:.3g}, {elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


def test_02_gap_bounds_survive_random_falsification(verdict):
    t0 = perf_counter()
    rows = harness._logit_pair_rows(0, 10_000)  # one-sided {0, eps} gaps
    rows += harness._chain_rows(0, 10_000)  # two-sided, chain constant 2
    violations = sum(not r.satisfied for r in rows)
    elapsed = perf_counter() - t0
    ok = violations == 0
    verdict(2, "logit-gap bounds hold on 1e4 one-sided + 1e4 two-sided pairs", ok and elapsed < 10.0,
            f"{len(rows)} checks, {violations} violations, {elapsed:.2f}s")
    assert ok
    assert elapsed < 10.0


def test_03_metric_sandwich_on_random_distributions(verdict):
    t0 = perf_counter()
    sandwich_viol, *_ = harness._metric_axioms(0, 10_000)
    elapsed = perf_counter() - t0
    ok = sandwich_viol == 0
    verdict(3, "H^2 <= TV <= sqrt(2 H^2) on 1e4 random pairs", ok and elapsed < 5.0,
            f"{sandwich_viol} violations at 1e-12 slack, {elapsed:.2f}s")
    assert ok
    assert elapsed < 5.0


def test_04_model_invariances(verdict):
    t0 = perf_counter()
    rep = harness.run_invariance_suite(1000, 0)
    shift = rep.by_name("shift_invariance").max_deviation
    right = rep.by_name("right_invariance").max_deviation
    sign = rep.by_name("sign_invariance").max_deviation
    elapsed = perf_counter() - t0
    ok = shift <= 1e-12 and right <= 1e-8 and sign <= 1e-8
    verdict(4, "shift / right / sign invariances on 1e3 instances", ok and elapsed < 10.0,
            f"max deviations {shift:.3g} / {right:.3g} / {sign:.3g}, {elapsed:.2f}s")
    assert ok
    assert elapsed < 10.0


def test_05_softmax_expansion_half_normalized_band(verdict):
    # For Q ∝ P e^{eps v}, sqrt(q_i) = sqrt(p_i) (1 + eps (v_i - vbar) / 2 + O(eps^2)),
    # so H^2 = (1/2) sum (sqrt p - sqrt q)^2 = (1/8) eps^2 Var_P(v) + O(eps^3).
    # The 1/8-normalized ratio tends to 1 with an O(eps) remainder; the
    # half-normalized ratio tends to the constant 1/4.
    t0 = perf_counter()
    band_hits = 0
    shrink_hits = 0
    half_hits = 0
    eighths = []
    halves = []
    for k in range(20):
        g = generator(derive_seed(0, "acc-expansion", k))
        n, d = int(g.integers(2, 11)), int(g.integers(1, 6))
        model = gaussian_instance("softmax", n, d, seed=k)
        rep = run_taylor_check(model, k)
        at = {r.eps: r for r in rep.rows}[1e-3]
        band_hits += 0.9 <= at.ratio_eighth <= 1.1
        shrink_hits += bool(rep.converging_eighth)
        half_hits += 0.25 * 0.9 <= at.ratio_half <= 0.25 * 1.1
        eighths.append(at.ratio_eighth)
        halves.append(at.ratio_half)
    elapsed = perf_counter() - t0
    ok = band_hits == 20 and shrink_hits == 20 and half_hits == 20
    verdict(5, "H^2 / ((1/8) eps^2 Var) in [0.9, 1.1] with shrinking deviation, "
            "H^2 / ((1/2) eps^2 Var) in (1/4) [0.9, 1.1]", ok,
            f"band {band_hits}/20, shrink {shrink_hits}/20, half {half_hits}/20, "
            f"1/8-ratios in [{min(eighths):.5f}, {max(eighths):.5f}], "
            f"1/2-ratios in [{min(halves):.4f}, {max(halves):.4f}] against 1/4, {elapsed:.2f}s")
    assert ok, (
        f"at eps=1e-3 the 1/8-normalized ratio spans [{min(eighths):.5f}, {max(eighths):.5f}] "
        f"({band_hits}/20 in [0.9, 1.1], {shrink_hits}/20 with |ratio - 1| shrinking towards "
        f"eps=1e-4) and the half-normalized ratio spans [{min(halves):.4f}, {max(halves):.4f}] "
        f"({half_hits}/20 in [0.225, 0.275]); the expansion H^2 = (1/8) eps^2 Var_P(Mx) + O(eps^3) "
        "predicts 1 and 1/4"
    )
    assert elapsed < 5.0


def test_06_leverage_derivative_matches_central_differences(verdict):
    t0 = perf_counter()
    worst_err = 0.0
    worst_sum = 0.0
    for k in range(20):
        g = generator(derive_seed(0, "acc-derivative", k))
        d = int(g.integers(1, 6))
        n = int(g.integers(d + 1, 11))
        model = gaussian_instance("leverage", n, d, seed=k)
        rep = run_taylor_check(model, k)
        worst_err = max(worst_err, rep.derivative_max_err)
        worst_sum = max(worst_sum, abs(rep.derivative_sum))
    elapsed = perf_counter() - t0
    ok = worst_err <= 1e-4 and worst_sum <= 1e-10
    verdict(6, "leverage pmf derivative vs central differences", ok and elapsed < 5.0,
            f"max entrywise err {worst_err:.3g}, max |sum| {worst_sum:.3g}, {elapsed:.2f}s")
    assert ok
    assert elapsed < 5.0


def _mstar_band(h2):
    """[m_lo, m_hi] that must contain the true m* at a query with this H^2.

    Le Cam: worst-case success <= (1 + TV(P^m, Q^m)) / 2 and
    TV <= sqrt(1 - (1 - H^2)^(2m)), so reaching 2/3 needs
    m >= ln(9/8) / (-2 ln(1 - H^2)) ~= 0.059 / H^2.
    Bhattacharyya: the Chernoff bound at s = 1/2 limits each error of the
    likelihood-ratio test to (1 - H^2)^m, so
    m = ceil(ln 3 / -ln(1 - H^2)) ~= 1.10 / H^2 already reaches 2/3.
    """
    rate = -math.log1p(-h2)
    return math.log(9.0 / 8.0) / (2.0 * rate), math.ceil(math.log(3.0) / rate)


def test_07_softmax_demo_scaling_law(verdict):
    t0 = perf_counter()
    model = _demo("demo-softmax")
    spec = ExperimentSpec(model=model, trials=400, seed=model.seed)
    res = run_sweep(spec)
    bands = [_mstar_band(r.h2_at_opt) for r in res.rows]
    products = [r.m_star * r.h2_at_opt for r in res.rows]
    clt = NormalDist().inv_cdf(2.0 / 3.0) ** 2 / 2.0
    elapsed = perf_counter() - t0
    slope_ok = -2.4 <= res.slope <= -1.6
    # The band bounds the true threshold; the 400-trial estimate is compared
    # with it without slack.  On this grid the estimate sits at least 1.65x
    # above m_lo and an order of magnitude below m_hi.
    band_ok = all(lo <= r.m_star <= hi for r, (lo, hi) in zip(res.rows, bands))
    ok = slope_ok and band_ok
    detail = ", ".join(f"{r.m_star} in [{lo:.1f}, {hi}]" for r, (lo, hi) in zip(res.rows, bands))
    verdict(7, "softmax demo: m* slope in [-2.4, -1.6] and m_lo <= m* <= m_hi", ok,
            f"slope {res.slope:.3f}, m* {detail}, m* H^2 {[round(p, 3) for p in products]} "
            f"against the CLT constant {clt:.3f}, {elapsed:.1f}s")
    assert ok, (
        f"fitted slope {res.slope:.3f} (band [-2.4, -1.6]); m* against "
        f"[Le Cam, Bhattacharyya] per row: {detail}"
    )
    assert elapsed < 600.0


def test_08_leverage_demo_scaling_law(verdict):
    t0 = perf_counter()
    model = _demo("demo-leverage")
    spec = ExperimentSpec(model=model, trials=400, seed=model.seed)
    res = run_sweep(spec)
    elapsed = perf_counter() - t0
    ok = -2.4 <= res.slope <= -1.6
    verdict(8, "leverage demo: m* slope in [-2.4, -1.6]", ok and elapsed < 600.0,
            f"slope {res.slope:.3f}, m* {[r.m_star for r in res.rows]}, {elapsed:.1f}s")
    assert ok
    assert elapsed < 600.0


def test_09_leverage_tv_envelope(verdict):
    t0 = perf_counter()
    rows = harness._leverage_envelope_rows(0, 1000)
    violations = sum(not r.satisfied for r in rows)
    max_ratio = max(r.ratio for r in rows)
    elapsed = perf_counter() - t0
    ok = violations == 0
    verdict(9, "TV <= 4 (row-gram gap) C / (c delta) on 1e3 pairs", ok and elapsed < 30.0,
            f"{violations} violations, max observed/bound {max_ratio:.4f}, {elapsed:.2f}s")
    assert ok
    assert elapsed < 30.0


def test_10_low_mass_row_h2_decays_like_one_over_n(verdict):
    t0 = perf_counter()
    eps, energy = 0.1, 1.0
    worst_ratio = 0.0
    for n in (10, 100, 1000):
        model = harness.low_mass_row_instance(n, d=2, energy=energy)
        x = np.array([energy, 0.0])
        P = softmax_pmf(model.A, x)
        Q = softmax_pmf(model.A + eps * model.M, x)
        h2 = hellinger_sq(P, Q)
        bound = 2.0 * eps * eps * energy * energy / n
        worst_ratio = max(worst_ratio, h2 / bound)
    elapsed = perf_counter() - t0
    ok = worst_ratio <= 1.0
    verdict(10, "single-row perturbation: H^2 <= 2 eps^2 E^2 / n", ok and elapsed < 5.0,
            f"max observed/bound {worst_ratio:.4f}, {elapsed:.2f}s")
    assert ok
    assert elapsed < 5.0


def test_11_sweep_csvs_are_byte_identical_across_reruns_and_threads(verdict, tmp_path):
    t0 = perf_counter()
    outs = [tmp_path / f"sweep{i}.csv" for i in range(3)]
    for out, threads in zip(outs, ("1", "1", "3")):
        proc = subprocess.run(
            [
                sys.executable, "-m", "softlev.cli", "sweep", "demo-softmax",
                "--out", str(out), "--trials", "400", "--threads", threads,
            ],
            capture_output=True,
            text=True,
            timeout=1200,
        )
        assert proc.returncode == 0, proc.stderr
    blobs = [out.read_bytes() for out in outs]
    elapsed = perf_counter() - t0
    ok = blobs[0] == blobs[1] == blobs[2]
    verdict(11, "sweep CSV byte-identical across reruns and thread counts", ok and elapsed < 1200.0,
            f"{len(blobs[0])} bytes, {elapsed:.1f}s")
    assert ok
    assert elapsed < 1200.0
