"""Softmax model: energy constraint, exact pmf, sampling, gap bounds."""

import math

import numpy as np
import pytest

from softlev.bounds import lemma_h2_bound, lemma_tv_bound
from softlev.distributions import hellinger_sq, tv
from softlev.errors import ConstraintViolation, ShapeMismatch
from softlev.numerics import two_to_infty_norm
from softlev.rng import derive_seed, generator
from softlev.softmax import EnergyConstraint, SoftmaxQuery, softmax_pmf, softmax_pmfs, softmax_sample


def test_energy_constraint_accepts_boundary_and_rejects_beyond():
    c = EnergyConstraint(1.0)
    c.check([1.0, 0.0])
    c.check([(1.0 + 1e-13) / math.sqrt(2)] * 2)  # inside the 1e-12 slack
    with pytest.raises(ConstraintViolation, match="energy"):
        c.check([1.1, 0.0])


def test_energy_constraint_validates_its_limit():
    with pytest.raises(ValueError):
        EnergyConstraint(0.0)
    with pytest.raises(ValueError):
        EnergyConstraint(float("inf"))


def test_softmax_query_wrapper_is_frozen_and_checked():
    q = SoftmaxQuery(np.array([0.6, 0.8]), EnergyConstraint(1.0))
    assert not q.x.flags.writeable
    with pytest.raises(ConstraintViolation):
        SoftmaxQuery(np.array([2.0, 0.0]), EnergyConstraint(1.0))
    # softmax_pmf accepts either the wrapper or a raw vector
    A = np.zeros((3, 2))
    assert np.array_equal(softmax_pmf(A, q).probs, softmax_pmf(A, q.x).probs)


def test_zero_parameters_give_uniform():
    P = softmax_pmf(np.zeros((4, 2)), [0.3, -0.1])
    assert np.array_equal(P.probs, np.full(4, 0.25))


def test_two_to_one_odds_from_log_two_logit():
    P = softmax_pmf(np.array([[math.log(2.0)], [0.0]]), [1.0])
    assert P.probs[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert P.probs[1] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_pmf_matches_extended_precision_reference():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    g = generator(derive_seed(30, "mp"))
    A = g.standard_normal((5, 3))
    x = g.standard_normal(3)
    logits = A @ x
    exps = [mp.e ** mp.mpf(float(v)) for v in logits]  # unshifted formula
    total = sum(exps)
    ref = np.array([float(e / total) for e in exps])
    assert np.abs(softmax_pmf(A, x).probs - ref).max() < 1e-12


def test_overwhelming_logit_is_shift_stable():
    A = np.array([[100.0], [0.0]])
    P = softmax_pmf(A, [1.0])
    assert P.probs[0] > 1.0 - 1e-12
    assert softmax_sample(A, [1.0], 5, 100).tolist() == [0] * 100
    # magnitudes that overflow exp() raw still come out finite
    P = softmax_pmf(np.array([[800.0], [-800.0]]), [1.0])
    assert np.isfinite(P.probs).all() and P.probs.sum() == 1.0


def test_pmf_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        softmax_pmf(np.zeros((3, 2)), [1.0, 2.0, 3.0])


def test_stacked_pmfs_equal_softmax_pmf_row_by_row():
    for k in range(2000):
        g = generator(derive_seed(32, "stack", k))
        n, d = int(g.integers(1, 12)), int(g.integers(1, 6))
        A = 3.0 * g.standard_normal((n, d))
        B = A + g.standard_normal((n, d))
        x = g.standard_normal(d)
        P, Q = softmax_pmfs(np.stack([A @ x, B @ x]))
        assert P.tobytes() == softmax_pmf(A, x).probs.tobytes()
        assert Q.tobytes() == softmax_pmf(B, x).probs.tobytes()


def test_shift_invariance():
    """Adding the same row vector to every row never changes the output law."""
    for k in range(100):
        g = generator(derive_seed(31, "shift", k))
        n, d = int(g.integers(2, 9)), int(g.integers(1, 5))
        A = g.standard_normal((n, d))
        w = g.standard_normal(d)
        x = g.standard_normal(d)
        B = A + np.outer(np.ones(n), w)
        assert np.abs(softmax_pmf(A, x).probs - softmax_pmf(B, x).probs).max() <= 1e-12


def test_sampling_is_deterministic_and_calibrated():
    A = np.zeros((3, 1))
    out = softmax_sample(A, [0.5], 123, 30_000)
    assert np.array_equal(out, softmax_sample(A, [0.5], 123, 30_000))
    for i in range(3):
        assert abs((out == i).mean() - 1.0 / 3.0) < 0.01


def test_chained_infty_norm_bounds():
    """||a-b||_inf <= eps caps the distances via the one-sided gap formulas:
    H^2 at 2*eps, TV at twice the eps value."""
    for k in range(500):
        g = generator(derive_seed(32, "chain", k))
        n = int(g.integers(2, 11))
        eps = 2.0 * float(g.random())
        a = 2.0 * g.standard_normal(n)
        b = a + eps * (2.0 * g.random(n) - 1.0)
        P = softmax_pmf(a[:, None], np.ones(1))
        Q = softmax_pmf(b[:, None], np.ones(1))
        assert hellinger_sq(P, Q) <= lemma_h2_bound(2.0 * eps) + 1e-12
        assert tv(P, Q) <= 2.0 * lemma_tv_bound(eps) + 1e-12


def test_row_gap_envelope_on_h2():
    """H^2 stays under (gap * ||x||)^2 while that product is at most 1/2."""
    for k in range(300):
        g = generator(derive_seed(33, "env", k))
        n, d = int(g.integers(2, 11)), int(g.integers(1, 6))
        A = g.standard_normal((n, d))
        D = g.standard_normal((n, d))
        D /= two_to_infty_norm(D)
        x = g.standard_normal(d)
        xnorm = float(np.linalg.norm(x))
        if xnorm == 0.0:
            continue
        rho = 0.5 * float(g.random())
        B = A + (rho / xnorm) * D
        assert hellinger_sq(softmax_pmf(A, x), softmax_pmf(B, x)) <= rho * rho * (1 + 1e-9)
