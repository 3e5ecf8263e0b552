"""Closed-form gap bounds, the pairs attaining them, and lower-bound scalars."""

import dataclasses
import math

import numpy as np
import pytest

from softlev.bounds import (
    BoundReport,
    extremal_pair,
    lemma_h2_bound,
    lemma_tv_bound,
    leverage_lb_quantity,
    softmax_lb_quantity,
)
from softlev.distributions import hellinger_sq, tv
from softlev.errors import INDISTINGUISHABLE, DegenerateModel, DomainError, ShapeMismatch
from softlev.leverage import BoxConstraint
from softlev.softmax import softmax_pmf


def test_bound_formulas_at_reference_points():
    assert lemma_h2_bound(0.0) == 0.0
    assert lemma_tv_bound(0.0) == 0.0
    # plain transcription of the formulas, no expm1 tricks
    plain = (1.0 - math.exp(0.25)) ** 2 / (1.0 + math.exp(0.5))
    assert lemma_h2_bound(1.0) == pytest.approx(plain, rel=1e-14)
    assert lemma_tv_bound(4.0) == pytest.approx(math.tanh(1.0), rel=1e-15)
    assert lemma_tv_bound(0.01) == pytest.approx(0.0025, abs=1e-8)


def test_h2_bound_small_eps_behaves_like_eps_sq_over_32():
    eps = 1e-4
    ratio = lemma_h2_bound(eps) / eps**2
    assert ratio == pytest.approx(1.0 / 32.0, rel=1e-3)
    # expm1 keeps relative accuracy where exp() would lose every digit
    assert lemma_h2_bound(1e-12) == pytest.approx(1e-24 / 32.0, rel=1e-9)


def test_bounds_reject_bad_eps():
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            lemma_h2_bound(bad)
        with pytest.raises(DomainError):
            lemma_tv_bound(bad)


def test_bounds_are_monotone_in_eps():
    grid = np.linspace(0.0, 10.0, 200)
    h = [lemma_h2_bound(e) for e in grid]
    t = [lemma_tv_bound(e) for e in grid]
    assert all(x < y for x, y in zip(h, h[1:]))
    assert all(x < y for x, y in zip(t, t[1:]))
    assert h[-1] < 1.0 and t[-1] < 1.0


def test_h2_bound_past_the_overflow_of_e_to_the_eps_over_2():
    # from eps of about 1419.6 the direct form overflows; the bound keeps
    # rising to 1 through the switch and stays finite up to the float range
    h = [lemma_h2_bound(e) for e in (1400.0, 1419.5, 1419.6, 1419.7, 1500.0, 1e308)]
    assert all(x <= y <= 1.0 for x, y in zip(h, h[1:]))
    assert h[-2:] == [1.0, 1.0]
    assert lemma_h2_bound(3.0) == math.expm1(0.75) ** 2 / (1.0 + math.exp(1.5))


# ---------------------------------------------------------------------------
# extremal pairs
# ---------------------------------------------------------------------------


def _laws(a, b):
    P = softmax_pmf(a[:, None], [1.0])
    Q = softmax_pmf(b[:, None], [1.0])
    return P, Q


def test_extremal_pair_attains_both_bounds():
    for n in (2, 3, 6, 10):
        for m in {1, n // 2, n - 1}:
            if not 1 <= m < n:
                continue
            for eps in (0.05, 0.5, 2.0, 8.0):
                a, b = extremal_pair(n, m, eps)
                P, Q = _laws(a, b)
                assert tv(P, Q) == pytest.approx(lemma_tv_bound(eps), abs=1e-10)
                assert hellinger_sq(P, Q) == pytest.approx(lemma_h2_bound(eps), abs=1e-10)


def test_extremal_pair_two_point_case_by_hand():
    # n=2, m=1: a = (-eps/2, 0), b = (+eps/2, 0)
    a, b = extremal_pair(2, 1, 0.8)
    assert a == pytest.approx([-0.4, 0.0], abs=1e-15)
    assert b == pytest.approx([0.4, 0.0], abs=1e-15)


def test_extremal_pair_rejects_bad_parameters():
    with pytest.raises(DomainError):
        extremal_pair(4, 0, 0.5)
    with pytest.raises(DomainError):
        extremal_pair(4, 4, 0.5)
    with pytest.raises(DomainError):
        extremal_pair(4, 1.5, 0.5)
    with pytest.raises(DomainError):
        extremal_pair(4, 1, 0.0)


# ---------------------------------------------------------------------------
# lower-bound scalars
# ---------------------------------------------------------------------------


def test_softmax_lb_quantity_values():
    A = np.zeros((3, 2))
    B = np.zeros((3, 2))
    B[1, 0] = 0.1  # gap = max row norm of the difference = 0.1
    assert softmax_lb_quantity(A, B, 1.0) == pytest.approx(100.0, abs=1e-9)
    assert softmax_lb_quantity(A, B, 10.0) == pytest.approx(1.0, abs=1e-12)


def test_softmax_lb_quantity_identical_models():
    A = np.ones((2, 2))
    out = softmax_lb_quantity(A, A.copy(), 1.0)
    assert out is INDISTINGUISHABLE
    assert repr(out) == "INDISTINGUISHABLE"
    with pytest.raises(TypeError):
        out * 2.0
    with pytest.raises(TypeError):
        out + 1.0


def test_softmax_lb_quantity_past_the_float_range_is_inf():
    # (gap * E)^-2 overflows for a gap of 1e-160; at 1e-200 the gap's
    # squares underflow, and the models still differ, so neither pair is
    # INDISTINGUISHABLE.
    for tiny in (1e-160, 1e-200, 5e-324):
        assert softmax_lb_quantity(tiny * np.eye(2), np.zeros((2, 2)), 1.0) == math.inf


def test_softmax_lb_quantity_of_a_difference_that_overflows():
    # A - B overflows although both are finite; the gap 3.4e308 still
    # counts, with no warning.
    A = np.array([[1.7e308, 0.0], [0.0, 1.0]])
    B = np.array([[-1.7e308, 0.0], [0.0, 1.0]])
    assert softmax_lb_quantity(A, B, 1.0) == 0.0
    assert softmax_lb_quantity(A, B, 1e-300) == (1.7e308 * 1e-300 * 2.0) ** -2.0


def test_softmax_lb_quantity_validation():
    A = np.zeros((2, 1))
    B = np.ones((2, 1))
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError):
            softmax_lb_quantity(A, B, bad)
    with pytest.raises(ShapeMismatch):
        softmax_lb_quantity(A, np.ones((3, 1)), 1.0)


def test_leverage_lb_quantity_plugin_values():
    A = np.eye(2)
    B = np.eye(2)
    B[0, 0] = math.sqrt(1.01)  # row-gram gap 0.01, lambda_min(A^T A) = 1
    tight = BoxConstraint(1.0, 1.0)
    assert leverage_lb_quantity(A, B, tight) == pytest.approx(100.0, abs=1e-9)
    # doubling C scales by a power of two, so the halving is bitwise
    loose = BoxConstraint(1.0, 2.0)
    assert leverage_lb_quantity(A, B, loose) == leverage_lb_quantity(A, B, tight) / 2.0


def test_leverage_lb_quantity_identical_models():
    A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    assert leverage_lb_quantity(A, A.copy(), BoxConstraint(0.5, 2.0)) is INDISTINGUISHABLE


def test_leverage_lb_quantity_degenerate_before_marker():
    # a singular A is reported as the model defect even when B == A would
    # otherwise yield the indistinguishable marker
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DegenerateModel):
        leverage_lb_quantity(A, A.copy(), BoxConstraint(1.0, 1.0))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_bound_report_allows_hairline_slack():
    ok = BoundReport("h2-vs-tv", {"eps": 0.1}, 1.0, 1.0 + 0.5e-9)
    assert ok.satisfied
    bad = BoundReport("h2-vs-tv", {"eps": 0.1}, 1.0, 1.0 + 2e-9)
    assert not bad.satisfied


def test_bound_report_ratio_conventions():
    assert BoundReport("x", {}, 0.0, 0.0).ratio == 0.0
    assert BoundReport("x", {}, 0.0, 0.5).ratio == math.inf
    assert BoundReport("x", {}, 2.0, 0.5).ratio == 0.25


def test_bound_report_is_frozen():
    r = BoundReport("x", {}, 1.0, 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.bound_value = 2.0
