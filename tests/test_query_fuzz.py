"""Property tests of the query checks at the edges of the feasible set.

``softlev pmf`` and ``softlev distance`` take a query on the command line.
A query in the energy ball or the scale box, boundary included, gets its
answer; any other query (outside the set, zero scales, NaN or +-inf entries,
the wrong length) exits with code 2 and one line of stderr that names the
query, never a traceback or a numpy warning.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlev import cli

A = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
M = [[0.1, 0.0], [0.0, 0.2], [0.3, 0.1]]
_SPECIAL = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_ULP = 2.0**-52


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("queries") / "spec.json")


def _run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``; an escaping
    exception or warning fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(spec_path, doc, query, feasible, names):
    """Run pmf and distance on ``query``: answers when ``feasible``, else
    exit 2 with one line of stderr holding one of ``names``."""
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    text = ",".join(repr(float(v)) for v in query)
    for command, lines in (("pmf", len(A)), ("distance", 2)):
        code, out, err = _run([command, spec_path, f"--query={text}"])
        if feasible:
            assert (code, err) == (0, ""), (command, text, err)
            assert len(out.splitlines()) == lines
        else:
            assert (code, out) == (2, ""), (command, text, code)
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
            assert any(name in err for name in names) and spec_path not in err, err


@st.composite
def _ball_queries(draw):
    """(E, query, feasible): a query at the edge of the ball ||x|| <= E."""
    E = draw(st.sampled_from([1.0, 0.3, 7.5]))
    u = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
    norm = math.hypot(*u)
    if norm < 1e-3:
        u, norm = [0.6, -0.8], 1.0
    kind = draw(st.sampled_from(["inside", "boundary", "outside", "huge", "zero", "special", "length"]))
    factor = {
        "inside": draw(st.floats(0.0, 0.999)),
        "boundary": draw(st.sampled_from([1.0 - _ULP / 2, 1.0, 1.0 + _ULP])),
        "outside": draw(st.sampled_from([1.0 + 1e-9, 2.0])),
    }.get(kind, 1.0)
    x = [v * (E * factor / norm) for v in u]
    if kind == "huge":
        x[draw(st.integers(0, 1))] = draw(st.sampled_from([1e200, -1e200, 1.7e308]))
    elif kind == "zero":
        x = [0.0, 0.0]
    elif kind == "special":
        x[draw(st.integers(0, 1))] = draw(_SPECIAL)
    elif kind == "length":
        x = x[:1] if draw(st.booleans()) else x + [0.0]
    return E, x, kind in ("inside", "boundary", "zero")


@st.composite
def _box_queries(draw):
    """((c, C), scales, feasible): scales at the edges of c <= s_i^2 <= C.
    The first box has exact squares (0.75^2 and 1.5^2), so s_i^2 = c and
    s_i^2 = C hold exactly."""
    c, C = draw(st.sampled_from([(0.5625, 2.25), (0.5, 2.0), (1.0, 1.0)]))
    edges = ["lo", "hi", "inside"] * 3 + ["below", "above", "zero", "special", "huge", "tiny"]
    kinds = draw(st.lists(st.sampled_from(edges), min_size=3, max_size=3))
    s = []
    for kind in kinds:
        value = {
            "lo": math.sqrt(c),
            "hi": math.sqrt(C),
            "inside": math.sqrt(c + draw(st.floats(0.0, 1.0)) * (C - c)),
            "below": math.sqrt(c) * (1.0 - 1e-9),
            "above": math.sqrt(C) * (1.0 + 1e-9),
            "zero": 0.0,
            "huge": 1e200,
            "tiny": 5e-324,
        }.get(kind)
        s.append(draw(_SPECIAL) if kind == "special" else value * draw(st.sampled_from([1.0, -1.0])))
    feasible = all(kind in ("lo", "hi", "inside") for kind in kinds)
    if draw(st.integers(0, 4)) == 0:  # the wrong length
        s = s[:2] if draw(st.booleans()) else s + [math.sqrt(c)]
        feasible = False
    return (c, C), s, feasible


@settings(max_examples=300, deadline=None)
@given(case=_ball_queries())
def test_an_energy_query_is_answered_or_refused_in_one_line(spec_path, case):
    E, x, feasible = case
    doc = {"family": "softmax", "A": A, "M": M, "constraint": {"E": E}}
    _check(spec_path, doc, x, feasible, ("query", "||x||_2"))


@settings(max_examples=300, deadline=None)
@given(case=_box_queries())
def test_a_scale_query_is_answered_or_refused_in_one_line(spec_path, case):
    (c, C), s, feasible = case
    doc = {"family": "leverage", "A": A, "M": M, "constraint": {"c": c, "C": C}}
    _check(spec_path, doc, s, feasible, ("scale", "s_i^2"))

