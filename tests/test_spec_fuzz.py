"""Property tests of the spec loader at the edges of its input format.

Every generated spec either loads, or raises ``InputFormatError`` whose
message names the spec file exactly once, and then ``softlev pmf`` on it
exits with code 2 and prints that message as its one line of stderr.

Matrix oracle: the per-entry field check that the loader's one-pass check
replaced, kept here verbatim; on every field value the loader must return
bitwise its array or raise its message.
"""

import contextlib
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlev import cli, harness
from softlev.errors import InputFormatError
from softlev.harness import load_model_spec
from softlev.model import ModelSpec

HUGE = 10**400  # an integer JSON parses exactly, beyond the float range

# Numbers at the edges: zero, negatives, tiny and huge magnitudes, NaN and
# +-inf (JSON's NaN and Infinity literals), and integers beyond the float
# range; then the values that are not numbers at all.
_EDGE_NUMBERS = st.sampled_from([HUGE, -HUGE, 1e308, 1e154, 5e-324, 1e-300, 0, 0.0, -0.0, -1, -1.5, 1.0, 2])
_SPECIAL = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_NOT_NUMBERS = st.sampled_from([True, False, None, "1", "", [], {}, [1.0]])
_VALUES = st.one_of(_EDGE_NUMBERS, _SPECIAL, _NOT_NUMBERS)


def _matrix(n, d):
    return st.lists(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d), min_size=n, max_size=n)


@st.composite
def _valid_specs(draw):
    """A spec that loads: n x d matrices, B and M each present or not, and
    a feasible constraint (leverage n >= d)."""
    family = draw(st.sampled_from(["softmax", "leverage"]))
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d if family == "leverage" else 1, 6))
    doc = {"family": family, "A": draw(_matrix(n, d))}
    for field in ("B", "M"):
        if draw(st.booleans()):
            doc[field] = draw(_matrix(n, d))
    if family == "softmax":
        doc["constraint"] = {"E": draw(st.floats(0.1, 10.0))}
    else:
        c = draw(st.floats(0.1, 2.0))
        doc["constraint"] = {"c": c, "C": c * draw(st.floats(1.0, 4.0))}
    if draw(st.booleans()):
        doc["seed"] = draw(st.integers(0, 2**31))
    return doc


def _mutate(draw, doc):
    """Break one thing about the spec, or (rarely) nothing."""
    matrices = [f for f in ("A", "B", "M") if f in doc]
    kind = draw(
        st.sampled_from(
            ["entry", "entry", "ragged", "empty_rows", "empty", "flat", "wide"]
            + ["constraint", "constraint", "c=C", "c>C", "drop_key", "family", "seed", "none"]
        )
    )
    constraint = doc["constraint"]
    rows = doc[draw(st.sampled_from(matrices))]
    filled = [row for row in rows if isinstance(row, list) and row]  # an earlier break may have emptied them
    if kind == "entry" and filled:
        row = draw(st.sampled_from(filled))
        row[draw(st.integers(0, len(row) - 1))] = draw(_VALUES)
    elif kind == "ragged" and filled:
        row = draw(st.sampled_from(filled))
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(1.0)
    elif kind == "empty_rows":
        rows[:] = [[] for _ in rows]
    elif kind == "empty":
        rows.clear()
    elif kind == "flat":
        rows[:] = [1.0] * len(rows)
    elif kind == "wide":  # one row, more columns (a leverage model needs n >= d)
        for field in matrices:
            doc[field] = [[1.0, 0.0]]
    elif kind == "constraint" and constraint:
        constraint[draw(st.sampled_from(sorted(constraint)))] = draw(_VALUES)
    elif kind == "c=C" and "c" in constraint:
        constraint["C"] = constraint["c"]
    elif kind == "c>C" and "C" in constraint and isinstance(constraint["C"], float):
        constraint["c"] = 2.0 * constraint["C"]
    elif kind == "drop_key" and constraint:
        constraint.pop(draw(st.sampled_from(sorted(constraint))))
    elif kind == "family":
        doc["family"] = draw(st.sampled_from(["gaussian", "Softmax", None, 1]))
    elif kind == "seed":
        doc["seed"] = draw(_VALUES)


@st.composite
def _specs(draw):
    doc = draw(_valid_specs())
    for _ in range(draw(st.integers(1, 2))):
        _mutate(draw, doc)
    return doc


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "spec.json")


def _pmf(spec_path, query):
    """(exit code, stderr) of ``softlev pmf``; an escaping exception fails."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["pmf", spec_path, "--query", query])
    return code, err.getvalue()


@settings(max_examples=400, deadline=None)
@given(doc=_specs())
def test_a_spec_loads_or_names_its_file_once(spec_path, doc):
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)  # NaN and +-inf as JSON's NaN and Infinity literals
    try:
        model = load_model_spec(spec_path)
    except InputFormatError as exc:
        message = str(exc)
        assert message.count(spec_path) == 1, message
        assert _pmf(spec_path, "1") == (2, f"error: {message}\n")
    else:
        assert isinstance(model, ModelSpec)


# ---------------------------------------------------------------------------
# the one-pass matrix check against the per-entry loop
# ---------------------------------------------------------------------------


def _parse_matrix_per_entry(doc, field, path, required=False):
    val = doc.get(field)
    if val is None:
        if required:
            raise InputFormatError(f"{path}: missing required field '{field}'")
        return None
    if not (isinstance(val, list) and val and all(isinstance(r, list) for r in val)):
        raise InputFormatError(f"{path}: field '{field}' must be a non-empty list of rows")
    width = len(val[0])
    for i, row in enumerate(val):
        if len(row) != width:
            raise InputFormatError(f"{path}: field '{field}' row {i} has {len(row)} entries, expected {width}")
        for j, entry in enumerate(row):
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise InputFormatError(f"{path}: field '{field}' entry [{i}][{j}] is not a number")
            if isinstance(entry, int) and abs(entry) > sys.float_info.max:
                raise InputFormatError(f"{path}: field '{field}' entry [{i}][{j}] is too large for a float")
    return np.array(val, dtype=np.float64)


PAST = int(sys.float_info.max) + 1  # the first integer the float range excludes; numpy rounds it down
_ODD_ENTRIES = st.one_of(
    st.integers(-(10**6), 10**6),
    st.sampled_from([HUGE, -HUGE, PAST, -PAST, PAST - 1, True, False, None, "1", "", [1.0], [], {}]),
)


@st.composite
def _field_values(draw):
    """Mostly rectangular float matrices (NaN and +-inf included), some
    broken by an int, bool, None, string or nested list entry, a ragged row
    or a row that is not a list; and values that are not lists of rows."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(st.floats(), min_size=d, max_size=d), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["entry", "entry", "longer", "shorter", "not_a_row"]))
        row = rows[i] if isinstance(rows[i], list) else None
        if kind == "not_a_row":
            rows[i] = draw(st.sampled_from([1.0, None, "row", {}]))
        elif kind == "entry" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_ODD_ENTRIES)
        elif kind == "longer" and row is not None:
            row.append(draw(st.one_of(st.floats(), _ODD_ENTRIES)))
        elif kind == "shorter" and row:
            row.pop()
    return draw(st.one_of(st.just(rows), st.sampled_from([None, [], 1.0, "rows", [1.0, 2.0], {}])))


def _parsed(parse, value, required):
    """The array ``parse`` returns, as its shape and bytes, or its error."""
    try:
        arr = parse({"A": value}, "A", "spec.json", required)
    except InputFormatError as exc:
        return "error", str(exc)
    return arr if arr is None else (arr.dtype, arr.shape, arr.tobytes())


@settings(max_examples=500, deadline=None)
@given(value=_field_values(), required=st.booleans())
def test_the_one_pass_matrix_check_matches_the_per_entry_loop(value, required):
    expected = _parsed(_parse_matrix_per_entry, value, required)
    assert _parsed(harness._parse_matrix, value, required) == expected
