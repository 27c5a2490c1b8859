"""Seeded property tests of the presentation engine's integer row reduction.

`_Rref` eliminates fraction-free over Z.  Random rows with small integer
and Fraction entries (some built as combinations of earlier rows, so that
dependencies occur) are cleared of denominators and inserted one by one;
the result is checked against a plain Fraction elimination written out
below, and the stored rows against the invariants the engine relies on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld.qdiv import _Rref

SEEDED = settings(derandomize=True, max_examples=200, deadline=None)

entries = st.one_of(
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


@st.composite
def row_lists(draw):
    """1 to 8 rows of length 1 to 5; a row may be a combination of earlier ones."""
    dim = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if rows and draw(st.booleans()):
            coeffs = [draw(entries) for _ in rows]
            row = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(dim)]
        else:
            row = [draw(entries) for _ in range(dim)]
        rows.append(row)
    return rows


def reference(rows):
    """Fraction elimination: per row, (True, None) or (False, its kernel with 1 at the row)."""
    basis, out = [], []
    for i, row in enumerate(rows):
        v, e = list(row), {i: Fraction(1)}
        for p, r, re in basis:
            f = v[p]
            v = [x - f * y for x, y in zip(v, r)]
            for k, c in re.items():
                e[k] = e.get(k, 0) - f * c
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            out.append((False, {k: c for k, c in e.items() if c}))
        else:
            basis.append((p, [x / v[p] for x in v], {k: c / v[p] for k, c in e.items()}))
            out.append((True, None))
    return out


def cleared(row):
    """(integer row, scale) with integer row = scale * row."""
    scale = lcm(*(x.denominator for x in row))
    return [int(x * scale) for x in row], scale


@SEEDED
@given(row_lists())
def test_tracked_reduction_matches_the_fraction_reference(rows):
    ints, scales = zip(*map(cleared, rows))
    span = _Rref()
    want = reference(rows)
    for i, (vec, (want_added, want_kernel)) in enumerate(zip(ints, want)):
        added, dep = span.try_add(vec, {i: 1})
        assert added == want_added
        if added:
            continue
        assert all(isinstance(v, int) for v in dep.values())
        # dep is a dependency among the integer rows; map it to the original rows
        kernel = {k: Fraction(v * scales[k], dep[i] * scales[i]) for k, v in dep.items() if v}
        assert kernel[i] == 1
        assert kernel == want_kernel
        for j in range(len(rows[0])):
            assert sum(c * rows[k][j] for k, c in kernel.items()) == 0
    assert span.rank == sum(added for added, _ in want)
    for vec, expr, piv in span.rows:
        assert vec[piv] and not any(vec[:piv])
        assert gcd(*vec, *expr.values()) == 1
        for j, x in enumerate(vec):
            assert sum(c * ints[k][j] for k, c in expr.items()) == x


@SEEDED
@given(row_lists())
def test_untracked_rows_are_primitive_and_ranks_agree(rows):
    span = _Rref()
    for vec, (want_added, _) in zip((cleared(r)[0] for r in rows), reference(rows)):
        added, expr = span.try_add(vec)
        assert (added, expr) == (want_added, None)
    for n, (vec, _, piv) in enumerate(span.rows):
        assert gcd(*vec) == 1
        assert vec[piv] and all(vec[p] == 0 for _, _, p in span.rows[:n])
