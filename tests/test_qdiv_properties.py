"""Seeded property tests of the presentation engine's integer row reduction
and of its per-degree monomial counts and exponent pairs.

`_Rref` eliminates fraction-free over Z on sparse rows.  Random sparse rows
with small integer and Fraction entries (some built as combinations of
earlier rows, so that dependencies occur and reductions take several steps
and fill in) are cleared of denominators and inserted one by one as
{column: entry} dicts, with or without a bookkeeping column past the row
width that names the row; the result is checked against a plain dense
Fraction elimination written out below, and the stored rows against the
invariants the engine relies on.

The walk counts each degree's monomials in a coin-change table and derives
each degree's exponent pairs from earlier degrees (`_add_generator`,
`_pairs`); random generator lists check both against a brute-force listing
of all exponent tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld.qdiv import Generator, _add_generator, _monomials, _pairs, _Rref

SEEDED = settings(derandomize=True, max_examples=200, deadline=None)

entries = st.one_of(
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


@st.composite
def row_lists(draw):
    """1 to 16 rows of length 1 to 16.

    A fresh row has at most 4 nonzero entries; otherwise a row is a
    combination of up to 3 earlier rows, so it stays sparse.
    """
    dim = draw(st.integers(1, 16))
    rows = []
    for _ in range(draw(st.integers(1, 16))):
        if rows and draw(st.booleans()):
            picked = draw(st.sets(st.integers(0, len(rows) - 1), min_size=1, max_size=3))
            coeffs = {i: draw(entries) for i in sorted(picked)}
            row = [sum(c * rows[i][j] for i, c in coeffs.items()) for j in range(dim)]
        else:
            support = draw(st.sets(st.integers(0, dim - 1), max_size=4))
            row = [draw(entries) if j in support else Fraction(0) for j in range(dim)]
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
    """(integer row dict, scale) with integer row = scale * row, zeros left out."""
    scale = lcm(*(x.denominator for x in row))
    return {j: int(x * scale) for j, x in enumerate(row) if x}, scale


def check_stored_rows(span):
    """Each row: nonzero entries, pivot its smallest column and below the
    width, zero at every earlier pivot, and primitive."""
    pivots = list(span.rows)
    for n, (piv, row) in enumerate(span.rows.items()):
        assert all(row.values())
        assert piv == min(row) < span.width
        assert not any(p in row for p in pivots[:n])
        assert gcd(*row.values()) == 1


@SEEDED
@given(row_lists())
def test_tracked_reduction_matches_the_fraction_reference(rows):
    ints, scales = zip(*map(cleared, rows))
    width = len(rows[0])
    span = _Rref(width)
    want = reference(rows)
    for i, (vec, (want_added, want_kernel)) in enumerate(zip(ints, want)):
        rank = span.rank
        residual = span.try_add({**vec, width + i: 1})  # row i's bookkeeping column
        assert (residual is None) == want_added
        if residual is None:
            assert span.rank == rank + 1
            continue
        assert span.rank == rank  # a residual is never stored
        assert residual and min(residual) >= width
        assert all(isinstance(v, int) and v for v in residual.values())
        # the residual is a dependency among the integer rows; map it to the original rows
        dep = {k - width: v for k, v in residual.items()}
        kernel = {k: Fraction(v * scales[k], dep[i] * scales[i]) for k, v in dep.items()}
        assert kernel == want_kernel
        for j in range(width):
            assert sum(c * rows[k][j] for k, c in kernel.items()) == 0
    assert span.rank == sum(added for added, _ in want)
    check_stored_rows(span)
    for row in span.rows.values():
        # the bookkeeping columns combine the inserted rows into the stored row
        for j in range(width):
            combined = sum(c * ints[k - width].get(j, 0) for k, c in row.items() if k >= width)
            assert combined == row.get(j, 0)


@SEEDED
@given(row_lists())
def test_untracked_rows_are_primitive_and_ranks_agree(rows):
    span = _Rref(len(rows[0]))
    want = reference(rows)
    for vec, (want_added, _) in zip((cleared(r)[0] for r in rows), want):
        residual = span.try_add(vec)
        assert residual == (None if want_added else {})
    assert span.rank == sum(added for added, _ in want)
    check_stored_rows(span)


TOP = 9  # the highest degree walked


@st.composite
def generator_lists(draw):
    """1 to 4 generators in degree order, as the walk chooses them.

    Degrees run from 1 to 5, so low degrees and gaps often have no product;
    a generator may repeat an earlier one's exponent pair, at its degree or
    another.
    """
    degrees = sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    pairs = []
    for _ in degrees:
        if pairs and draw(st.booleans()):
            pairs.append(draw(st.sampled_from(pairs)))
        else:
            pairs.append((draw(st.integers(-3, 3)), draw(st.integers(-3, 3))))
    return [Generator(d, t, s) for d, (t, s) in zip(degrees, pairs)]


@SEEDED
@given(generator_lists())
def test_counts_and_pairs_match_a_brute_force_listing(gens):
    count = [1] + [0] * TOP
    firsts = [{(0, 0): None}]
    for d in range(1, TOP + 1):
        # as in presentation: pairs from the earlier generators, then this degree's own
        firsts.append(_pairs([g for g in gens if g.degree < d], firsts, d))
        for g in gens:
            if g.degree == d:
                _add_generator(g, count, firsts)
    listing = {}
    for exps in product(*(range(TOP // g.degree + 1) for g in gens)):
        total = sum(e * g.degree for e, g in zip(exps, gens))
        if total <= TOP:
            listing.setdefault(total, []).append(exps)
    degrees = [g.degree for g in gens]
    for d in range(TOP + 1):
        monos = sorted(listing.get(d, []), reverse=True)
        assert _monomials(degrees, d) == monos
        assert count[d] == len(monos)
        # each pair's place is that of its first (lex-largest) monomial in the listing
        pair_of = {e: (sum(x * g.t_exp for x, g in zip(e, gens)),
                       sum(x * g.s_exp for x, g in zip(e, gens))) for e in monos}
        assert list(firsts[d]) == list(dict.fromkeys(pair_of[e] for e in monos))
