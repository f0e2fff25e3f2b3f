"""Exact scalars: formatting, parsing, serialization roundtrips, exact
linear algebra and the linear-combination base."""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from ribbonhom.complexes import GraphChain, _boundary_rows
from ribbonhom.graphs import enumerate_graphs
from ribbonhom.lie import CEChain, CyclicWord
from ribbonhom.scalars import (_echelon, format_scalar, json_scalar,
                               mat_inverse, parse_scalar, rank_exact,
                               solve_exact)
from ribbonhom.superspace import SuperDim, SuperTensor
from ribbonhom.tcft import enumerate_legged_graphs


def test_format_and_parse_are_inverse_on_samples():
    samples = [Fraction(0), Fraction(5), Fraction(-7, 3), 4, -1]
    for x in samples:
        s = json_scalar(x)
        y = parse_scalar(s)
        assert y == x and type(y) is Fraction, (x, s, y)
        assert "." not in s  # never floats
    assert parse_scalar(3) == 3 and type(parse_scalar(3)) is Fraction
    # only ints and exact rational strings are read
    for bad in (1.5, None, True, [1], "1/2*sqrt(2)", "1/0", ""):
        with pytest.raises(ValueError):
            parse_scalar(bad)


@given(st.fractions(max_denominator=10 ** 6))
def test_parse_roundtrip_fractions(q):
    assert parse_scalar(json_scalar(q)) == q


def test_format_scalar_is_readable():
    assert format_scalar(Fraction(-7, 3)) == "-7/3"
    assert format_scalar(Fraction(4)) == "4"
    with pytest.raises(TypeError):
        format_scalar(1.5)


def test_linear_algebra_helpers_exact():
    rng = random.Random(11)
    a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
         for _ in range(4)]
    while rank_exact(O.sparse_rows(a)) < 4:
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(4)] for _ in range(4)]
    inv = mat_inverse(a)
    assert O.mat_mul(a, inv) == O.identity(4)
    b = [Fraction(k) for k in range(4)]
    x = solve_exact(O.sparse_rows(a), dict(enumerate(b)))
    assert [sum(a[i][j] * x.get(j, 0) for j in range(4))
            for i in range(4)] == b


def test_rank_exact_detects_dependence():
    rows = [{0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(4)}]
    assert rank_exact(rows) == 1


# "non-unit" draws no entry ±1, so most pivots of integer elimination are
# not units and the rows they clear must be scaled
ENTRIES = {"int": st.integers(-3, 3),
           "fraction": st.fractions(-3, 3, max_denominator=4),
           "non-unit": st.sampled_from([2, -2, 3, -3, 4, -6])}


@st.composite
def sparse_matrices(draw, entry, max_cols=7):
    """Mostly-zero matrices with zero columns, then repeated, combined and
    zero rows inserted among the drawn ones, and rows multiplied by common
    factors, so elimination meets non-unit and negative pivots, rows with
    a content and denominators to clear."""
    ncols = draw(st.integers(0, max_cols))
    zero_cols = draw(st.sets(st.integers(0, max_cols)))
    cell = st.one_of(st.just(0), st.just(0), entry)
    rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                         max_size=6))
    rows = [[0 if c in zero_cols else v for c, v in enumerate(row)]
            for row in rows]
    for kind in draw(st.lists(st.sampled_from(["repeat", "combine", "zero"]),
                              max_size=3)):
        new = [0] * ncols
        if rows and kind == "repeat":
            new = list(draw(st.sampled_from(rows)))
        elif rows and kind == "combine":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            new = [s * x + t * y for x, y in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), new)
    factors = draw(st.lists(st.sampled_from([1, -1, 2, -3, 6,
                                             Fraction(-4, 3)]),
                            min_size=len(rows), max_size=len(rows)))
    return [[k * v for v in row] for k, row in zip(factors, rows)]


@st.composite
def sparse_form(draw, rows):
    """The package's sparse rows of a dense matrix, some of them keeping
    explicit zero values."""
    ncols = len(rows[0]) if rows else 0
    kept = draw(st.lists(st.sets(st.integers(0, max(ncols - 1, 0))),
                         min_size=len(rows), max_size=len(rows)))
    return [{c: v for c, v in enumerate(row) if v or c in zeros}
            for row, zeros in zip(rows, kept)]


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@given(data=st.data())
def test_rank_exact_matches_bareiss(entry, data):
    rows = data.draw(sparse_matrices(ENTRIES[entry]))
    sparse = data.draw(sparse_form(rows))
    before = [dict(row) for row in sparse]
    assert rank_exact(sparse) == O.rank_bareiss(rows)
    assert sparse == before  # the caller may read rows afterwards


def test_rank_of_empty_matrices():
    assert rank_exact([]) == O.rank_bareiss([]) == 0
    assert rank_exact([{}]) == O.rank_bareiss([[]]) == 0


@given(st.sampled_from(sorted(ENTRIES)).flatmap(
    lambda kind: sparse_matrices(ENTRIES[kind])), st.data())
def test_solve_exact_solves_or_reports_inconsistency(a, data):
    ncols = len(a[0]) if a else 0
    entry = ENTRIES["fraction"]
    if data.draw(st.booleans()):  # a consistent right-hand side
        x0 = data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
        b = [sum(v * t for v, t in zip(row, x0)) for row in a]
    else:
        b = data.draw(st.lists(entry, min_size=len(a), max_size=len(a)))
    sparse, rhs = data.draw(sparse_form(a)), dict(enumerate(b))
    x = solve_exact(sparse, rhs)
    # elimination over Q with every pivot scaled to 1 has the same pivots,
    # so it gives the very same x: the witnesses of is_boundary do not
    # depend on the arithmetic
    assert x == O.solve_fraction(sparse, rhs)
    augmented = O.rank_bareiss([row + [rhs] for row, rhs in zip(a, b)])
    if x is None:
        assert augmented > O.rank_bareiss(a)
    else:
        assert all(0 <= j < ncols and type(t) is Fraction and t
                   for j, t in x.items())
        x = [x.get(j, 0) for j in range(ncols)]
        assert [sum(v * t for v, t in zip(row, x)) for row in a] == b


@pytest.mark.parametrize("v, e", [(3, 6), (2, 6)])
def test_boundary_elimination_stays_in_the_integers(v, e):
    # the rows of the boundary are integers, so elimination makes no
    # Fraction; each table row is a multiple of the row that elimination
    # over Q scales to 1 at the same pivot
    rows = _boundary_rows(v, e)
    table = _echelon(rows)
    assert all(type(x) is int for row in table.values()
               for x in row.values())
    reference = O.echelon_fraction(rows)
    assert table.keys() == reference.keys()
    for col, row in table.items():
        assert row[col] > 0
        assert {c: Fraction(x, row[col]) for c, x in row.items()} \
            == reference[col]


@pytest.mark.parametrize("v, e", [(3, 6), (2, 6)])
def test_rank_ignores_the_order_of_rows_and_columns(v, e):
    rows = _boundary_rows(v, e)
    rank = rank_exact(rows)
    ncols = 1 + max(c for row in rows for c in row)
    rng = random.Random(v * 10 + e)
    for _ in range(3):
        perm = list(range(ncols))
        rng.shuffle(perm)
        shuffled = [{perm[c]: x for c, x in row.items()} for row in rows]
        rng.shuffle(shuffled)
        assert rank_exact(shuffled) == rank


RATIONALS = st.builds(lambda p, q, r: p + Fraction(q, 2) + Fraction(r, 3),
                      st.integers(-2, 2), st.integers(-2, 2),
                      st.integers(-2, 2))


@given(st.integers(1, 3), st.data())
def test_mat_inverse_on_surd_matrices(n, data):
    # A = L U with unit lower triangular L and nonzero pivots on U
    nonzero = RATIONALS.filter(bool)
    low = [[Fraction(1) if i == j else data.draw(RATIONALS) if j < i
            else Fraction(0) for j in range(n)] for i in range(n)]
    up = [[data.draw(nonzero) if i == j else data.draw(RATIONALS) if j > i
           else Fraction(0) for j in range(n)] for i in range(n)]
    a = O.mat_mul(low, up)
    inv = mat_inverse(a)
    assert O.mat_mul(a, inv) == O.identity(n)
    assert O.mat_mul(inv, a) == O.identity(n)
    assert inv == [[O.solve_fraction(O.sparse_rows(a), {i: 1}).get(j, 0)
                    for i in range(n)] for j in range(n)]
    # a last row combined from the others makes it singular
    s, t = data.draw(RATIONALS), data.draw(RATIONALS)
    singular = a + [[s * x + t * y for x, y in zip(a[0], a[-1])]]
    singular = [row + [data.draw(RATIONALS)] for row in singular]
    singular[-1][-1] = s * singular[0][-1] + t * singular[-2][-1]
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(singular)


LETTERS = st.integers(0, 2)  # p1, q1 even and x1 odd in C^(2|1)
WORDS = st.lists(LETTERS, min_size=1, max_size=3).map(tuple)
# (constructor, space, raw keys): zero classes, self-cancelling words and
# annihilating wedge words all occur among the keys
CHAIN_TYPES = [
    (GraphChain, (),
     st.sampled_from(enumerate_graphs(1, 2) + enumerate_graphs(2, 3))),
    (partial(GraphChain, nin=1, nout=1), (), st.sampled_from(
        enumerate_legged_graphs(1, 1, 1) + enumerate_legged_graphs(1, 1, 2))),
    (CyclicWord, (SuperDim(1, 1),),
     st.lists(LETTERS, max_size=4).map(tuple)),
    (CEChain, (SuperDim(1, 1),), st.lists(WORDS, max_size=3).map(tuple)),
    (SuperTensor, (SuperDim(1, 1), 2), st.tuples(LETTERS, LETTERS)),
]
COEFFS = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(deadline=None)
@given(st.data())
def test_chain_sums_and_multiples_need_no_reduction(data):
    # sums and multiples of canonical terms are built without reducing the
    # keys again; they must agree with reducing the raw terms they came from
    for cls, space, keys in CHAIN_TYPES:
        raw = st.dictionaries(keys, COEFFS, max_size=6)
        r1, r2, c = data.draw(raw), data.draw(raw), data.draw(COEFFS)
        x, y = cls(*space, r1), cls(*space, r2)
        assert cls(*space, x.terms).terms == x.terms
        merged = dict(r1)
        for k, v in r2.items():
            merged[k] = merged.get(k, 0) + v
        assert x + y == cls(*space, merged)
        assert x.scale(c) == cls(*space, {k: v * c for k, v in r1.items()})
