import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellqec import gf2
from cellqec.gf2 import Gf2Matrix, Gf2Vector


def vec(*coeffs):
    return Gf2Vector.from_list(coeffs)


class TestVector:
    def test_basic(self):
        v = vec(1, 0, 1, 1)
        assert v.weight == 3
        assert v.support() == (0, 2, 3)
        assert v.to_list() == [1, 0, 1, 1]
        assert v[1] == 0 and v[3] == 1

    def test_xor_and_dot(self):
        a, b = vec(1, 1, 0), vec(0, 1, 1)
        assert (a ^ b).to_list() == [1, 0, 1]
        assert a.dot(b) == 1
        assert a.dot(a) == 0  # even self-overlap counts mod 2
        assert vec(1, 0, 1).dot(vec(1, 0, 1)) == 0

    def test_length_mismatch(self):
        with pytest.raises(gf2.LengthMismatch):
            vec(1, 0) ^ vec(1, 0, 0)

    def test_sort_key_prefers_early_support(self):
        assert vec(1, 0, 0).sort_key() < vec(0, 1, 0).sort_key()


class TestMatrix:
    def test_rank_identity(self):
        assert gf2.rank(Gf2Matrix.identity(5)) == 5

    def test_rank_dependent_rows(self):
        m = Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert gf2.rank(m) == 2

    def test_mul_vector(self):
        m = Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
        assert m.mul_vector(vec(1, 1, 1)).to_list() == [0, 0]
        assert m.mul_vector(vec(1, 0, 0)).to_list() == [1, 0]

    def test_transpose_roundtrip(self):
        m = Gf2Matrix.from_rows([[1, 0, 1], [1, 1, 0]])
        assert m.transpose().transpose() == m

    def test_forward_tracks_combinations(self):
        rows = [0b011, 0b110, 0b101, 0b100]
        pivots, kernel = gf2._forward(rows)
        assert [(bit, row) for bit, row, _ in pivots] == [
            (0b001, 0b011), (0b010, 0b110), (0b100, 0b100)]
        assert [combo for _, _, combo in pivots] == [0b0001, 0b0010, 0b1000]
        assert kernel == [0b0111]


class TestSolvers:
    def test_kernel_of_identity_is_empty(self):
        assert gf2.kernel_basis(Gf2Matrix.identity(4)) == []

    def test_kernel_dimension(self):
        m = Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        ker = gf2.kernel_basis(m)
        assert len(ker) == 1
        assert ker[0].to_list() == [1, 1, 1]

    def test_solve_consistent(self):
        m = Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
        rhs = vec(1, 0)
        x = gf2.solve(m, rhs)
        assert x is not None
        assert m.mul_vector(x) == rhs

    def test_solve_inconsistent(self):
        m = Gf2Matrix.from_rows([[1, 1, 0], [1, 1, 0]])
        assert gf2.solve(m, vec(1, 0)) is None

    def test_in_span(self):
        basis = [vec(1, 1, 0), vec(0, 1, 1)]
        assert gf2.in_span(basis, vec(1, 0, 1))
        assert not gf2.in_span(basis, vec(1, 0, 0))

    def test_rowspace_equal(self):
        a = Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
        b = Gf2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert gf2.rowspace_equal(a, b)
        c = Gf2Matrix.from_rows([[1, 0, 0], [0, 1, 1]])
        assert not gf2.rowspace_equal(a, c)


class TestCosetSearch:
    def test_trivial_subspace(self):
        w, witness = gf2.min_weight_in_coset([], vec(1, 1, 0))
        assert (w, witness.to_list()) == (2, [1, 1, 0])

    def test_finds_minimum(self):
        basis = [vec(1, 1, 1, 1)]
        w, witness = gf2.min_weight_in_coset(basis, vec(1, 1, 1, 0))
        assert w == 1
        assert witness.to_list() == [0, 0, 0, 1]

    def test_tie_break_earliest_support(self):
        # coset {e0+e1 shifts}: both weight-1 candidates exist; the
        # earliest-support one wins
        basis = [vec(1, 1)]
        w, witness = gf2.min_weight_in_coset(basis, vec(0, 1))
        assert (w, witness.support()) == (1, (0,))

    def test_budget(self):
        basis = [Gf2Vector.from_support(40, [i]) for i in range(40)]
        with pytest.raises(gf2.SearchBudgetExceeded):
            gf2.min_weight_in_coset(basis, Gf2Vector.zero(40), budget=1 << 10)


bitvectors = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.lists(st.integers(0, (1 << n) - 1),
                                 min_size=1, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(bitvectors)
def test_rank_bounded_by_shape(data):
    n, rows = data
    m = Gf2Matrix(len(rows), n, tuple(rows))
    assert 0 <= gf2.rank(m) <= min(len(rows), n)


@settings(max_examples=60, deadline=None)
@given(bitvectors)
def test_rank_nullity(data):
    n, rows = data
    m = Gf2Matrix(len(rows), n, tuple(rows))
    assert gf2.rank(m) + len(gf2.kernel_basis(m)) == n


@settings(max_examples=60, deadline=None)
@given(bitvectors)
def test_kernel_vectors_annihilate(data):
    n, rows = data
    m = Gf2Matrix(len(rows), n, tuple(rows))
    for v in gf2.kernel_basis(m):
        assert m.mul_vector(v).is_zero()


@settings(max_examples=60, deadline=None)
@given(bitvectors, st.integers(0, 255))
def test_solve_agrees_with_image(data, raw):
    n, rows = data
    m = Gf2Matrix(len(rows), n, tuple(rows))
    rhs = Gf2Vector(len(rows), raw & ((1 << len(rows)) - 1))
    x = gf2.solve(m, rhs)
    if x is None:
        # rhs outside the column space: no combination of columns hits it
        t = m.transpose()
        assert not gf2.in_span(t.row_vectors(), rhs)
    else:
        assert m.mul_vector(x) == rhs


@settings(max_examples=60, deadline=None)
@given(bitvectors, st.integers(0, 63))
def test_xor_rows_is_the_transposed_product(data, raw):
    n, rows = data
    m = Gf2Matrix(len(rows), n, tuple(rows))
    v = Gf2Vector(len(rows), raw & ((1 << len(rows)) - 1))
    assert gf2.xor_rows(m.row_bits, v.bits) == m.transpose().mul_vector(v).bits


def _combine(rows, combo):
    out = 0
    for i, r in enumerate(rows):
        if combo >> i & 1:
            out ^= r
    return out


@settings(max_examples=60, deadline=None)
@given(bitvectors, st.integers(0, 255))
def test_forward_elimination_invariants(data, raw):
    n, rows = data
    pivots, kernel = gf2._forward(rows)
    assert len(pivots) + len(kernel) == len(rows)
    for i, (bit, row, combo) in enumerate(pivots):
        assert bit == row & -row
        assert _combine(rows, combo) == row
        # no pivot row holds the pivot bit of an earlier one
        assert all(not row & earlier for earlier, _, _ in pivots[:i])
    for combo in kernel:
        assert combo and _combine(rows, combo) == 0
    # the remainder is zero exactly on the span, found by brute force
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    v = raw & ((1 << n) - 1)
    reduced = gf2._eliminate(rows, n)
    assert (gf2._remainder(reduced, v) == 0) == (v in span)


@settings(max_examples=40, deadline=None)
@given(bitvectors, st.integers(0, 255))
def test_coset_minimum_is_global(data, raw):
    n, rows = data
    basis = [Gf2Vector(n, r) for r in rows]
    offset = Gf2Vector(n, raw & ((1 << n) - 1))
    w, witness = gf2.min_weight_in_coset(basis, offset)
    assert gf2.in_span(basis, witness ^ offset)
    # brute force over the whole space confirms minimality
    span = {offset.bits}
    for b in basis:
        span |= {s ^ b.bits for s in span}
    assert w == min(s.bit_count() for s in span)
