"""Dense bit-packed linear algebra over GF(2).

Vectors and matrices store their entries as Python integers used as bit
sets (bit i = coefficient of coordinate i), so row operations are single
XORs regardless of length.

One forward elimination, ``_forward``, is under every rank, kernel,
solution, span test and echelon basis here; it tracks which input rows
each pivot row combines, and there is no back-substitution.

``min_weight_in_coset`` is an exhaustive Gray-code search, exponential
in the subspace dimension and capped by ``COSET_SEARCH_BUDGET``.  The
library does not use it: systoles and code distances go through the
parity-cover search in ``homology`` and decoding through the matching
decoder in ``decoder``.  The tests keep it as the independent oracle for
both.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

# Hard cap on the number of subspace combinations an exhaustive coset
# search may visit.  Exceeding it raises instead of truncating.
COSET_SEARCH_BUDGET = 1 << 28


class SearchBudgetExceeded(RuntimeError):
    """An exhaustive search would visit more combinations than allowed."""


class LengthMismatch(ValueError):
    """Vectors of different ambient dimension were combined."""


@dataclass(frozen=True)
class Gf2Vector:
    """Fixed-length vector over the two-element field."""

    n: int
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("bits out of range for vector length")

    @classmethod
    def zero(cls, n: int) -> "Gf2Vector":
        return cls(n, 0)

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "Gf2Vector":
        bits = 0
        for i in support:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range")
            bits |= 1 << i
        return cls(n, bits)

    @classmethod
    def from_list(cls, coeffs: Sequence[int]) -> "Gf2Vector":
        bits = 0
        for i, c in enumerate(coeffs):
            if c % 2:
                bits |= 1 << i
        return cls(len(coeffs), bits)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.bits >> i) & 1)

    def to_list(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.n)]

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.n != other.n:
            raise LengthMismatch(f"{self.n} != {other.n}")
        return Gf2Vector(self.n, self.bits ^ other.bits)

    def dot(self, other: "Gf2Vector") -> int:
        if self.n != other.n:
            raise LengthMismatch(f"{self.n} != {other.n}")
        return (self.bits & other.bits).bit_count() & 1

    def is_zero(self) -> bool:
        return self.bits == 0

    def sort_key(self) -> tuple:
        """Deterministic tie-break key: weight first, then earliest support."""
        return (self.weight, self.support())


@dataclass(frozen=True)
class Gf2Matrix:
    """Row-major bit-packed matrix over GF(2)."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.row_bits) != self.rows:
            raise ValueError("row count mismatch")
        if self.row_bits and (min(self.row_bits) < 0
                              or max(self.row_bits) >> self.cols):
            raise ValueError("row bits out of range for column count")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Gf2Matrix":
        if not rows:
            raise ValueError("cannot infer column count from empty row list")
        cols = len(rows[0])
        bits = tuple(Gf2Vector.from_list(r).bits for r in rows)
        return cls(len(rows), cols, bits)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def row(self, i: int) -> Gf2Vector:
        return Gf2Vector(self.cols, self.row_bits[i])

    def row_vectors(self) -> list[Gf2Vector]:
        return [Gf2Vector(self.cols, b) for b in self.row_bits]

    def to_lists(self) -> list[list[int]]:
        return [self.row(i).to_list() for i in range(self.rows)]

    def transpose(self) -> "Gf2Matrix":
        cols = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            while r:  # one step per set entry
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return Gf2Matrix(self.cols, self.rows, tuple(cols))

    def mul_vector(self, v: Gf2Vector) -> Gf2Vector:
        """Matrix-vector product M·v (v indexed by columns)."""
        if v.n != self.cols:
            raise LengthMismatch(f"{v.n} != {self.cols}")
        bits = 0
        for i, r in enumerate(self.row_bits):
            bits |= ((r & v.bits).bit_count() & 1) << i
        return Gf2Vector(self.rows, bits)


def xor_rows(rows: Sequence[int], bits: int) -> int:
    """The XOR of rows[i] over the set bits i of bits: M^T·v, for M the
    matrix of row bit sets rows and v the vector of bits."""
    out = 0
    while bits:  # one step per set bit
        low = bits & -bits
        out ^= rows[low.bit_length() - 1]
        bits ^= low
    return out


def _forward(rows: Iterable[int]) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Forward elimination of row bit sets: the library's one elimination.

    Each row is reduced, in input order, against the pivot rows found
    before it; a row that stays nonzero becomes a pivot row whose pivot
    is its lowest set bit.  Returns (pivots, kernel): pivots are
    (pivot bit, reduced row, combination) triples in input order, and
    kernel holds the combinations of the rows that reduced to zero.  Bit
    i of a combination stands for input row i.  No pivot row contains the
    pivot bit of an earlier one.
    """
    pivots: list[tuple[int, int, int]] = []
    kernel: list[int] = []
    for i, r in enumerate(rows):
        combo = 1 << i
        for bit, pr, pc in pivots:
            if r & bit:
                r ^= pr
                combo ^= pc
        if r:
            pivots.append((r & -r, r, combo))
        else:
            kernel.append(combo)
    return pivots, kernel


def _eliminate(rows: list[int], cols: int) -> list[int]:
    """The nonzero pivot rows of _forward(rows), in input order.

    cols is the row length; the elimination itself does not need it.
    """
    return [pr for _, pr, _ in _forward(rows)[0]]


def _remainder(reduced: Sequence[int], bits: int) -> int:
    """bits minus its component in the span of _eliminate's output rows.

    A row appended to reduced keeps it valid if it holds no pivot bit of
    the rows before it.
    """
    for pr in reduced:
        if bits & pr & -pr:
            bits ^= pr
    return bits


def rank(m: Gf2Matrix) -> int:
    """Dimension of the row space of m over GF(2)."""
    return len(_forward(m.row_bits)[0])


def kernel_basis(m: Gf2Matrix) -> list[Gf2Vector]:
    """Basis of the right null space {v : M·v = 0}."""
    return [Gf2Vector(m.cols, combo)
            for combo in _forward(m.transpose().row_bits)[1]]


def in_span(basis: Sequence[Gf2Vector], v: Gf2Vector) -> bool:
    """True iff v is a GF(2) linear combination of basis vectors."""
    for b in basis:
        if b.n != v.n:
            raise LengthMismatch(f"{b.n} != {v.n}")
    return _remainder(_eliminate([b.bits for b in basis], v.n), v.bits) == 0


def solve(m: Gf2Matrix, rhs: Gf2Vector) -> Gf2Vector | None:
    """One solution x of M·x = rhs, or None if inconsistent."""
    if rhs.n != m.rows:
        raise LengthMismatch(f"{rhs.n} != {m.rows}")
    r, x = rhs.bits, 0
    for bit, col, combo in _forward(m.transpose().row_bits)[0]:
        if r & bit:
            r ^= col
            x ^= combo
    if r:
        return None
    return Gf2Vector(m.cols, x)


def rowspace_equal(a: Gf2Matrix, b: Gf2Matrix) -> bool:
    """True iff the two matrices span the same row space."""
    if a.cols != b.cols:
        raise LengthMismatch(f"{a.cols} != {b.cols}")
    return rank(a) == rank(b) == len(_forward(a.row_bits + b.row_bits)[0])


def min_weight_in_coset(
    subspace_basis: Sequence[Gf2Vector],
    offset: Gf2Vector,
    budget: int = COSET_SEARCH_BUDGET,
) -> tuple[int, Gf2Vector]:
    """Minimum Hamming weight over the coset offset + span(subspace_basis).

    Enumerates the 2^dim subspace combinations in Gray-code order so each
    step is one XOR.  Returns (weight, witness); ties are broken by the
    earliest-support rule of Gf2Vector.sort_key.  Raises
    SearchBudgetExceeded rather than returning an approximate answer.
    """
    n = offset.n
    basis = _eliminate([b.bits for b in subspace_basis], n)
    for b in subspace_basis:
        if b.n != n:
            raise LengthMismatch(f"{b.n} != {n}")
    dim = len(basis)
    if 1 << dim > budget:
        raise SearchBudgetExceeded(
            f"coset search over 2^{dim} combinations exceeds budget {budget}")
    best_bits = offset.bits
    best_key = (best_bits.bit_count(), best_bits)
    cur = offset.bits
    for i in range(1, 1 << dim):
        cur ^= basis[(i & -i).bit_length() - 1]
        w = cur.bit_count()
        if w < best_key[0]:
            best_bits, best_key = cur, (w, cur)
        elif w == best_key[0]:
            v = Gf2Vector(n, cur)
            if v.sort_key() < Gf2Vector(n, best_bits).sort_key():
                best_bits, best_key = cur, (w, cur)
    witness = Gf2Vector(n, best_bits)
    return witness.weight, witness
