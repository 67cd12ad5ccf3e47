"""Two-qubit reduced-density-matrix ranks of the code projector.

The multiset of pair ranks is invariant under local unitaries composed
with qubit permutations, so differing rank histograms certify that two
codes are inequivalent.  Ranks are computed two independent ways: by
counting stabilizer-group elements supported inside the pair (each side
row-reduced once, then O(1) work per pair) and by a dense numerical
partial trace of the projector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .stabilizer import CssCode

DENSE_ORACLE_MAX_QUBITS = 14
SINGULAR_VALUE_THRESHOLD = 1e-9


@dataclass(frozen=True)
class RankProfile:
    n: int
    pair_ranks: dict  # (i, j) with i < j -> rank in {1, 2, 4}

    @property
    def rank2_pairs(self) -> list[tuple[int, int]]:
        return sorted(p for p, r in self.pair_ranks.items() if r == 2)

    @property
    def histogram(self) -> dict[int, int]:
        out = {1: 0, 2: 0, 4: 0}
        for r in self.pair_ranks.values():
            out[r] += 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "rank2_pairs": [list(p) for p in self.rank2_pairs],
            "histogram": {str(k): v for k, v in self.histogram.items()},
        }


def _qubit_remainders(code: CssCode) -> list[tuple[int, int]]:
    """(r_x, r_z) per qubit q: e_q reduced by each stabilizer row space.

    Each side is reduced once by gf2._eliminate.  The reduction is linear
    with the row space S as kernel, so the part of S supported on qubits
    i and j has dimension 2 - rank{r_i, r_j}.
    """
    sides = []
    for m in (code.x_stabilizers, code.z_stabilizers):
        echelon = gf2._eliminate(list(m.row_bits), m.cols)
        sides.append([gf2._remainder(echelon, 1 << q) for q in range(code.n)])
    return list(zip(*sides))


def _pair_rank(rem: list[tuple[int, int]], i: int, j: int) -> int:
    """4 / |S_pair| from the two qubits' remainders on both sides."""
    dim = 0
    for a, b in zip(rem[i], rem[j]):
        dim += 2 - (a != 0) - (b != 0 and b != a)
    if dim > 2:
        raise AssertionError("pair-supported stabilizer subgroup too large")
    return 4 >> dim


def pair_rank_stabilizer(code: CssCode, pair: tuple[int, int]) -> int:
    """Rank of the reduced state on the pair, by stabilizer counting.

    rank = 4 / |S_pair| where S_pair is the set of stabilizer-group
    elements (group closure, not just listed generators) supported
    entirely within the pair.
    """
    i, j = pair
    if i == j or not (0 <= i < code.n and 0 <= j < code.n):
        raise ValueError("pair must be two distinct qubits")
    return _pair_rank(_qubit_remainders(code), i, j)


def _popcount_parity(values: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(values) & 1).astype(np.int8)


def _dense_projector(code: CssCode) -> np.ndarray:
    """The code projector as a dense 2^n x 2^n array.

    Built as the product of (1 + g)/2 over an independent generator set,
    using the permutation/sign action of each CSS generator on basis
    states rather than any GF(2) shortcut.
    """
    n = code.n
    if n > DENSE_ORACLE_MAX_QUBITS:
        raise ValueError(f"dense oracle limited to n <= {DENSE_ORACLE_MAX_QUBITS}")
    dim = 1 << n
    proj = np.eye(dim, dtype=np.float64)
    idx = np.arange(dim, dtype=np.uint64)
    gens = []
    for kind, m in (("x", code.x_stabilizers), ("z", code.z_stabilizers)):
        gens += [(kind, b) for b in gf2._eliminate(list(m.row_bits), n)]
    for kind, bits in gens:
        if kind == "x":
            perm = (idx ^ np.uint64(bits)).astype(np.int64)
            proj = 0.5 * (proj + proj[perm, :])
        else:
            signs = 1.0 - 2.0 * _popcount_parity(idx & np.uint64(bits))
            proj = 0.5 * (proj + signs[:, None] * proj)
    return proj


def pair_rank_dense(code: CssCode, pair: tuple[int, int]) -> int:
    """Numerical rank of the 4x4 reduced state on the pair.

    Independent oracle for pair_rank_stabilizer: materializes the
    projector, normalizes it to trace 1, partial-traces all qubits
    except the pair and counts singular values above the threshold.
    """
    i, j = pair
    if i == j or not (0 <= i < code.n and 0 <= j < code.n):
        raise ValueError("pair must be two distinct qubits")
    n = code.n
    proj = _dense_projector(code)
    proj = proj / np.trace(proj)
    t = proj.reshape((2,) * (2 * n))
    # axis q of the bra/ket corresponds to qubit n-1-q in bit order; use
    # tensor axes directly (qubit q -> axis q when reshaping bit-major)
    a_i, a_j = n - 1 - i, n - 1 - j
    keep = [a_i, a_j]
    rest = [a for a in range(n) if a not in keep]
    order = keep + rest + [n + a for a in keep] + [n + a for a in rest]
    t = np.transpose(t, order)
    m = 1 << len(rest)
    t = t.reshape(4, m, 4, m)
    rho = np.einsum("arbr->ab", t)
    svals = np.linalg.svd(rho, compute_uv=False)
    return int(np.sum(svals > SINGULAR_VALUE_THRESHOLD))


def rank_profile(code: CssCode) -> RankProfile:
    """Full pair-rank profile via the stabilizer method."""
    rem = _qubit_remainders(code)
    return RankProfile(code.n, {(i, j): _pair_rank(rem, i, j)
                                for i in range(code.n)
                                for j in range(i + 1, code.n)})


@dataclass(frozen=True)
class InequivalenceCertificate:
    histogram_a: dict[int, int]
    histogram_b: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "histogram_a": {str(k): v for k, v in self.histogram_a.items()},
            "histogram_b": {str(k): v for k, v in self.histogram_b.items()},
        }


def certify_inequivalent(a: CssCode, b: CssCode) -> InequivalenceCertificate | None:
    """A certificate if the rank histograms differ; None is inconclusive.

    Differing histograms prove inequivalence under local unitaries and
    qubit permutations; agreement proves nothing.
    """
    if a.n != b.n:
        raise ValueError("codes act on different qubit counts")
    ha, hb = rank_profile(a).histogram, rank_profile(b).histogram
    if ha != hb:
        return InequivalenceCertificate(ha, hb)
    return None
