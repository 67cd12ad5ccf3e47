"""Two-qubit reduced-density-matrix ranks of the code projector.

The multiset of pair ranks is invariant under local unitaries composed
with qubit permutations, so differing rank histograms certify that two
codes are inequivalent.  Ranks are computed by counting stabilizer-group
elements supported inside the pair: each side is row-reduced once, then
every pair costs O(1).  The tests keep a dense numerical partial trace of
the projector (``tests/dense_oracle.py``) as an independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .stabilizer import CssCode


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
