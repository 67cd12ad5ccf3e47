"""Independent oracle for the census: rooted-map counts.

A map with a root flag is a rooted map, and each isomorphism class of
maps with e edges and automorphism group Aut gives 4e / |Aut| rooted
maps, one per orbit of its 4e flags.  Summed over the classes that the
census enumerates, this must equal closed-form counts that need no
search at all:

- all closed surfaces: T_n = ((4n-1)!!)^2 (2n-1)!! 2^n counts the flag
  triples on 4n labelled flags (s2 and s1 any fixed-point-free
  involutions, s0 one that commutes with s2 and with s0 s2 fixed-point
  free); the connected ones c_n follow from
  T_n = sum_{k=1..n} C(4n-1, 4k-1) c_k T_{n-k}, and rooted maps number
  c_n / (4n-1)!;
- orientable surfaces: the same with T_n = (2n)! (2n-1)!!,
  C(2n-1, 2k-1) and c_n / (2n-1)!, on the 2n darts of n edges;
- the sphere: Tutte ("A census of planar maps", 1963),
  2 3^n (2n)! / (n! (n+2)!).

|Aut| is the number of start flags whose BFS code equals the minimum:
an automorphism of a connected map is fixed by one flag's image, and
the start key is invariant, so the starts of minimal key are enough.

Run as a script, it prints the counts for one edge count, e.g.
``python tests/rooted_oracle.py 6``, which takes some seconds, and
exits 1 if any of them differs from its closed form.
"""
from __future__ import annotations

import sys
from math import comb, factorial

from cellqec import surface
from cellqec.search import EnumerationConstraints, enumerate_cellulations


def _double_factorial(n: int) -> int:
    out = 1
    for k in range(n, 1, -2):
        out *= k
    return out


def _connected(total, block, n: int) -> int:
    """c_n from the labelled totals: total(k) structures on block(k)
    labelled points, the component of the lowest point taking block(k)
    of the block(n) points."""
    c = [0] * (n + 1)
    for m in range(1, n + 1):
        c[m] = total(m) - sum(comb(block(m) - 1, block(k) - 1) * c[k]
                              * total(m - k) for k in range(1, m))
    return c[n]


def rooted_all(n: int) -> int:
    """Rooted maps with n edges on all closed surfaces."""
    def total(m):
        return (_double_factorial(4 * m - 1) ** 2
                * _double_factorial(2 * m - 1) * 2 ** m)
    return _connected(total, lambda m: 4 * m, n) // factorial(4 * n - 1)


def rooted_orientable(n: int) -> int:
    """Rooted maps with n edges on orientable closed surfaces."""
    def total(m):
        return factorial(2 * m) * _double_factorial(2 * m - 1)
    return _connected(total, lambda m: 2 * m, n) // factorial(2 * n - 1)


def rooted_planar(n: int) -> int:
    """Rooted maps with n edges on the sphere (Tutte)."""
    return (2 * 3 ** n * factorial(2 * n)
            // (factorial(n) * factorial(n + 2)))


def automorphisms(flags: surface.FlagMap) -> int:
    """|Aut| of a connected flag map."""
    codes = [flags._bfs_code(f) for f in flags._start_flags()]
    return codes.count(min(codes))


def rooted_counts(edges: int, chi: int | None = None) -> dict[str, int]:
    """Rooted maps summed over the census classes with edges edges (at
    Euler characteristic chi if set): all of them, the orientable ones
    and the sphere's."""
    counts = {"all": 0, "orientable": 0, "sphere": 0}
    for c in enumerate_cellulations(EnumerationConstraints(edges, chi=chi)):
        flags = surface.build_flags(c)
        rooted, rem = divmod(flags.n, automorphisms(flags))
        assert rem == 0, "|Aut| must divide the flag count"
        counts["all"] += rooted
        if flags.components()[1]:
            counts["orientable"] += rooted
            if c.euler_characteristic() == 2:
                counts["sphere"] += rooted
    return counts


if __name__ == "__main__":
    e = int(sys.argv[1])
    counts = rooted_counts(e)
    want = {"all": rooted_all(e), "orientable": rooted_orientable(e),
            "sphere": rooted_planar(e)}
    print(e, counts, "want", *want.values())
    if counts != want:
        print(f"rooted counts at {e} edges differ from the closed forms",
              file=sys.stderr)
        sys.exit(1)
