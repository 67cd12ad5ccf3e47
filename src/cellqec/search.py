"""Exhaustive enumeration of small closed-surface cellulations.

A cellulation of a closed surface is the same data as a signed rotation
system: a cyclic order of edge-ends around each vertex plus a twist bit
per edge.  The enumerator fixes a vertex degree sequence, lays the edge
ends out as slots and depth-first searches over perfect matchings of the
slots with twist bits, tracing faces incrementally; a face is checked
for being a bigon from the matches when it closes.  All search state
lives in small flat lists.  The matches and the touched vertices are
written in place and reset after each child; the rest is copied per
node, only where a match changes it, so nothing is undone.  With a
face target, every complete scheme has it.  Orientability is not
tracked: where the target fixes it and an even or unset Euler
characteristic leaves it open (a connected closed surface of odd chi is
never orientable), the census driver reads it off each leaf's flag map
and drops a leaf of the wrong kind before its class is counted.  The
census driver runs the search over every degree sequence, keeps one
cellulation per class and applies the filters; it returns the survivors
with the scheme and class counts that census_report prints.
Isomorphism rejection is orderly (McKay, "Isomorph-free exhaustive
generation", 1998, as in the plantri generators): the first leaf of a
class in DFS order opens it.  ``_first_of_class`` walks the relabellings
that R1-R3 allow node by node inside the DFS and cuts a child once one
gives a smaller word, so every leaf the reduced search reaches opens a
class: 2,678 at e=6 and 30,347 at e=7, against 8,822 and 119,046 when
the test ran on complete leaves.  No canonical form is computed and no
set of classes is kept.  Without reduce_symmetry each leaf is keyed by
the canonical form of its flag system (``FlagMap.canonical_form``)
instead, an independent oracle.

Symmetry reductions used by the matching search:

R1  Vertices of equal degree are interchangeable and each vertex's
    rotation may be cyclically shifted, so a previously untouched vertex
    is entered only through the lowest-indexed untouched vertex of its
    degree class, at its slot 0.  Pure relabelling, always sound.  The
    touched vertices of a class thus form a prefix of it: an untouched
    vertex is offered iff it leads its class or follows a touched one.
R2  The edge that first reaches an untouched vertex is generated
    untwisted (loops and cycle-closing edges get both twist values).
    Justified by local orientation flips.
R3  Root rank.  Vertex 0 has the maximum degree d0 and slot 0 is the
    root.  An edge end at a degree-d0 vertex ranks by the first match
    (0, b) it would give as the root: a loop whose ends sit delta apart
    ranks min(delta, d0 - delta) (the root may turn either way), an
    edge to a vertex of degree d ranks 2 d0 - d.  A loop root with
    2b > d0 is pruned, and so is every later match with an end of
    lower rank than the root's.  Leaves come out in lexicographic order
    of their matches and every root choice of a class is reached, so
    the first leaf of each class has its lowest root rank and is never
    pruned; pruning cuts whole subtrees, so the classes, their order
    and each representative (built from the first leaf) are unchanged.
    The rank of every slot pair is tabled once per degree sequence.
R2 and R3 are switched by reduce_symmetry, on by default; with it off
the search keeps only R1 and serves as the test suite's oracle.

The face count prunes by two rules, each of which cuts only branches
with no leaf below them:

- Too many faces: more than f_target, or f_target with slots left (the
  last match always closes a face).
- Boundary circles, on a child's counts after its joins: the free slots
  lie on the boundary circles of the partial surface, the cycles that
  alternate a path of the face tracing with the two flags of a free
  slot.  Each of the r / 2 matches left (r = free) splits a circle
  (+1), keeps the count or merges two circles (-1), and a circle with
  no free slot left is a closed face, so the search ends with at most
  faces + C + r / 2 - 2 M faces, with C the circles now and M the
  merges to come.  Every union is a merge, u of them (v - 1 minus
  those made).  A single, a slot x alone on its circle (its path runs
  from 2x to 2x + 1), is untouched until x is matched, and then onto
  another circle, so each merge uses up at most two of the s singles:
  M >= max(u, ceil(s / 2)).  Every other circle holds at least two
  slots, so C <= s + (r - s) / 2.  A child is cut when 2 u > r or
  2 (f_target - faces) > 2 r + s - 4 M.  When the exact C could cut
  where that bound on it does not (only if the slack is below
  r - s - 2), a walk over the free slots counts the circles.  s is kept
  in O(1): a and b leave the singles if they were ones, and a join
  whose far ends are the two flags of one slot makes a new one; the
  root's singles are its degree-1 vertices.  As C <= (r + s) / 2 <= r
  and M >= u, the rule implies faces + free - 2 u >= f_target: the
  first join of each union closes no face, and where few faces are to
  spare a child whose match closes none is cut.

Every count either rule reads follows from the parent's lists and the
ends the two joins see, so both rules, the bigon bound and the orderly
test run before a child's lists are copied; only the exact circle walk
reads the joined face tracing.

A match that uses up a component's last free slots while others remain
is rejected, like a match that R3 prunes, once per candidate slot and
before either twist is tried: the component can never be joined to the
rest.

Duality halves the work when the Euler characteristic pins the face
count: each side is searched once, as its dual when it has more faces
than vertices, and each new class is read as itself, its dual or both.

Before a new class becomes a Cellulation, it is tested for a short
orientation-reversing cycle: a twisted loop (length 1) or two edges
with the same ends and different twists (length 2), in the vertex graph
against min_primal_systole and in the face graph against
min_dual_systole.  Such a cycle pairs oddly with the first
Stiefel-Whitney class, so it is essential on every surface and the
homology systole filter would reject the class; the test drops only
those classes, and the filter still decides every class it keeps.  On
RP2 every essential cycle reverses orientation, so for bounds up to 3
the test is exact there, and the census builds no Cellulation for a
class it rejects.  The search hands each leaf's shortest such cycle in
its own graph, capped at 3, to visit, read off the matches: relabelling
a vertex's orientation flips the twists of both edges of a pair, so the
raw twists decide.  That graph is a target's vertex graph, or its face
graph when the target is read as the dual, and a class whose bound it
breaks gets no flag map at all.  The other graph is tested on the flag
dual (``_short_reversing_cycle``), with vertex ids and local
orientations from one labelling of its vertex cells (``FlagMap._cells``).

Vertex identification and edge slides are both moves on the flag map:
pinching a face at two corners at different vertices swaps the s1
partners of the corners' tail flags, and a slide resews s1 at three
corners.  s0 and s2 never change, so ``identification_reaches`` walks
flag maps alone, and a Cellulation is built only for a result that is
returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from . import homology, invariants, stabilizer, surface
from .surface import Cellulation, CellulationError, FlagMap


class EnumerationBudgetError(RuntimeError):
    """The requested edge count exceeds the enumeration budget."""


MAX_EDGE_COUNT = 10


@dataclass(frozen=True)
class EnumerationConstraints:
    """Filters for the cellulation census.

    chi/orientable describe the target surface (None = unconstrained).
    chi fixes the face count the search prunes on; orientable is tested
    on each complete cellulation, except with odd chi, where no
    orientable one exists and orientable=True is rejected.  Systole
    bounds of 1 are vacuous.  bigon_faces and valence2_vertices demand
    exact counts when set.
    """
    edge_count: int
    chi: int | None = None
    orientable: bool | None = None
    min_primal_systole: int = 1
    min_dual_systole: int = 1
    vertex_count: int | None = None
    bigon_faces: int | None = None
    valence2_vertices: int | None = None

    def __post_init__(self):
        if self.edge_count < 1:
            raise ValueError("edge_count must be at least 1")
        if self.min_primal_systole < 1 or self.min_dual_systole < 1:
            raise ValueError("systole bounds must be at least 1")
        for name in ("vertex_count", "bigon_faces", "valence2_vertices"):
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.orientable and (self.chi or 0) % 2:
            raise ValueError("an orientable closed surface has even chi")

    @classmethod
    def rp2(cls, edge_count: int, **kw) -> "EnumerationConstraints":
        return cls(edge_count=edge_count, chi=1, orientable=False, **kw)


# ---------------------------------------------------------------------------
# core matching search over one degree sequence
# ---------------------------------------------------------------------------

def _partitions(total: int, parts: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing partitions of total into exactly `parts` parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    lo = -(-total // parts)  # ceil: keep the sequence feasible
    for first in range(min(cap, total - (parts - 1)), lo - 1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _scheme_search(degrees: tuple[int, ...],
                   visit: Callable[[list[int], list[int]], None],
                   f_target: int | None,
                   reduce_symmetry: bool,
                   max_bigons: int | None = None) -> int:
    """DFS over signed matchings of the slot structure given by degrees.

    Returns the number of complete schemes reached (the matching is
    guaranteed connected), every one of which is accepted.  f_target,
    when set, prunes branches that already have too many faces or can no
    longer close enough of them, counting the boundary circles the free
    slots lie on and the merges of them that the unions still needed
    and the lone slots force, so every complete scheme has exactly
    f_target faces.  Orientability is not tracked.
    reduce_symmetry switches on R2, R3 and the orderly test of
    _first_of_class, which cuts every scheme but the first of its class;
    R1 is always on.  visit(s0, s1, girth) is called on the flag
    involutions of every accepted scheme, in lexicographic order of the
    matches, with the length of the shortest orientation-reversing cycle
    of the scheme's vertex graph capped at 3 (a twisted loop 1, two
    edges with the same ends and different twists 2, else 3).
    """
    v = len(degrees)
    nslots = sum(degrees)
    starts = [sum(degrees[:i]) for i in range(v)]
    slot_vertex = [i for i, d in enumerate(degrees) for _ in range(d)]
    d0 = degrees[0] if v else 0
    nflags = 2 * nslots

    # R3 as a table: rank[a][b] is the rank of the match a, b as the root
    # edge, -1 for a loop root that the reversed rotation roots lower,
    # and 2 d0, above every rank, when neither end is at a degree-d0
    # vertex; a match ranked below the root edge is pruned.  All 0, so
    # nothing is pruned, without reduce_symmetry
    rank = [[0] * nslots for _ in range(nslots)]
    if reduce_symmetry:
        for a in range(nslots):
            for b in range(a + 1, nslots):
                da, db = degrees[slot_vertex[a]], degrees[slot_vertex[b]]
                if da != d0 and db != d0:
                    rank[a][b] = 2 * d0
                elif slot_vertex[a] != slot_vertex[b]:
                    rank[a][b] = 3 * d0 - da - db  # 2 d0 - d, far end's d
                else:  # a loop whose ends sit b - a apart
                    r = min(b - a, d0 - b + a)
                    rank[a][b] = -1 if a == 0 and r < b else r

    # corner involution s1 is fixed by the rotation layout; the side
    # involution s2 is (2s <-> 2s+1) implicitly
    s1 = [0] * nflags
    for i, d in enumerate(degrees):
        for j in range(d):
            a = starts[i] + j
            b = starts[i] + (j + 1) % d
            s1[2 * a + 1] = 2 * b
            s1[2 * b] = 2 * a + 1

    # lead[i]: vertex i heads its degree class (R1's prefix rule)
    lead = [i == 0 or degrees[i] != degrees[i - 1] for i in range(v)]

    # match[a] = 2 * b + t for the ribbon on slots a, b with twist t, -1
    # while a is free; a full match is s0 with s0[2a] = match[a] ^ 1 and
    # s0[2a + 1] = match[a].  match and touched are written in place and
    # reset after each child; the other state is handed down the DFS as
    # per-node lists that apply copies where a match changes them, so a
    # node's lists never change under it and nothing is undone
    match = [-1] * nslots
    touched = [False] * v
    leaves = 0

    def apply(a: int, b: int, t: int, ra: int, rb: int, left: int,
              walks: list, count: list, end: list, comp: list, free: list):
        """Match slots a, b with twist t: the child's (walks, count, end,
        comp, free), its orderly walks and fresh copies of the lists the
        match changes, or None when the branch is pruned.  ra and rb are
        the roots of both ends' components and left the free slots of the
        component the match leaves.  Every cut but the exact circle count
        runs before a list is copied."""
        # the ribbon's two s0 flag edges (p, q) and (p2, q2): the first
        # closes a face iff end[p] == q, else it joins two paths, after
        # which the second, whose ends are then fp and fq, closes one iff
        # they meet.  A join that closes a face has the ends p and q (or
        # p2 and q2), each the other's end already, so its swap below
        # changes nothing and it makes no single.  a and b leave the
        # singles; any other join whose far ends are the two flags of one
        # slot makes it a single (never a or b)
        if t == 0:
            p, q, p2, q2 = 2 * a, 2 * b + 1, 2 * a + 1, 2 * b
        else:
            p, q, p2, q2 = 2 * a, 2 * b, 2 * a + 1, 2 * b + 1
        ep, eq = end[p], end[q]
        closes = ep == q
        fp = eq if p2 == ep else ep if p2 == eq else end[p2]
        fq = eq if q2 == ep else ep if q2 == eq else end[q2]
        closes2 = fp == q2
        r, faces, bigons, u, s = count
        r -= 2
        faces += closes + closes2
        u -= ra != rb
        s += ((ep ^ eq == 1) + (fp ^ fq == 1)
              - (end[2 * a] == 2 * a + 1) - (end[2 * b] == 2 * b + 1))
        if f_target is not None:
            if faces > f_target or (faces == f_target and r):
                return None
            # the boundary-circle bound, doubled: at least m merges are
            # left, and at most s + (r - s) / 2 circles, which a walk
            # counts exactly below, only where the exact count could cut
            m = u if 2 * u >= s else (s + 1) >> 1
            slack = 2 * r + s - 4 * m - 2 * (f_target - faces)
            if 2 * u > r or slack < 0:
                return None
        match[a] = 2 * b + t
        match[b] = 2 * a + t
        if max_bigons is not None:
            # a closed face p, q, s1[q], x = s1[p] is a bigon iff x's s0
            # partner is s1[q]; x == q is a face of size 1
            x = s1[p]
            if closes and x != q and match[x >> 1] ^ (x & 1) ^ 1 == s1[q]:
                bigons += 1
            x = s1[p2]
            if closes2 and x != q2 and match[x >> 1] ^ (x & 1) ^ 1 == s1[q2]:
                bigons += 1
            if bigons > max_bigons:
                return None
        if reduce_symmetry:
            walks = extend_walks(walks, a, b)
            if walks is None:
                return None
        if not (closes and closes2):
            end = end[:]
            end[ep], end[eq] = eq, ep
            end[fp], end[fq] = fq, fp
        if (f_target is not None and slack < r - s - 2
                and slack < r + s - 2 * circles(a, end)):
            return None
        if ra > rb:  # the lower root stays
            ra, rb = rb, ra
        free = free[:]
        free[ra] = left
        if ra != rb:
            comp = [ra if x == rb else x for x in comp]
        return walks, [r, faces, bigons, u, s], end, comp, free

    def circles(a: int, end: list) -> int:
        """The boundary circles through the free slots, all above a:
        the cycles that alternate end and the two flags of a slot."""
        n = 0
        seen = [False] * nslots
        for x in range(a + 1, nslots):
            if match[x] < 0 and not seen[x]:
                n += 1
                g = 2 * x
                while True:  # g: the flag the circle leaves a slot by
                    h = end[g]
                    seen[h >> 1] = True
                    g = h ^ 1
                    if g == 2 * x:
                        break
        return n

    def emit() -> None:
        # apply's face bounds leave exactly f_target faces at a leaf
        nonlocal leaves
        leaves += 1
        # the shortest orientation-reversing cycle of the vertex graph,
        # capped at 3: a twisted loop, or two edges with the same ends and
        # different twists (flipping a vertex's local orientation flips
        # the twists of both, so their difference does not depend on it)
        girth = 3
        twist = {}
        for a, m in enumerate(match):
            b = m >> 1
            if b > a:
                u, w = slot_vertex[a], slot_vertex[b]
                if u == w:
                    if m & 1:
                        girth = 1
                        break
                elif twist.setdefault(u * v + w, m & 1) != m & 1:
                    girth = 2
        s0 = match * 2
        s0[::2] = [m ^ 1 for m in match]
        s0[1::2] = match
        visit(s0, s1, girth)

    # the orderly test: a child that a live walk cuts is not searched
    if reduce_symmetry and v:
        seeded, extend_walks = _first_of_class(degrees, match)

    def rec_search(hint: int, walks: list, count: list, end: list,
                   comp: list, free: list) -> None:
        """Search below the node whose state is count (free slots, faces,
        bigons, counted only under max_bigons, unions still needed,
        singles), end (face tracing: paths alternating fixed s1 edges and
        matched s0 edges, each endpoint mapped to the opposite one), comp
        (comp[x] is the root, the lowest vertex, of x's component; a union
        relabels the members of the higher root) and free (the free slots
        of each root's component)."""
        if count[0] == 0:
            emit()
            return
        a = hint
        while match[a] >= 0:
            a += 1
        va = slot_vertex[a]
        # a seed va is the lowest untouched vertex (every slot below a
        # is matched); it is marked before the loop, as vb - 1 can be va
        seed = not touched[va]
        if seed:
            if va and reduce_symmetry:
                walks = walks + seeded(va, touched)
            touched[va] = True
        # the tests that do not depend on the twist run once per b
        ranks = rank[a]
        floor = rank[0][match[0] >> 1] if a else 0  # the root edge's rank
        ra = comp[va]
        fa = free[ra]
        last = count[0] == 2
        for b in range(a + 1, nslots):
            if match[b] >= 0 or ranks[b] < floor:
                continue
            vb = slot_vertex[b]
            fresh = not touched[vb]
            if fresh and (b != starts[vb]
                          or not (lead[vb] or touched[vb - 1])):
                continue
            rb = comp[vb]
            left = fa - 2 if ra == rb else fa + free[rb] - 2
            if left == 0 and not last:
                continue  # a closed component with slots left over
            touched[vb] = True
            for t in (0,) if fresh and reduce_symmetry else (0, 1):
                state = apply(a, b, t, ra, rb, left, walks, count, end,
                              comp, free)
                if state is not None:
                    rec_search(a + 1, *state)
                match[a] = match[b] = -1
            touched[vb] = not fresh  # unmarked if this node marked it
        touched[va] = not seed

    if v and nslots % 2 == 0 and (f_target is None or f_target >= 1):
        rec_search(0, [], [nslots, 0, 0, v - 1, degrees.count(1)],
                   list(s1), list(range(v)), list(degrees))
    del rec_search  # it refers to itself; free the search state now
    return leaves


def _first_of_class(degrees: tuple[int, ...],
                    match: list[int]) -> tuple[Callable, Callable]:
    """The orderly test inside the reduced _scheme_search over degrees:
    (seeded, extend) over the search's live match list.

    Leaves come in lexicographic order of their word, match[a] over the
    lower ends a, and every relabelling that R1-R3 allow is reached, so a
    leaf is the first of its class iff no allowed relabelling has a
    smaller word.  A walk follows one along the word; while the words
    agree they share the lowest free slot.  It starts at a root of the R3
    rank of the root edge: an edge to a vertex of the same far-end degree,
    either way round, or a loop b0 slots long in the direction taken.  A
    vertex it reaches first takes the next index of its degree class, slot
    0 at the arriving end, untwisted; at a seed, a lowest free slot on an
    untouched vertex, it branches over the untouched vertices of that
    degree, base slot and orientation.  The leaf's own root gives the leaf
    back up to its first seed, so seeded(j, touched) returns only the
    walks it branches into at the seed j.

    extend(walks, a, b) runs after the search matched its lowest free slot
    a to b.  It resumes the walks that wait on a or b and starts those
    rooted at a or b.  A walk that finds a smaller value cuts the child
    (None), one that finds a larger value is dropped, and one that needs a
    free slot waits on it: the next lower end, or the image of a word slot.
    A walk is (word slot, slot waited on, enc, inv): enc[x] = 2 x' + o
    puts old slot x at new slot x' with orientation o, inv[x'] = x, -1
    where unplaced.  They are copied, never changed, so backtracking needs
    no undo.
    """
    v, d0, nslots = len(degrees), degrees[0], sum(degrees)
    starts = [sum(degrees[:i]) for i in range(v)]
    lead = [degrees.index(d) for d in degrees]  # the first of its class
    vertex = [i for i, d in enumerate(degrees) for _ in range(d)]
    # orbit[s][o]: the slots of s's vertex from s on, along (o = 0) or
    # against (o = 1) its rotation
    orbit = [tuple(tuple(starts[x] + (s - starts[x] + r * i) % degrees[x]
                         for i in range(degrees[x])) for r in (1, -1))
             for s, x in enumerate(vertex)]
    unplaced = [-1] * nslots

    def placed(enc, inv, s, o, j) -> tuple[list[int], list[int]]:
        """Copies of enc, inv with s's vertex as new vertex j, s at 0."""
        enc, inv = enc[:], inv[:]
        for i, x in enumerate(orbit[s][o], starts[j]):
            inv[i] = x
            enc[x] = 2 * i + o
        return enc, inv

    def branches(j, enc, inv):
        """Copies of (enc, inv) with each unplaced vertex of j's degree
        placed as new vertex j at each base slot and orientation."""
        for w in range(lead[j], lead[j] + degrees.count(degrees[j])):
            if enc[starts[w]] < 0:
                for s in range(starts[w], starts[w] + degrees[w]):
                    for o in (0, 1):
                        yield placed(enc, inv, s, o, j)

    def run(a, enc, inv, out) -> bool:
        """Walk on from slot a of the word: True on a smaller value, else
        the states where the walk waits go to out.  A loop, not recursion,
        so that no closure refers to itself and outlives the search."""
        todo = [(a, enc, inv)]
        while todo:
            a, enc, inv = todo.pop()
            for a in range(a, nslots):
                word = match[a]
                if word < 0:  # the next lower end
                    out.append((a, a, enc, inv))
                    break
                if word >> 1 < a:  # an upper end
                    continue
                s = inv[a]
                if s < 0:  # a seed
                    todo += [(a, enc2, inv2) for enc2, inv2
                             in branches(vertex[a], enc, inv)]
                    break
                m = match[s]
                if m < 0:
                    out.append((a, s, enc, inv))
                    break
                b = m >> 1
                o = (m ^ enc[s]) & 1
                if enc[b] < 0:  # reached first; placed only if it agrees
                    j = lead[vertex[b]]
                    while inv[starts[j]] >= 0:
                        j += 1
                    value = 2 * starts[j]
                    if value == word:
                        enc, inv = placed(enc, inv, b, o, j)
                        continue
                else:
                    value = enc[b] ^ o
                if value != word:
                    if value < word:
                        return True
                    break
        return False

    def seeded(j, touched) -> list:
        enc = [2 * s if touched[x] else -1 for s, x in enumerate(vertex)]
        # the first branch places j itself, as the identity does
        return [(starts[j], starts[j], enc2, inv2) for enc2, inv2 in
                branches(j, enc, [e >> 1 for e in enc])][1:]

    def extend(walks, a, b) -> list | None:
        out = []
        for walk in walks:
            if walk[1] != a and walk[1] != b:
                out.append(walk)
            elif run(walk[0], walk[2], walk[3], out):
                return None
        b0 = match[0] >> 1
        far = vertex[b0]  # 0 when the root edge is a loop
        for s, p in ((a, b), (b, a)):
            w, x = vertex[s], vertex[p]
            if degrees[w] == d0 and (w == x if far == 0 else
                                     w != x and degrees[x] == degrees[far]):
                for o, span in enumerate((p - s, s - p)):
                    # not the leaf's own root; a loop only b0 slots long
                    if (s or o) and (far or span % d0 == b0):
                        if run(0, *placed(unplaced, unplaced, s, o, 0), out):
                            return None
        return out

    return seeded, extend


# ---------------------------------------------------------------------------
# census driver
# ---------------------------------------------------------------------------

def _face_sizes(c: Cellulation) -> list[int]:
    return [len(walk) for walk in c.faces]


def _vertex_degrees(c: Cellulation) -> list[int]:
    deg = [0] * c.vertex_count
    for a, b in c.edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def _short_reversing_cycle(fm: FlagMap, bound: int) -> bool:
    """Does the vertex graph of fm have an orientation-reversing cycle
    shorter than bound, as a loop or as two edges with the same ends?

    The vertex cells of fm (``FlagMap._cells`` of s2, s1) give each flag
    a vertex id and an alternating colour (a local orientation), and an
    edge twists, t = 1, when s0 keeps the colour.  A cycle reverses
    orientation iff its twists add to 1, so it pairs oddly with w1 and
    is essential on every surface.  The face graph is tested on
    fm.dual().
    """
    if bound < 2:
        return False
    s0 = fm.s0
    vert, colour, _ = fm._cells(fm.s2, fm.s1)
    twist: dict[tuple[int, int], int] = {}
    for f in range(fm.n):
        g = s0[f]
        if g < f:
            continue
        u, w = vert[f], vert[g]
        t = colour[f] ^ colour[g] ^ 1
        if u == w:
            if t:
                return True
        elif bound > 2 and twist.setdefault((min(u, w), max(u, w)), t) != t:
            return True
    return False


def _passes_filters(c: Cellulation, cons: EnumerationConstraints) -> bool:
    if cons.bigon_faces is not None:
        if _face_sizes(c).count(2) != cons.bigon_faces:
            return False
    if cons.valence2_vertices is not None:
        if _vertex_degrees(c).count(2) != cons.valence2_vertices:
            return False
    if cons.min_primal_systole > 1 or cons.min_dual_systole > 1:
        # both systoles off one split: d_z is the primal one, d_x the
        # dual one, and None (k = 0) means no essential cycle at all, so
        # every bound holds
        code = stabilizer.CssCode(*surface.incidence_matrices(c))
        for bound, side in ((cons.min_primal_systole, "d_z"),
                            (cons.min_dual_systole, "d_x")):
            length = getattr(code, side) if bound > 1 else None
            if length is not None and length < bound:
                return False
    return True


def _enumerate_with_stats(cons: EnumerationConstraints,
                          reduce_symmetry: bool = True,
                          use_duality: bool = True,
                          ) -> tuple[list[Cellulation], int, int]:
    """(classes passing the filters, schemes examined, classes examined).

    Target vertex counts that need the same search share it.  Every leaf
    of the reduced search opens a new class; without reduce_symmetry a
    leaf does when its canonical form is new to the search.  The class
    becomes one Cellulation per target, through the flag dual for a
    mirrored one.  When the constraints fix orientability and chi leaves
    it open (it is even or unset), a leaf of the wrong kind is dropped on
    its flag map before anything else.  A target whose bound the girth
    handed over by the search breaks is dropped before any flag map is
    built.  Classes come out grouped by search, not by vertex count, and
    are counted once per target.
    """
    if cons.edge_count > MAX_EDGE_COUNT:
        raise EnumerationBudgetError(
            f"edge count {cons.edge_count} exceeds the budget of"
            f" {MAX_EDGE_COUNT}")
    e = cons.edge_count
    chi = cons.chi
    v_lo, v_hi = 1, e + 1
    if chi is not None:
        v_hi = min(v_hi, e + chi - 1)  # face count must stay positive
        v_lo = max(v_lo, chi - e)      # face count is at most 2e
    if cons.vertex_count is not None:
        if not v_lo <= cons.vertex_count <= v_hi:
            return [], 0, 0
        v_lo = v_hi = cons.vertex_count

    # a side with more faces than vertices is searched as its dual (finer
    # degree sequences), whose vertex degrees and face sizes trade places,
    # so both structural counts prune; one search per distinct input
    searches: dict[tuple, list[bool]] = {}
    for v in range(v_lo, v_hi + 1):
        f = None if chi is None else chi - v + e
        dualize = use_duality and f is not None and f > v
        key = ((f, cons.bigon_faces, cons.valence2_vertices) if dualize
               else (v, cons.valence2_vertices, cons.bigon_faces))
        searches.setdefault(key, []).append(dualize)

    s2 = [f ^ 1 for f in range(4 * e)]  # every leaf has 4e flags
    results: list[Cellulation] = []
    schemes = classes = 0
    # the search's vertex graph is a target's own vertex graph, and its
    # face graph the target's face graph, unless the target is its dual
    bounds = {False: (cons.min_primal_systole, cons.min_dual_systole),
              True: (cons.min_dual_systole, cons.min_primal_systole)}
    # each leaf's flag map decides orientability only where chi leaves it
    # open: a connected closed surface of odd chi is never orientable
    orientable = cons.orientable if not (chi or 0) % 2 else None

    for (side_v, want2, side_bigons), targets in searches.items():
        seen: set[bytes] = set()  # canonical forms, without reduce_symmetry
        f_target = None if chi is None else chi - side_v + e

        def visit(s0, s1, girth, _targets=targets, _seen=seen):
            nonlocal classes
            flags = None
            if orientable is not None or not reduce_symmetry:
                flags = FlagMap(s0, s1, s2)
            if orientable is not None and flags.components()[1] != orientable:
                return
            if not reduce_symmetry:
                key = flags.canonical_form()
                if key in _seen:
                    return
                _seen.add(key)
            classes += len(_targets)
            for dualize in _targets:
                vertex_bound, face_bound = bounds[dualize]
                if girth < min(vertex_bound, 3):
                    continue  # the systole filter would reject it
                if flags is None:
                    flags = FlagMap(s0, s1, s2)
                faces = flags.dual()
                if _short_reversing_cycle(faces, face_bound):
                    continue
                c = (faces if dualize else flags).to_cellulation()
                if _passes_filters(c, cons):
                    results.append(c)

        for degs in _partitions(2 * e, side_v, 2 * e):
            if want2 is not None and degs.count(2) != want2:
                continue
            schemes += _scheme_search(degs, visit, f_target,
                                      reduce_symmetry, side_bigons)
    return results, schemes, classes


def enumerate_cellulations(cons: EnumerationConstraints,
                           reduce_symmetry: bool = True,
                           use_duality: bool = True) -> list[Cellulation]:
    """One representative per isomorphism class matching the constraints."""
    return _enumerate_with_stats(cons, reduce_symmetry, use_duality)[0]


# ---------------------------------------------------------------------------
# the nonexistence report
# ---------------------------------------------------------------------------

def census_report(edge_count: int, min_systole: int = 3,
                  **kw) -> dict:
    """JSON-ready census of projective-plane cellulations at one size."""
    cons = EnumerationConstraints.rp2(
        edge_count, min_primal_systole=min_systole,
        min_dual_systole=min_systole, **kw)
    survivors, schemes, classes = _enumerate_with_stats(cons)
    docs = [s.to_json_dict()
            for s in sorted(survivors, key=surface.canonical_form)]
    return {
        "edge_count": edge_count,
        "min_systole": min_systole,
        "schemes_examined": schemes,
        "classes_examined": classes,
        "survivor_count": len(docs),
        "survivors": docs,
    }


def verify_no_small_codes() -> dict:
    """Census of RP2 cellulations with both systoles >= 3.

    At 5 and 7 edges the survivor lists must come out empty while the
    examined-class counts stay positive (the filter, not the generator,
    is what empties them).
    """
    return {"reports": [census_report(e) for e in (5, 7)]}


# ---------------------------------------------------------------------------
# vertex identification
# ---------------------------------------------------------------------------

def identify_vertices(c: Cellulation, face_index: int,
                      corner_a: int, corner_b: int) -> Cellulation:
    """Pinch one face at two of its corners, merging the corner vertices.

    Corner t of a face walk sits at the start vertex of step t.  The
    pinch splits the face into two closed walks through the merged
    vertex: V drops by 1, F grows by 1, edges and the Euler
    characteristic are unchanged.  Raises CellulationError when the face
    index or a corner is out of range or the two corners sit at the same
    vertex.
    """
    if not 0 <= face_index < c.face_count:
        raise CellulationError(
            f"face {face_index} is out of range 0..{c.face_count - 1}")
    walk = c.faces[face_index]
    for t in (corner_a, corner_b):
        if not 0 <= t < len(walk):
            raise CellulationError(
                f"corner {t} is out of range 0..{len(walk) - 1}")
    if c.step_tail(*walk[corner_a]) == c.step_tail(*walk[corner_b]):
        raise CellulationError("corners lie at the same vertex")
    flags, labels = surface.build_flags_labeled(c)
    base = sum(len(w) for w in c.faces[:face_index])
    return _pinch(flags, 2 * (base + corner_a),
                  2 * (base + corner_b)).to_cellulation(labels)


def _pinches(c: Cellulation, flags: FlagMap) -> list[FlagMap]:
    """The flag map of each all_identifications result; flags is c's."""
    maps = []
    base = 0  # traversals are numbered face by face, as in the flag map
    for walk in c.faces:
        tails = [c.step_tail(e, d) for e, d in walk]
        maps += [_pinch(flags, 2 * (base + t1), 2 * (base + t2))
                 for t1 in range(len(walk)) for t2 in range(t1 + 1, len(walk))
                 if tails[t1] != tails[t2]]
        base += len(walk)
    return maps


def all_identifications(c: Cellulation) -> Iterator[Cellulation]:
    """Every single vertex identification, one per face-corner pair at
    two different vertices."""
    flags, labels = surface.build_flags_labeled(c)
    return (fm.to_cellulation(labels) for fm in _pinches(c, flags))


def _pinch(flags: FlagMap, a: int, b: int) -> FlagMap:
    """Swap the s1 partners of the tail flags a and b of one face.

    This is the vertex identification at those two corners: the face
    orbit of <s0,s1> splits in two at them, and the two vertex orbits of
    <s1,s2> through them merge into one.  The corners must lie at
    different vertices (one orbit would split instead), and then the
    result is always a map of the same surface.
    """
    s1 = list(flags.s1)
    pa, pb = s1[a], s1[b]
    s1[a], s1[pb] = pb, a
    s1[b], s1[pa] = pa, b
    return FlagMap(flags.s0, s1, flags.s2)


def edge_slides(c: Cellulation) -> Iterator[Cellulation]:
    """Every cellulation one edge slide away, one per resulting class.

    A slide detaches one end of an edge and moves it across an adjacent
    edge to that edge's far endpoint.  Cell counts and the surface are
    unchanged; the two faces meeting the moved end trade the crossed
    edge.  Realized as a local resewing of the corner involution s1.
    """
    flags, labels = surface.build_flags_labeled(c)
    return (fm.to_cellulation(labels) for _, fm in _keyed_slides(flags))


def _keyed_slides(flags: FlagMap) -> Iterator[tuple[bytes, FlagMap]]:
    """(canonical form, flag map) of every edge_slides result; each map
    shares s0 and s2, and so the edge labels, with flags."""
    chi = flags.euler_characteristic()
    seen: set[bytes] = set()
    for a1 in range(flags.n):
        # a1: flag of the moving edge end; b1: the crossed edge's near
        # end in the same corner; c1: its far end; d1, x: the corners
        # that open up at the far and near vertex
        b1 = flags.s1[a1]
        a2 = flags.s2[a1]
        x = flags.s1[a2]
        c1 = flags.s0[b1]
        d1 = flags.s1[c1]
        if len({a1, a2, b1, c1, d1, x}) != 6:
            continue
        s1 = list(flags.s1)
        s1[x] = b1
        s1[b1] = x
        s1[a1] = d1
        s1[d1] = a1
        s1[c1] = a2
        s1[a2] = c1
        fm = surface.FlagMap(flags.s0, s1, flags.s2)
        if fm.components()[0] != 1 or fm.euler_characteristic() != chi:
            continue
        key = fm.canonical_form()
        if key not in seen:
            seen.add(key)
            yield key, fm


def identification_reaches(c: Cellulation, target: Cellulation,
                           max_slides: int = 0) -> bool:
    """Does a vertex identification plus at most max_slides edge slides
    land in target's class?"""
    key = surface.canonical_form(target)
    frontier: dict[bytes, FlagMap] = {}
    for fm in _pinches(c, surface.build_flags(c)):
        k = fm.canonical_form()
        if k == key:
            return True
        frontier.setdefault(k, fm)
    visited = set(frontier)
    for _ in range(max_slides):
        step: dict[bytes, FlagMap] = {}
        for fm in frontier.values():
            for k, s in _keyed_slides(fm):
                if k == key:
                    return True
                if k not in visited:
                    visited.add(k)
                    step[k] = s
        frontier = step
        if not frontier:
            break
    return False


# ---------------------------------------------------------------------------
# figure reconstruction
# ---------------------------------------------------------------------------

def _rank2_count(c: Cellulation) -> int:
    code = stabilizer.build_code(c)
    return len(invariants.rank_profile(code).rank2_pairs)


def reconstruct_figures() -> tuple[Cellulation, Cellulation, dict]:
    """Rebuild the two nine-edge projective-plane cellulations.

    The coarser one (4 vertices, 6 faces) is pinned by: both systoles at
    least 3, exactly three bigon faces and exactly three rank-2 qubit
    pairs.  The finer one (5 vertices, 5 faces) by: both systoles at
    least 3, exactly one bigon, exactly one valence-2 vertex, exactly
    two rank-2 pairs, and a vertex identification reaching the coarser
    class.  Certificates record every filter value and the survivor
    multiplicities; with several survivors the canonically smallest is
    pinned and flagged.
    """
    fig3_pool = enumerate_cellulations(EnumerationConstraints.rp2(
        9, min_primal_systole=3, min_dual_systole=3,
        vertex_count=4, bigon_faces=3))
    fig3_hits = [c for c in fig3_pool if _rank2_count(c) == 3]
    if not fig3_hits:
        raise CellulationError("no 4-vertex nine-edge class survives")
    fig3_hits.sort(key=surface.canonical_form)
    fig3 = fig3_hits[0]

    fig2_pool = enumerate_cellulations(EnumerationConstraints.rp2(
        9, min_primal_systole=3, min_dual_systole=3,
        vertex_count=5, bigon_faces=1, valence2_vertices=1))
    fig2_hits = [c for c in fig2_pool
                 if _rank2_count(c) == 2 and identification_reaches(c, fig3)]
    if not fig2_hits:
        raise CellulationError("no 5-vertex nine-edge class survives")
    fig2_hits.sort(key=surface.canonical_form)
    fig2 = fig2_hits[0]

    def cert(c: Cellulation, pool: list, hits: list) -> dict:
        info = surface.validate(c)
        return {
            "cellulation": c.to_json_dict(),
            "surface": info.surface_name,
            "vertices": c.vertex_count,
            "edges": c.edge_count,
            "faces": c.face_count,
            "primal_systole": homology.systole(c)[0],
            "dual_systole": homology.dual_systole(c)[0],
            "bigon_faces": _face_sizes(c).count(2),
            "valence2_vertices": _vertex_degrees(c).count(2),
            "rank2_pairs": _rank2_count(c),
            "pool_size": len(pool),
            "survivor_count": len(hits),
            "ambiguous": len(hits) > 1,
        }

    certificates = {
        "fig2": cert(fig2, fig2_pool, fig2_hits),
        "fig3": cert(fig3, fig3_pool, fig3_hits),
        "fig2_identifies_to_fig3": True,
        "fig3_identifies_to_shor": identification_reaches(
            fig3, surface.fig4_shor(), max_slides=3),
    }
    return fig2, fig3, certificates
