"""Exhaustive enumeration of small closed-surface cellulations.

A cellulation of a closed surface is the same data as a signed rotation
system: a cyclic order of edge-ends around each vertex plus a twist bit
per edge.  The enumerator fixes a vertex degree sequence, lays the edge
ends out as slots and depth-first searches over perfect matchings of the
slots with twist bits, tracing faces and orientability incrementally;
a face is checked for being a bigon from the matches when it closes.
All search state lives in flat lists, and every write first pushes
(list, index, old value) onto one trail; backtracking pops the trail
back to a mark.  A complete scheme whose face count or orientability
misses the target surface is counted and dropped before its flag system
is built.  The census driver runs the search over every degree sequence,
keeps one cellulation per class and applies the filters; it returns the
survivors with the scheme and class counts that census_report prints.
Isomorphism rejection is by the canonical form of the flag system
(``FlagMap.canonical_form``), whose BFS starts only from the flags of
minimal (vertex degree, face size, far-end degree) key.

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
R2 and R3 are switched by reduce_symmetry, on by default; with it off
the search keeps only R1 and serves as the test suite's oracle.

The face count prunes by three rules, each of which cuts only
branches with no leaf below them:

- Too many faces: more than f_target, or f_target with slots left (the
  last match always closes a face).
- Too few: faces + free - u < f_target, where free counts the free
  slots and u the unions still needed (v - 1 minus those made).  Each
  free slot adds one s0 join and a join closes at most one face, but
  the first join of a union merges paths of two components, which
  cannot close one.
- Face-closing candidates: when faces + free - f_target <= max(1, u),
  a child that closes no face leaves fewer than f_target faces within
  reach by the rule above, so the lowest free slot a is offered only
  the slots whose match can close a face: the far ends of a's two
  paths or, when a's path runs from flag 2a to 2a + 1, every free slot
  whose path does the same.

A match that uses up a component's last free slots while others remain
is rejected before any write: the component can never be joined to
the rest.

Duality halves the work when the Euler characteristic pins the face
count: each side is searched once, as its dual when it has more faces
than vertices, and each new class is read as itself, its dual or both.

Before a new class becomes a Cellulation, its flag map is tested for a
short orientation-reversing cycle: a twisted loop (length 1) or two
edges with the same ends and different twists (length 2), in the vertex
graph against min_primal_systole and in the face graph (the flag dual)
against min_dual_systole.  The vertex ids and the local orientations
that give the twists come from one labelling of the vertex cells
(``FlagMap._cells``).  Such a cycle pairs oddly with the first
Stiefel-Whitney class, so it is essential on every surface and the
homology systole filter would reject the class; the test drops only
those classes, and the filter still decides every class it keeps.  On
RP2 every essential cycle reverses orientation, so for bounds up to 3
the test is exact there, and the census builds no Cellulation for a
class it rejects.

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
    Systole bounds of 1 are vacuous.  bigon_faces and valence2_vertices
    demand exact counts when set.
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
                   max_bigons: int | None = None,
                   orientable: bool | None = None) -> int:
    """DFS over signed matchings of the slot structure given by degrees.

    Returns the number of complete schemes reached (the matching is
    guaranteed connected).  f_target, when set, prunes branches that
    already have too many faces or can no longer close enough of them,
    counting the unions still needed, whose first joins close none;
    near that bound a node offers only matches that close a face, as
    no other child keeps a leaf below it.  A complete scheme is
    accepted only with exactly f_target faces and, when orientable is
    set, the requested orientability.
    reduce_symmetry switches on R2 and R3; R1 is always on.  visit(s0,
    s1) is called on the flag involutions of every accepted scheme, in
    lexicographic order of the matches.
    """
    v = len(degrees)
    nslots = sum(degrees)
    starts = [sum(degrees[:i]) for i in range(v)]
    slot_vertex = [i for i, d in enumerate(degrees) for _ in range(d)]
    d0 = degrees[0] if v else 0
    root_rank = 0  # R3 rank of the root edge, set by the match of slot 0
    nflags = 2 * nslots

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
    # s0[2a + 1] = match[a]
    match = [-1] * nslots
    # face tracing: paths alternating fixed s1 edges and matched s0
    # edges; end[] maps a path endpoint to the opposite endpoint
    end = list(s1)
    # comp[x] = 2 * root + parity: the lowest vertex of x's component and
    # x's orientation parity relative to it; a union relabels the members
    # of the higher root
    comp = [2 * x for x in range(v)]
    free = list(degrees)
    touched = [False] * v
    # free slots, faces, conflicts, bigons, unions still needed
    count = [nslots, 0, 0, 0, v - 1]
    leaves = 0
    # every write below first pushes (array, index, old value); undo(mark)
    # pops back to a mark, so new search state needs no undo code of its own
    trail: list[tuple[list, int, object]] = []
    push, extend = trail.append, trail.extend

    def apply(a: int, b: int, t: int) -> bool:
        """Match slots a, b with twist t; False when the branch is pruned."""
        nonlocal root_rank
        va, vb = slot_vertex[a], slot_vertex[b]
        da, db = degrees[va], degrees[vb]
        if reduce_symmetry and (da == d0 or db == d0):
            # R3: the rank this edge would give as the root edge
            if va == vb:
                rank = min(b - a, d0 - b + a)
                if a == 0 and rank < b:
                    return False  # the reversed rotation roots it lower
            else:
                rank = 3 * d0 - da - db  # 2 d0 - d for the far end's d
            if a == 0:
                root_rank = rank
            elif rank < root_rank:
                return False
        ca, cb = comp[va], comp[vb]
        ra, rb = ca >> 1, cb >> 1
        left = free[ra] - 2 if ra == rb else free[ra] + free[rb] - 2
        if left == 0 and count[0] > 2:
            return False  # a closed component with slots left over
        # the ribbon's two s0 flag edges (p, q) and (p2, q2): the first
        # closes a face iff end[p] == q, else it joins two paths, after
        # which the second closes one iff its ends meet
        if t == 0:
            p, q, p2, q2 = 2 * a, 2 * b + 1, 2 * a + 1, 2 * b
        else:
            p, q, p2, q2 = 2 * a, 2 * b, 2 * a + 1, 2 * b + 1
        if f_target is not None:
            ep, eq = end[p], end[q]
            if ep == q:
                faces = count[1] + 1 + (end[p2] == q2)
            else:
                faces = count[1] + (
                    q2 == (eq if p2 == ep else ep if p2 == eq else end[p2]))
            rest = count[0] - 2
            if faces > f_target or (faces == f_target and rest):
                return False
            if faces + rest - count[4] + (ra != rb) < f_target:
                return False  # each union's first join closes no face
        if ra > rb:  # the lower root stays
            ra, rb = rb, ra
        extend(((match, a, -1), (match, b, -1), (count, 0, count[0]),
                (free, ra, free[ra])))
        match[a] = 2 * b + t
        match[b] = 2 * a + t
        count[0] -= 2
        free[ra] = left
        if not touched[vb]:
            push((touched, vb, False))
            touched[vb] = True
        # orientation parity: an untwisted edge keeps the local
        # orientations aligned, a twisted one flips them
        flip = (ca ^ cb ^ t) & 1
        if ra == rb:
            if flip:
                push((count, 2, count[2]))
                count[2] += 1
        else:
            push((count, 4, count[4]))
            count[4] -= 1
            for x in range(rb, v):  # a root is its component's lowest vertex
                cx = comp[x]
                if cx >> 1 == rb:
                    push((comp, x, cx))
                    comp[x] = 2 * ra + ((cx ^ flip) & 1)
        # face tracing: close a face or join two paths, join by join
        for p, q in ((p, q), (p2, q2)):
            if end[p] == q:
                push((count, 1, count[1]))
                count[1] += 1
                # the face p, q, s1[q], x = s1[p] is a bigon iff x's s0
                # partner is s1[q]; x == q is a face of size 1
                x = s1[p]
                if x != q and match[x >> 1] ^ (x & 1) ^ 1 == s1[q]:
                    push((count, 3, count[3]))
                    count[3] += 1
            else:
                ep, eq = end[p], end[q]
                extend(((end, ep, end[ep]), (end, eq, end[eq])))
                end[ep] = eq
                end[eq] = ep
        return max_bigons is None or count[3] <= max_bigons

    def undo(mark: int) -> None:
        for arr, i, old in reversed(trail[mark:]):
            arr[i] = old
        del trail[mark:]

    def emit() -> None:
        # apply's face bounds leave exactly f_target faces at a leaf
        nonlocal leaves
        leaves += 1
        if orientable is not None and (count[2] == 0) != orientable:
            return
        visit([f for m in match for f in (m ^ 1, m)], s1)

    def rec_search(hint: int) -> None:
        if count[0] == 0:
            emit()
            return
        a = hint
        while match[a] >= 0:
            a += 1
        va = slot_vertex[a]
        base = len(trail)
        # a seed va is the lowest untouched vertex (every slot below a
        # is matched); it is marked before the loop, as vb - 1 can be va
        seed = not touched[va]
        if seed:
            push((touched, va, False))
            touched[va] = True
        if (f_target is not None
                and count[1] + count[0] - f_target <= max(1, count[4])):
            # every child must close a face: a join closes one only at
            # the far end of a's path, or, when that path runs from 2a to
            # 2a + 1, as the second join with a b whose path does the same
            x = end[2 * a]
            if x == 2 * a + 1:
                bs = [b for b in range(a + 1, nslots)
                      if end[2 * b] == 2 * b + 1]
            else:
                bs = sorted({x >> 1, end[2 * a + 1] >> 1})
        else:
            bs = range(a + 1, nslots)
        for b in bs:
            if match[b] >= 0:
                continue
            vb = slot_vertex[b]
            fresh = not touched[vb]
            if fresh and (b != starts[vb]
                          or not (lead[vb] or touched[vb - 1])):
                continue
            twists = (0,) if fresh and reduce_symmetry else (0, 1)
            for t in twists:
                mark = len(trail)
                if apply(a, b, t):
                    rec_search(a + 1)
                if len(trail) > mark:
                    undo(mark)
        if seed:
            undo(base)

    if v and nslots % 2 == 0 and (f_target is None or f_target >= 1):
        rec_search(0)
    return leaves


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
    if cons.min_primal_systole > 1:
        try:
            if homology.systole(c)[0] < cons.min_primal_systole:
                return False
        except homology.TrivialHomologyError:
            pass  # no essential cycles at all: every bound holds
    if cons.min_dual_systole > 1:
        try:
            if homology.dual_systole(c)[0] < cons.min_dual_systole:
                return False
        except homology.TrivialHomologyError:
            pass
    return True


def _enumerate_with_stats(cons: EnumerationConstraints,
                          reduce_symmetry: bool = True,
                          use_duality: bool = True,
                          ) -> tuple[list[Cellulation], int, int]:
    """(classes passing the filters, schemes examined, classes examined).

    Target vertex counts that need the same search share it, and each of
    its leaves is keyed once by its own canonical form; a new key becomes
    one Cellulation per target, through the flag dual for a mirrored one.
    Classes come out grouped by search, not by vertex count.
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
    for (side_v, want2, side_bigons), targets in searches.items():
        seen: set[bytes] = set()

        def visit(s0, s1, _targets=targets, _seen=seen):
            flags = FlagMap(s0, s1, s2)
            key = flags.canonical_form()
            if key not in _seen:
                _seen.add(key)
                for dualize in _targets:
                    side = flags.dual() if dualize else flags
                    if (_short_reversing_cycle(side, cons.min_primal_systole)
                            or _short_reversing_cycle(side.dual(),
                                                      cons.min_dual_systole)):
                        continue  # the systole filter would reject it
                    c = side.to_cellulation()
                    if _passes_filters(c, cons):
                        results.append(c)

        f_target = None if chi is None else chi - side_v + e
        for degs in _partitions(2 * e, side_v, 2 * e):
            if want2 is not None and degs.count(2) != want2:
                continue
            schemes += _scheme_search(degs, visit, f_target,
                                      reduce_symmetry,
                                      max_bigons=side_bigons,
                                      orientable=cons.orientable)
        classes += len(seen) * len(targets)
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
