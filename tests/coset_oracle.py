"""Independent oracle for the distance engine: exhaustive coset search.

The library computes every systole and code distance with the
parity-cover search in ``homology``.  This oracle answers the same
question with a different algorithm -- a Gray-code search of the coset
of the boundary space around each nonzero homology class -- so tests
can cross-check the engine.  It is exponential in the boundary rank:
keep its inputs small.
"""
from cellqec import gf2, homology
from cellqec.gf2 import Gf2Matrix, Gf2Vector


def coset_min_essential(fe: Gf2Matrix, ve: Gf2Matrix) -> int:
    """Minimum weight over ker(ve) \\ rowspace(fe), one coset per class."""
    reps = []
    span = fe.row_vectors()
    for v in gf2.kernel_basis(ve):
        if not gf2.in_span(span, v):
            reps.append(v)
            span.append(v)
    if not reps:
        raise homology.TrivialHomologyError("surface has trivial first homology")
    boundary_basis = fe.row_vectors()
    weights = []
    for mask in range(1, 1 << len(reps)):
        offset = Gf2Vector.zero(fe.cols)
        for i, r in enumerate(reps):
            if (mask >> i) & 1:
                offset ^= r
        weights.append(gf2.min_weight_in_coset(boundary_basis, offset)[0])
    return min(weights)
