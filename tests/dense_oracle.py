"""Dense-projector oracle for the pair ranks of ``invariants``.

Materializes the code projector as a 2^n x 2^n array and partial-traces
it numerically, independently of the stabilizer counting that
``invariants.pair_rank_stabilizer`` and ``rank_profile`` use.
"""
import numpy as np

from cellqec import gf2
from cellqec.stabilizer import CssCode

DENSE_ORACLE_MAX_QUBITS = 14
SINGULAR_VALUE_THRESHOLD = 1e-9


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
