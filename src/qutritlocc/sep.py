"""Deciding separable convertibility inside one generic SLOCC class.

A separable map built from the class symmetries turns an initial Gram
triple G into a final triple H exactly when some probability vector p over
the nine symmetry labels satisfies

    sum_k p_k (S_k^dag)^(x3) (H1 (x) H2 (x) H3) (S_k)^(x3) = G1 (x) G2 (x) G3

with both sides trace-normalized.  The solution set is a polytope: an
affine subspace of distributions intersected with the simplex.

The conjugation phases are characters of Z3 x Z3, so the condition lives
in the nine-dimensional character domain.  The spectrum
``eta_l = sum_k p_k phase(l, k)`` of a distribution multiplies coordinate
l of a depolarized Gram matrix, and coordinate (l, m, n) of the mixed
product above by ``eta_{l+m+n}``.  The 729 entries of the product thus
reduce exactly to one scalar fit per character; this module solves that
19-row real system (least squares plus nullspace), enumerates the
polytope's vertices, and reports feasibility, uniqueness and
nontriviality of the conversion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .classify import classify_gram
from .pauli import (
    CONJ_TABLE,
    INDEX_ORDER,
    INDEX_POS,
    ZERO_TOL,
    from_coords,
    idx_add,
    idx_neg,
    pauli_coords,
)
from .seeds import SeedParams
from .states import (
    STD_COMPARE_ATOL,
    GenericState,
    GramTriple,
    SeedMismatchError,
    gram,
    gram_triple,
    seed_gram,
    standardize_coords,
)

Pair = tuple[int, int]


def depolarize(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Average of conjugates ``sum_k p_k S_k^dag h S_k``.

    Multiplies displacement coordinate l of ``h`` by the spectrum value
    ``eta_l`` of ``p`` (``eta_0 = sum(p)``), which is how it is computed;
    the uniform distribution therefore projects onto the identity component.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (9,):
        raise ValueError(f"expected 9 probabilities, got shape {p.shape}")
    eta = CONJ_TABLE @ p
    g0, g = pauli_coords(h)
    return from_coords(eta[0] * g0, eta[1:] * g)


def _triple_uniform(w: Pair) -> np.ndarray:
    """The uniform distribution over the symmetry triple ``{0, w, -w}``."""
    p = np.zeros(9)
    p[[INDEX_POS[k] for k in ((0, 0), w, idx_neg(w))]] = 1.0 / 3.0
    return p


def induced_initial(final: GramTriple, p: np.ndarray) -> GramTriple:
    """Initial Gram triple induced by depolarizing the final one with p."""
    return gram_triple(*(depolarize(h, p) for h in final.mats))


# ---------------------------------------------------------------------------
# The feasibility engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SepInstance:
    """A conversion question: can a state with Gram triple ``source_gram``
    reach one with ``target_gram`` separably, within the class of ``seed``?
    """

    seed: SeedParams
    source_gram: GramTriple
    target_gram: GramTriple


def gram_instance(
    seed: SeedParams, source_gram: GramTriple, target_gram: GramTriple
) -> SepInstance:
    """Instance posed directly at the Gram level (no explicit factors)."""
    if not seed.is_canonical():
        raise ValueError("seed parameters must be in canonical gauge")
    return SepInstance(seed=seed, source_gram=source_gram, target_gram=target_gram)


def sep_instance(source: GenericState, target: GenericState) -> SepInstance:
    """Validate and build a :class:`SepInstance` from two states.

    Raises :class:`SeedMismatchError` when the two canonical seeds differ.
    """
    if not source.seed.is_canonical() or not target.seed.is_canonical():
        raise ValueError("seed parameters must be in canonical gauge")
    if not source.seed.close_to(target.seed):
        raise SeedMismatchError(
            "source and target have different canonical seed parameters; "
            "they belong to different SLOCC classes"
        )
    return SepInstance(seed=source.seed, source_gram=gram(source), target_gram=gram(target))


@dataclass(frozen=True)
class SepFeasibility:
    """Outcome of the polytope analysis.

    ``witness`` is a distribution solving the instance (None when
    infeasible); ``vertices`` enumerates the solution polytope's corners;
    ``vertex_trivial`` marks, per vertex, whether the witnessed conversion
    is trivial (initial LU-equivalent to final); ``nontrivial`` is feasible
    with at least one genuinely state-changing witness.  ``residual`` is
    the witness residual when feasible, otherwise the best affine residual.
    """

    feasible: bool
    witness: np.ndarray | None
    residual: float
    vertices: tuple[np.ndarray, ...]
    unique: bool
    affine_dim: int
    vertex_trivial: tuple[bool, ...]
    nontrivial: bool
    reason: str | None


def _infeasible(residual: float, reason: str) -> SepFeasibility:
    return SepFeasibility(
        feasible=False,
        witness=None,
        residual=residual,
        vertices=(),
        unique=False,
        affine_dim=-1,
        vertex_trivial=(),
        nontrivial=False,
        reason=reason,
    )


#: Most negative probability a polytope vertex may carry.
VERTEX_FEAS_TOL = 1e-10


def _polytope_vertices(p0: np.ndarray, nullspace: np.ndarray) -> list[np.ndarray]:
    """Vertices of {p0 + N t : p >= 0} (a bounded polytope inside the simplex)."""
    d = nullspace.shape[1]
    if d == 0:
        return [p0] if p0.min() >= -VERTEX_FEAS_TOL else []
    vertices: list[np.ndarray] = []
    for active in itertools.combinations(range(9), d):
        block = nullspace[list(active), :]
        scale = np.prod(np.maximum(np.linalg.norm(block, axis=1), 1e-300))
        if abs(np.linalg.det(block)) <= 1e-10 * scale:
            continue
        t = np.linalg.solve(block, -p0[list(active)])
        p = p0 + nullspace @ t
        if p.min() < -VERTEX_FEAS_TOL:
            continue
        if all(np.max(np.abs(p - v)) > 1e-8 for v in vertices):
            vertices.append(p)
    return vertices


def _block_index() -> np.ndarray:
    """Row s lists the flat indices ``81 l + 9 m + n`` (positions in
    INDEX_ORDER) of the 81 product coordinates with ``l + m + n = s``."""
    labels = [
        INDEX_POS[idx_add(idx_add(l, m), n)]
        for l, m, n in itertools.product(INDEX_ORDER, repeat=3)
    ]
    return np.argsort(labels, kind="stable").reshape(9, 81)


_BLOCKS = _block_index()


def _product_blocks(gt: GramTriple) -> np.ndarray:
    """Coordinates ``c1_l c2_m c3_n`` of ``G1 (x) G2 (x) G3`` in the basis
    ``D_l (x) D_m (x) D_n`` (D_0 = I), grouped into blocks: shape (9, 81)."""
    c = np.hstack([np.full((3, 1), 1.0 / 3.0), gt.coords])
    return (c[0][:, None, None] * c[1][:, None] * c[2]).ravel()[_BLOCKS]


def _block_system(inst: SepInstance) -> tuple[np.ndarray, np.ndarray, float]:
    """The SEP condition as 19 real rows, an exact reduction of its
    729-row Kronecker form.

    Coordinate (l, m, n) of ``sum_k p_k (S_k^dag)^(x3) H S_k^(x3)`` is
    ``h1_l h2_m h3_n eta_{l+m+n}`` with ``eta = CONJ_TABLE @ p``, and the
    basis products are orthogonal with squared Frobenius norm 27.  So the
    Kronecker rows fall into nine blocks by ``s = l + m + n``, each of rank
    one: ``sqrt(27) h_s eta_s`` against ``sqrt(27) g_s``.  Block s becomes
    the row ``sqrt(27) |h_s| CONJ_TABLE[s]`` with right-hand side
    ``sqrt(27) <h_s/|h_s|, g_s>``.  The part of each ``g_s`` orthogonal to
    ``h_s`` (all of it where ``h_s`` vanishes) is returned as
    ``remainder``; the Kronecker residual at p is
    ``hypot(|a p - b|, remainder)``.  Rows are the nine real parts, the
    nine imaginary parts and the normalisation row.  The map is an
    isometry, so singular values, nullspace and least-squares point equal
    the Kronecker system's.
    """
    h = _product_blocks(inst.target_gram)
    g = _product_blocks(inst.source_gram)
    # Normalise by the largest entry first: |h_s|^2 can underflow.
    peak = np.abs(h).max(axis=1, keepdims=True)
    u = np.divide(h, peak, out=np.zeros_like(h), where=peak > 0)
    length = np.linalg.norm(u, axis=1, keepdims=True)
    u = np.divide(u, length, out=np.zeros_like(u), where=length > 0)
    proj = np.sum(u.conj() * g, axis=1)
    root27 = np.sqrt(27.0)
    remainder = root27 * float(np.linalg.norm(g - proj[:, None] * u))
    rows = root27 * (peak * length) * CONJ_TABLE
    a = np.vstack([rows.real, rows.imag, np.ones((1, 9))])
    b = np.concatenate([root27 * proj.real, root27 * proj.imag, [1.0]])
    return a, b, remainder


def sep_feasible(inst: SepInstance, tol: float = ZERO_TOL) -> SepFeasibility:
    """Decide an instance by exact polytope analysis.

    Solves the 19-row block form of the SEP condition
    (:func:`_block_system`) for its affine solution set by least squares
    and a thin SVD, and enumerates the polytope's vertices.  Feasible means
    a distribution reproduces the initial Gram product to within the
    tolerance ``tol`` (absolute Frobenius over the 27x27 product, default
    ``ZERO_TOL``).

    A vertex v is trivial when the initial triple it induces is
    LU-equivalent to the target.  That is decided on coordinates: the
    induced triple's coordinate l is the target's times ``eta_l / eta_0``
    with ``eta = CONJ_TABLE @ v`` (depolarizing by v, then normalizing the
    trace; :func:`induced_initial`), and its gauge-fixed table
    (:func:`~qutritlocc.states.standardize_coords`) must agree with the
    target's to ``STD_COMPARE_ATOL``, as in
    :meth:`~qutritlocc.states.StandardForm.close_to`.
    Raises ``ValueError`` for a seed outside the canonical gauge.
    """
    if not inst.seed.is_canonical():
        raise ValueError("seed parameters must be in canonical gauge")
    a_real, b_real, remainder = _block_system(inst)

    p_ls, _, _, _ = np.linalg.lstsq(a_real, b_real, rcond=None)
    affine_residual = float(np.hypot(np.linalg.norm(a_real @ p_ls - b_real), remainder))

    if affine_residual > tol:
        return _infeasible(affine_residual, "affine-infeasible")

    _, sv, vh = np.linalg.svd(a_real, full_matrices=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    nullspace = vh[rank:].T  # (9, 9-rank)

    vertices = _polytope_vertices(p_ls, nullspace)
    if not vertices:
        return _infeasible(affine_residual, "polytope-empty")

    witness = np.mean(vertices, axis=0)
    witness = np.clip(witness, 0.0, None)
    witness = witness / witness.sum()
    residual = float(np.hypot(np.linalg.norm(a_real @ witness - b_real), remainder))

    if len(vertices) == 1:
        affine_dim = 0
    else:
        diffs = np.array(vertices[1:]) - vertices[0]
        dsv = np.linalg.svd(diffs, compute_uv=False)
        affine_dim = int(np.sum(dsv > 1e-9 * max(dsv[0], 1e-300)))

    coords = inst.target_gram.coords
    target_table, _ = standardize_coords(coords)
    vertex_trivial = []
    for v in vertices:
        eta = CONJ_TABLE @ v
        induced_table, _ = standardize_coords(coords * (eta[1:] / eta[0]))
        gap = np.max(np.abs(induced_table - target_table))
        vertex_trivial.append(bool(gap <= STD_COMPARE_ATOL))

    return SepFeasibility(
        feasible=True,
        witness=witness,
        residual=residual,
        vertices=tuple(vertices),
        unique=len(vertices) == 1,
        affine_dim=affine_dim,
        vertex_trivial=tuple(vertex_trivial),
        nontrivial=not all(vertex_trivial),
        reason=None,
    )


# ---------------------------------------------------------------------------
# Canonical initial candidates for reachability checks
# ---------------------------------------------------------------------------

def candidate_initial_grams(final: GramTriple) -> tuple[tuple[str, GramTriple], ...]:
    """Initial Gram triples from which a structurally reachable target
    would be reached: the bare seed, plus, for every detected confined
    case, the final triple depolarized uniformly over the confined pair's
    symmetry labels (which leaves the confined parties untouched).
    """
    out: list[tuple[str, GramTriple]] = [("seed", seed_gram())]
    seen: set[Pair] = set()
    for match in classify_gram(final).locc_cases:
        if match.pair in seen:
            continue
        seen.add(match.pair)
        out.append((f"confined-{match.pair}", induced_initial(final, _triple_uniform(match.pair))))
    return tuple(out)
