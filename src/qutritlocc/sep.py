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
reduce exactly to one scalar fit per character.  They are formed already
grouped by character: each group is the outer product of the first two
parties' coordinates times a gather of the third's, and is scaled by real
reciprocals, first of its largest modulus and then of its length.  This
module solves each fit in closed form (least-squares point and
nullspace), then enumerates the polytope's vertices and reports
feasibility, uniqueness and nontriviality of the conversion.  Whether a
coordinate is zero is decided once, by
:func:`~qutritlocc.pauli.support_mask`: the one zero rule that
:func:`~qutritlocc.classify.classify`, :func:`sep_feasible` and
:func:`~qutritlocc.states.span_factor` share.
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
    NORM_FLOOR,
    ZERO_TOL,
    from_coords,
    idx_add,
    idx_neg,
    pauli_coords,
    support_mask,
)
from .seeds import SeedParams
from .states import (
    STD_COMPARE_ATOL,
    GenericState,
    GramTriple,
    _same_seed,
    gauge_gap,
    gram,
    gram_triple,
    seed_gram,
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
    return SepInstance(seed=seed, source_gram=source_gram, target_gram=target_gram)


def sep_instance(source: GenericState, target: GenericState) -> SepInstance:
    """Validate and build a :class:`SepInstance` from two states.

    Raises :class:`~qutritlocc.states.SeedMismatchError` when the two
    canonical seeds differ.
    """
    _same_seed(source.seed, target.seed, "source and target")
    return SepInstance(seed=source.seed, source_gram=gram(source), target_gram=gram(target))


@dataclass(frozen=True)
class SepFeasibility:
    """Outcome of the polytope analysis.

    ``witness`` is a distribution solving the instance (None when
    infeasible); ``vertices`` enumerates the solution polytope's corners;
    ``nontrivial`` is feasible with the two states not LU-equivalent, so
    the conversion changes the state.  ``residual`` is the witness
    residual when feasible or infeasible for it (``"witness-residual"``),
    otherwise the best affine residual.
    """

    feasible: bool
    witness: np.ndarray | None
    residual: float
    vertices: tuple[np.ndarray, ...]
    unique: bool
    nontrivial: bool
    reason: str | None


def _infeasible(residual: float, reason: str) -> SepFeasibility:
    return SepFeasibility(
        feasible=False, witness=None, residual=residual, vertices=(), unique=False,
        nontrivial=False, reason=reason,
    )


#: Most negative probability a polytope vertex may carry.
VERTEX_FEAS_TOL = 1e-10
#: Active constraints pin no vertex at ``|det|`` below this times their row norms' product.
VERTEX_DET_TOL = 1e-10
#: Largest entrywise gap at which two vertices are the same vertex.
VERTEX_DEDUPE_TOL = 1e-8
#: Largest residual of a feasible instance: the noise floor, as every
#: coordinate outside the support is exactly zero before the fit.
RESIDUAL_TOL = 1e-12


def _polytope_vertices(p0: np.ndarray, nullspace: np.ndarray) -> list[np.ndarray]:
    """Vertices of {p0 + N t : p >= 0} (a bounded polytope inside the simplex)."""
    d = nullspace.shape[1]
    if d == 0:
        return [p0] if p0.min() >= -VERTEX_FEAS_TOL else []
    vertices: list[np.ndarray] = []
    for active in itertools.combinations(range(9), d):
        block = nullspace[list(active), :]
        scale = np.prod(np.maximum(np.linalg.norm(block, axis=1), NORM_FLOOR))
        if abs(np.linalg.det(block)) <= VERTEX_DET_TOL * scale:
            continue
        t = np.linalg.solve(block, -p0[list(active)])
        p = p0 + nullspace @ t
        if p.min() < -VERTEX_FEAS_TOL:
            continue
        if all(np.max(np.abs(p - v)) > VERTEX_DEDUPE_TOL for v in vertices):
            vertices.append(p)
    return vertices


def _block_index() -> np.ndarray:
    """Row s lists the flat indices ``81 l + 9 m + n`` (positions in
    INDEX_ORDER) of the 81 product coordinates with ``l + m + n = s``.

    For each (l, m) exactly one n completes the sum, so every row lists the
    pairs (l, m) in order: ``index // 9`` is ``9 l + m``, which is checked
    here (import-time), and a block is ``c1 (x) c2`` times a gather of c3.
    """
    labels = [
        INDEX_POS[idx_add(idx_add(l, m), n)]
        for l, m, n in itertools.product(INDEX_ORDER, repeat=3)
    ]
    blocks = np.argsort(labels, kind="stable").reshape(9, 81)
    if not np.array_equal(blocks // 9, np.broadcast_to(np.arange(81), (9, 81))):
        raise RuntimeError("product blocks are not in the order of c1 (x) c2")
    return blocks


_BLOCKS = _block_index()
#: Position n of the third factor of each product in ``_BLOCKS``.
_BLOCK_THIRD = _BLOCKS % 9
#: Position of -s for each position s of INDEX_ORDER.
_NEG = np.array([INDEX_POS[idx_neg(k)] for k in INDEX_ORDER])
#: Orthonormal real columns (Re + Im of the characters, over 3): columns s and -s span
#: the distributions that move only eta_s and eta_-s.
_PAIR_BASIS = (CONJ_TABLE.real + CONJ_TABLE.imag).T / 3.0


def _block_products(coords: np.ndarray) -> np.ndarray:
    """Coordinates of ``c1 (x) c2 (x) c3`` for the source and target tables
    ``coords`` (shape (2, 3, 8)), in blocks: entry ``[:, s, j]`` is the
    product at flat index ``_BLOCKS[s, j]``, shape (2, 9, 81).

    Every block runs through ``c1 (x) c2`` in order (:func:`_block_index`),
    so a block is that outer product times the c3 entries gathered through
    ``_BLOCK_THIRD``: the 729 products of the full tensor, each formed as
    ``(c1_l c2_m) c3_n``, with no permutation of them.
    """
    c = np.concatenate([np.full((2, 3, 1), 1.0 / 3.0), coords], axis=2)
    c12 = (c[:, 0, :, None] * c[:, 1, None, :]).reshape(2, 1, 81)
    return c12 * c[:, 2].take(_BLOCK_THIRD, axis=1)


def _character_fit(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The SEP condition as one scalar fit per character, for the source
    and target coordinate tables ``coords`` (shape (2, 3, 8)).

    Coordinate (l, m, n) of ``G1 (x) G2 (x) G3`` in the basis
    ``D_l (x) D_m (x) D_n`` (D_0 = I) is ``c1_l c2_m c3_n``; that of
    ``sum_k p_k (S_k^dag)^(x3) H S_k^(x3)`` is ``h1_l h2_m h3_n eta_{l+m+n}``
    with ``eta = CONJ_TABLE @ p``, and the basis products are orthogonal
    with squared Frobenius norm 27.  So the Kronecker rows fall into nine
    blocks by ``s = l + m + n`` (:func:`_block_products`), each of rank
    one: ``sqrt(27) h_s eta_s`` against ``sqrt(27) g_s``.  Returns the norms
    ``n_s = |h_s|``, the projections ``proj_s = <h_s/|h_s|, g_s>`` and the
    ``remainder`` (the parts of the ``g_s`` orthogonal to the ``h_s``; with
    it :func:`_residual` is the Kronecker residual).

    ``h_s`` is scaled by the reciprocal of its largest modulus before its
    length is taken, as ``|h_s|^2`` can underflow, and then by the
    reciprocal of that length; a zero block stays zero.
    """
    g, h = _block_products(coords)
    peak = np.abs(h).max(axis=1)
    u = h * _reciprocal(peak)[:, None]
    length = np.linalg.norm(u, axis=1)
    u = u * _reciprocal(length)[:, None]
    proj = np.sum(u.conj() * g, axis=1)
    remainder = np.sqrt(27.0) * float(np.linalg.norm(g - proj[:, None] * u))
    return peak * length, proj, remainder


def _reciprocal(x: np.ndarray) -> np.ndarray:
    """``1 / x``, and 0 where x is 0.  numpy divides a complex number by a
    real one as the product with ``1 / x``, so scaling by this is division."""
    return 1.0 / np.where(x > 0, x, np.inf)


def _residual(eta: np.ndarray, n: np.ndarray, proj: np.ndarray, remainder: float) -> float:
    """Residual of the SEP condition and the normalisation at spectrum ``eta``."""
    r = n * eta - proj
    return float(np.sqrt(27.0 * np.vdot(r, r).real + (eta[0].real - 1.0) ** 2 + remainder**2))


def sep_feasible(inst: SepInstance, tol: float = ZERO_TOL) -> SepFeasibility:
    """Decide an instance by exact polytope analysis.

    Every coordinate of either triple outside its support at the cut
    ``tol`` (:func:`~qutritlocc.pauli.support_mask`, as in
    :func:`~qutritlocc.classify.classify_gram`) is set to zero first.  The
    spectrum is then fitted one character at a time in closed form
    (:func:`_character_fit`); the pairs whose blocks are both zero span the
    nullspace.  Then the polytope's vertices are enumerated.  Feasible means
    a distribution reproduces the initial Gram product to within
    ``RESIDUAL_TOL`` (absolute Frobenius over the 27x27 product).  The
    witness is the vertices' mean clipped to the simplex, and its residual
    is held to that bound: vertices may reach ``-VERTEX_FEAS_TOL``, and an
    instance whose clipped witness misses the bound is infeasible
    (``"witness-residual"``), unless the two states are LU-equivalent.
    Then the conversion is a local unitary, feasible as far as
    :func:`~qutritlocc.states.lu_equivalent` calls the states equivalent,
    and the witness residual is reported as it is.

    Triviality is a property of the pair, not of a vertex: the product
    coordinate ``(l, 0, 0)`` of the condition reads ``g1_l = h1_l eta_l``,
    and likewise for each party, so every feasible p depolarizes the target
    into the source itself.  The conversion is trivial exactly when the
    masked tables lie within ``STD_COMPARE_ATOL`` of one gauge orbit
    (:func:`~qutritlocc.states.gauge_gap`), the rule of
    :func:`~qutritlocc.states.lu_equivalent`.
    """
    coords = np.array([inst.source_gram.coords, inst.target_gram.coords])
    coords = coords * support_mask(coords, tol)
    n, proj, remainder = _character_fit(coords)
    # Blocks s and -s fit eta_s, one through its conjugate (0 if both are zero);
    # block 0 and normalisation eta_0.
    r = np.hypot(n, n[_NEG])
    null = r == 0
    r[null] = 1.0
    eta = (n / r * proj + n[_NEG] / r * proj[_NEG].conj()) / r
    eta[0] = (27.0 * n[0] * proj[0].real + 1.0) / (27.0 * n[0] ** 2 + 1.0)
    affine_residual = _residual(eta, n, proj, remainder)

    if affine_residual > RESIDUAL_TOL:
        return _infeasible(affine_residual, "affine-infeasible")

    p_ls = (CONJ_TABLE.conj().T @ eta).real / 9.0
    vertices = _polytope_vertices(p_ls, _PAIR_BASIS[:, null])
    if not vertices:
        return _infeasible(affine_residual, "polytope-empty")

    witness = np.clip(np.mean(vertices, axis=0), 0.0, None)
    witness = witness / witness.sum()
    residual = _residual(CONJ_TABLE @ witness, n, proj, remainder)

    # a local unitary is decided to STD_COMPARE_ATOL as lu_equivalent decides
    # it, rather than by the fit
    trivial = gauge_gap(coords[0], coords[1]) <= STD_COMPARE_ATOL
    nontrivial = not trivial
    if residual > RESIDUAL_TOL and nontrivial:
        return _infeasible(residual, "witness-residual")

    return SepFeasibility(
        feasible=True, witness=witness, residual=residual, vertices=tuple(vertices),
        unique=len(vertices) == 1, nontrivial=nontrivial, reason=None,
    )


# ---------------------------------------------------------------------------
# Canonical initial candidates for reachability checks
# ---------------------------------------------------------------------------

def candidate_initial_grams(
    final: GramTriple, tol: float = ZERO_TOL
) -> tuple[tuple[str, GramTriple], ...]:
    """Initial Gram triples from which a structurally reachable target
    would be reached: the bare seed, plus, for every confined case that
    :func:`~qutritlocc.classify.classify_gram` detects at the support cut
    ``tol``, the final triple depolarized uniformly over the confined
    pair's symmetry labels (which leaves the confined parties untouched).
    No pair repeats: two confined matches on one pair would confine all
    three parties to it, and then neither is an LOCC case.
    """
    return (("seed", seed_gram()),) + tuple(
        (f"confined-{match.pair}", induced_initial(final, _triple_uniform(match.pair)))
        for match in classify_gram(final, tol).locc_cases
    )
