"""Deciding separable convertibility inside one generic SLOCC class.

A separable map built from the class symmetries turns an initial Gram
triple G into a final triple H exactly when some probability vector p over
the nine symmetry labels satisfies

    sum_k p_k (S_k^dag)^(x3) (H1 (x) H2 (x) H3) (S_k)^(x3) = G1 (x) G2 (x) G3

with both sides trace-normalized.  The solution set is a polytope: an
affine subspace of distributions intersected with the simplex.  This
module solves the linear system exactly (least squares plus nullspace),
enumerates the polytope's vertices, and reports feasibility, uniqueness
and nontriviality of the conversion.

The spectrum ``eta_l = sum_k p_k phase(l, k)`` of a distribution (its
transform under the conjugation characters) drives the per-party picture:
depolarizing a Gram matrix by p multiplies coordinate l by eta_l.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .classify import detect_sep_cases, support_pattern
from .config import resolve_tol
from .pauli import (
    INDEX_ORDER,
    INDEX_POS,
    PAULIS,
    conj_phase,
    dagger,
    idx_add,
    idx_neg,
    kron3,
)
from .seeds import SeedParams
from .states import (
    GenericState,
    GramTriple,
    gram,
    gram_triple,
    seed_gram,
    standard_form_of_gram,
)

Pair = tuple[int, int]


def depolarize(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Average of conjugates ``sum_k p_k S_k^dag h S_k``.

    Multiplies displacement coordinate l of ``h`` by the spectrum value
    ``eta_l`` of ``p``; the uniform distribution therefore projects onto
    the identity component.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (9,):
        raise ValueError(f"expected 9 probabilities, got shape {p.shape}")
    out = np.zeros((3, 3), dtype=complex)
    for weight, k in zip(p, INDEX_ORDER):
        s = PAULIS[k]
        out += weight * (dagger(s) @ h @ s)
    return out


def _spectrum_table() -> np.ndarray:
    tab = np.empty((9, 9), dtype=complex)
    for li, l in enumerate(INDEX_ORDER):
        for ki, k in enumerate(INDEX_ORDER):
            tab[li, ki] = conj_phase(l, k)
    return tab


_SPECTRUM_TABLE = _spectrum_table()


def dep_spectrum(p: np.ndarray) -> np.ndarray:
    """Spectrum of a distribution under the nine conjugation characters.

    Component l is ``sum_k p_k phase(l, k)``; the zero component is always
    1, components at k and -k are complex conjugates, and every component
    lies in the closed triangle spanned by the three cube roots of unity.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (9,):
        raise ValueError(f"expected 9 probabilities, got shape {p.shape}")
    return _SPECTRUM_TABLE @ p


def spectrum_conditions(
    coords: np.ndarray,
    eta: np.ndarray,
    tol: float = 1e-9,
) -> tuple[bool, tuple[tuple[str, tuple, float], ...]]:
    """Check the spectrum compatibility conditions for a coordinate table.

    ``coords`` is the (3, 8) coordinate table of the final Gram triple and
    ``eta`` a spectrum vector.  Two families are verified on the
    thresholded supports:

    * triple products: ``eta_l eta_m eta_n = eta_{l+m+n}`` whenever the
      three parties have nonvanishing coordinates at l, m, n (the identity
      coordinate 1/3 counts as nonvanishing at the zero index);
    * the pairwise matrix form: for each ordered party pair, the outer
      product of their coordinate vectors masks the difference between
      ``eta_l eta_m`` and ``eta_{l+m}``.

    Returns (ok, violations) with each violation a (family, indices,
    magnitude) triple.
    """
    coords = np.asarray(coords, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    full = np.empty((3, 9), dtype=complex)
    full[:, 0] = 1.0 / 3.0
    full[:, 1:] = coords
    mask = np.abs(full) > tol * (1.0 / 3.0)

    violations: list[tuple[str, tuple, float]] = []
    for li, l in enumerate(INDEX_ORDER):
        if not mask[0, li]:
            continue
        for mi, m in enumerate(INDEX_ORDER):
            if not mask[1, mi]:
                continue
            for ni, n in enumerate(INDEX_ORDER):
                if not mask[2, ni]:
                    continue
                lhs = eta[li] * eta[mi] * eta[ni]
                rhs = eta[INDEX_POS[idx_add(idx_add(l, m), n)]]
                err = abs(lhs - rhs)
                if err > tol:
                    violations.append(("triple", (l, m, n), err))

    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for li, l in enumerate(INDEX_ORDER[1:], start=1):
                if not mask[i, li]:
                    continue
                for mi, m in enumerate(INDEX_ORDER[1:], start=1):
                    if not mask[j, mi]:
                        continue
                    err = abs(eta[li] * eta[mi] - eta[INDEX_POS[idx_add(l, m)]])
                    if err > tol:
                        violations.append(("pair", (i, j, l, m), err))

    return (not violations, tuple(violations))


def induced_initial(final: GramTriple, p: np.ndarray) -> GramTriple:
    """Initial Gram triple induced by depolarizing the final one with p."""
    return gram_triple(*(depolarize(h, p) for h in final.mats))


# ---------------------------------------------------------------------------
# The feasibility engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SepInstance:
    """A conversion question: can ``source`` reach ``target`` separably?

    Both states must be generic with identical canonical seed parameters.
    """

    seed: SeedParams
    source: GenericState | None
    target: GenericState | None
    source_gram: GramTriple
    target_gram: GramTriple


def gram_instance(
    seed: SeedParams, source_gram: GramTriple, target_gram: GramTriple
) -> SepInstance:
    """Instance posed directly at the Gram level (no explicit factors)."""
    if not seed.is_canonical():
        raise ValueError("seed parameters must be in canonical gauge")
    return SepInstance(
        seed=seed,
        source=None,
        target=None,
        source_gram=source_gram,
        target_gram=target_gram,
    )


def sep_instance(source: GenericState, target: GenericState) -> SepInstance:
    """Validate and build a :class:`SepInstance` from two states."""
    if not source.seed.is_canonical() or not target.seed.is_canonical():
        raise ValueError("seed parameters must be in canonical gauge")
    if not source.seed.close_to(target.seed):
        raise ValueError(
            "source and target have different canonical seed parameters; "
            "they belong to different SLOCC classes"
        )
    return SepInstance(
        seed=source.seed,
        source=source,
        target=target,
        source_gram=gram(source),
        target_gram=gram(target),
    )


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


def _polytope_vertices(p0: np.ndarray, nullspace: np.ndarray, feas_tol: float = 1e-10) -> list[np.ndarray]:
    """Vertices of {p0 + N t : p >= 0} (a bounded polytope inside the simplex)."""
    d = nullspace.shape[1]
    if d == 0:
        return [p0] if p0.min() >= -feas_tol else []
    vertices: list[np.ndarray] = []
    for active in itertools.combinations(range(9), d):
        block = nullspace[list(active), :]
        scale = np.prod(np.maximum(np.linalg.norm(block, axis=1), 1e-300))
        det = np.linalg.det(block) if d > 0 else 1.0
        if abs(det) <= 1e-10 * scale:
            continue
        t = np.linalg.solve(block, -p0[list(active)])
        p = p0 + nullspace @ t
        if p.min() < -feas_tol:
            continue
        if all(np.max(np.abs(p - v)) > 1e-8 for v in vertices):
            vertices.append(p)
    return vertices


def sep_feasible(inst: SepInstance, tol: float | None = None) -> SepFeasibility:
    """Decide an instance by exact polytope analysis.

    Builds the 729-row complex system (one row per entry of the 27x27 Gram
    product), stacks it as 1459 real rows including the normalisation row,
    solves for the affine solution set by least squares and a thin SVD,
    and enumerates polytope vertices.  Feasible means a distribution
    reproduces the initial Gram product to within the tolerance (absolute
    Frobenius, default 1e-9).  Raises ``ValueError`` for a seed outside
    the canonical gauge.
    """
    if not inst.seed.is_canonical():
        raise ValueError("seed parameters must be in canonical gauge")
    t = resolve_tol(tol)
    h1, h2, h3 = inst.target_gram.mats
    columns = []
    for k in INDEX_ORDER:
        s = PAULIS[k]
        sd = dagger(s)
        columns.append(kron3(sd @ h1 @ s, sd @ h2 @ s, sd @ h3 @ s).ravel())
    d_ops = np.array(columns).T  # (729, 9) complex
    g_full = kron3(*inst.source_gram.mats).ravel()

    a_real = np.vstack(
        [
            d_ops.real,
            d_ops.imag,
            np.ones((1, 9)),
        ]
    )
    b_real = np.concatenate([g_full.real, g_full.imag, [1.0]])

    p_ls, _, _, _ = np.linalg.lstsq(a_real, b_real, rcond=None)
    affine_residual = float(np.linalg.norm(a_real @ p_ls - b_real))

    if affine_residual > t:
        return SepFeasibility(
            feasible=False,
            witness=None,
            residual=affine_residual,
            vertices=(),
            unique=False,
            affine_dim=-1,
            vertex_trivial=(),
            nontrivial=False,
            reason="affine-infeasible",
        )

    _, sv, vh = np.linalg.svd(a_real, full_matrices=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    nullspace = vh[rank:].T  # (9, 9-rank)

    vertices = _polytope_vertices(p_ls, nullspace)
    if not vertices:
        return SepFeasibility(
            feasible=False,
            witness=None,
            residual=affine_residual,
            vertices=(),
            unique=False,
            affine_dim=-1,
            vertex_trivial=(),
            nontrivial=False,
            reason="polytope-empty",
        )

    witness = np.mean(vertices, axis=0)
    witness = np.clip(witness, 0.0, None)
    witness = witness / witness.sum()
    residual = float(np.linalg.norm(a_real @ witness - b_real))

    if len(vertices) == 1:
        affine_dim = 0
    else:
        diffs = np.array(vertices[1:]) - vertices[0]
        dsv = np.linalg.svd(diffs, compute_uv=False)
        affine_dim = int(np.sum(dsv > 1e-9 * max(dsv[0], 1e-300)))

    sf_target = standard_form_of_gram(inst.seed, inst.target_gram)
    vertex_trivial = []
    for v in vertices:
        induced = induced_initial(inst.target_gram, v)
        sf_induced = standard_form_of_gram(inst.seed, induced)
        vertex_trivial.append(sf_induced.close_to(sf_target))

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

def candidate_initial_grams(
    final: GramTriple, tol: float | None = None
) -> tuple[tuple[str, GramTriple], ...]:
    """Initial Gram triples from which a structurally reachable target
    would be reached: the bare seed, plus, for every detected confined
    case, the final triple depolarized uniformly over the confined pair's
    symmetry labels (which leaves the confined parties untouched).
    """
    out: list[tuple[str, GramTriple]] = [("seed", seed_gram())]
    pattern = support_pattern(final, tol)
    seen: set[Pair] = set()
    for match in detect_sep_cases(pattern):
        if match.kind != "confined" or match.pair is None or match.pair in seen:
            continue
        seen.add(match.pair)
        p = np.zeros(9)
        for k in ((0, 0), match.pair, idx_neg(match.pair)):
            p[INDEX_POS[k]] = 1.0 / 3.0
        out.append((f"confined-{match.pair}", induced_initial(final, p)))
    return tuple(out)
