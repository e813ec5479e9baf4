"""Three-qutrit seed states and their local symmetry group.

A seed state is determined by a complex triple ``(a, b, c)``:

    a (|000> + |111> + |222>) + b (|012> + |201> + |120>)
                              + c (|021> + |210> + |102>)

For generic parameters the state's only product symmetries are the nine
triples ``S_k (x) S_k (x) S_k`` of generalized Pauli operators.  This module
constructs seeds, screens the 22 polynomial genericity conditions, verifies
the nine symmetries directly, and audits them from first principles.

The audit rests on the slice cubics.  Party 1's cubic is
``F_1(x) = det(sum_j x_j psi[:, j, :])``, which for a seed is proportional
to ``x0^3 + x1^3 + x2^3 + t x0 x1 x2`` with ``t = -(a^3+b^3+c^3)/(abc)``: a
member of the Hesse pencil, smooth for a generic seed, and the slices of
party 2 give the same cubic.  A symmetry ``A (x) B (x) C`` maps ``F_1`` to
``det(A) det(C) F_1(B^T x)``, so ``B`` fixes ``F_1`` up to scale, and ``C``
fixes ``F_2``.  The projective automorphisms of a smooth cubic of the Hesse
pencil lie in the Hessian group of order 216 (Artebani and Dolgachev,
L'Enseignement Math. 55, 2009), the one-qutrit Clifford group modulo
phases: 18 of them, 36 at j = 1728 (``t^3 = -270 +- 162 sqrt(3)``) and 54
at j = 0 (``t^3 = 216``).  So the audit checks exactly the pairs of
elements of one 216-element table that fix the two cubics, and no
symmetry escapes the restriction.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .pauli import BASIS, INDEX_ORDER, OMEGA, ZERO_TOL

#: Genericity margin: every scale-normalized exclusion polynomial must
#: exceed this in absolute value.
GENERIC_THRESHOLD = 1e-6

#: Residual below which a stabilizer pair survives the projection screen of
#: the symmetry audit (all inputs unit-normalized).
AUDIT_PROJ_TOL = 1e-8

#: Largest sine of the angle between a slice cubic's coefficients and those
#: of the cubic moved by a table element that still counts the element as
#: fixing the cubic.  A true stabilizer element reads rounding, below 1e-14;
#: every other element read at least 3e-2 on the seeds drawn from
#: ``default_rng(0)`` to ``default_rng(99)``.  The cut
#: sits far above rounding, so rounding can only add elements, never drop
#: them, and an added element only adds pairs that the probe residual and
#: the full residual still judge.
AUDIT_STABILIZER_TOL = 1e-6

#: A surviving pair of the symmetry audit is a Pauli triple only when the
#: full residual of its recovered product operator is at or below this.
AUDIT_FULL_TOL = 1e-8

#: Amplitudes of modulus at or below this are skipped when the first
#: nonzero amplitude fixes the canonical phase.
AMPLITUDE_ZERO_TOL = 1e-12

#: Entrywise bound of :meth:`SeedParams.close_to`.
SEED_CLOSE_TOL = 1e-9

#: Relative symmetry residual above which :func:`verify_symmetries` raises.
SYMMETRY_RESIDUAL_TOL = 1e-8

#: Cauchy-Schwarz slack within which a matrix matches a Pauli operator.
PAULI_MATCH_TOL = 1e-8


class SymmetryCheckError(RuntimeError):
    """Raised when the seed symmetry residual is far above float noise."""


@dataclass(frozen=True)
class SeedParams:
    """Complex amplitudes (a, b, c) of a seed state, held in canonical gauge.

    A seed is fixed only up to scale.  Construction stores the canonical
    representative of the given triple: unit norm and the first amplitude
    of modulus above :data:`AMPLITUDE_ZERO_TOL` real and positive.  A triple
    already canonical to within ``ZERO_TOL`` is kept bit for bit, an
    all-zero triple raises ``ValueError``, and a non-finite triple is kept
    as given so that :func:`check_generic` names the bad amplitude.
    """

    a: complex
    b: complex
    c: complex

    def __post_init__(self) -> None:
        abc = (complex(self.a), complex(self.b), complex(self.c))
        if all(map(cmath.isfinite, abc)):
            abc = _canonical(abc)
        for name, z in zip("abc", abc):
            object.__setattr__(self, name, z)

    @functools.cached_property
    def genericity(self) -> "GenericityReport":
        """The seed's :func:`check_generic` report, computed once."""
        return check_generic(self)

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c], dtype=complex)

    def close_to(self, other: "SeedParams") -> bool:
        return bool(np.all(np.abs(self.as_array() - other.as_array()) <= SEED_CLOSE_TOL))


def _canonical(abc: tuple[complex, complex, complex]) -> tuple[complex, ...]:
    """The canonical-gauge representative of a finite triple.

    The triple itself when it is canonical to within ``ZERO_TOL``.
    Otherwise it is first scaled by the power of two that puts its largest
    real or imaginary part in [0.5, 1), which is exact and keeps the norm
    from over- or underflowing, then divided by its norm and rotated so
    that its first amplitude above :data:`AMPLITUDE_ZERO_TOL` is real and
    positive."""
    parts = [x for z in abc for x in (z.real, z.imag)]
    if abs(math.hypot(*parts) - 1.0) <= ZERO_TOL:
        lead = next(z for z in abc if abs(z) > AMPLITUDE_ZERO_TOL)
        if abs(lead.imag) <= ZERO_TOL and lead.real > 0:
            return abc
    top = max(map(abs, parts))
    if top == 0:
        raise ValueError("seed parameters must not all vanish")
    e = -math.frexp(top)[1]
    v = np.array([complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) for z in abc])
    v = v / np.linalg.norm(v)
    lead = v[np.abs(v) > AMPLITUDE_ZERO_TOL][0]
    return tuple((v * (np.conj(lead) / abs(lead))).tolist())


def build_seed(params: SeedParams) -> np.ndarray:
    """The seed state as a 27-component vector, index ``|ijk> -> 9i+3j+k``.

    The squared norm is ``3 (|a|^2 + |b|^2 + |c|^2)``.
    """
    v = np.zeros(27, dtype=complex)
    for i, j, k in ((0, 0, 0), (1, 1, 1), (2, 2, 2)):
        v[9 * i + 3 * j + k] = params.a
    for i, j, k in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        v[9 * i + 3 * j + k] = params.b
    for i, j, k in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
        v[9 * i + 3 * j + k] = params.c
    return v


# ---------------------------------------------------------------------------
# Genericity screen
# ---------------------------------------------------------------------------

def _exclusion_polynomials(a: complex, b: complex, c: complex) -> list[tuple[str, complex, int]]:
    """The 22 exclusion polynomials as (name, value, homogeneous degree)."""
    w = OMEGA
    w2 = OMEGA**2
    return [
        ("a", a, 1),
        ("b", b, 1),
        ("c", c, 1),
        ("a^3+b^3+c^3", a**3 + b**3 + c**3, 3),
        ("(a^3+b^3+c^3)^3-(3abc)^3", (a**3 + b**3 + c**3) ** 3 - (3 * a * b * c) ** 3, 9),
        ("a^9-b^9", a**9 - b**9, 9),
        ("a^9-c^9", a**9 - c**9, 9),
        ("b^9-c^9", b**9 - c**9, 9),
        ("a+b+c", a + b + c, 1),
        ("a+w*b+c", a + w * b + c, 1),
        ("a+w2*b+c", a + w2 * b + c, 1),
        ("a+b+w*c", a + b + w * c, 1),
        ("a+b+w2*c", a + b + w2 * c, 1),
        ("a+w*b+w2*c", a + w * b + w2 * c, 1),
        ("a+w2*b+w*c", a + w2 * b + w * c, 1),
        ("ab+bc+ca", a * b + b * c + c * a, 2),
        ("ab+w*bc+ca", a * b + w * b * c + c * a, 2),
        ("ab+w2*bc+ca", a * b + w2 * b * c + c * a, 2),
        ("ab+bc+w*ca", a * b + b * c + w * c * a, 2),
        ("ab+bc+w2*ca", a * b + b * c + w2 * c * a, 2),
        ("ab+w*bc+w2*ca", a * b + w * b * c + w2 * c * a, 2),
        ("ab+w2*bc+w*ca", a * b + w2 * b * c + w * c * a, 2),
    ]


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of the genericity screen.

    ``violations`` lists (condition name, scaled magnitude) for every
    condition whose scale-normalized polynomial falls below the margin;
    ``margin`` is the smallest scaled magnitude over all 22 conditions.
    """

    generic: bool
    violations: tuple[tuple[str, float], ...]
    margin: float


def check_generic(params: SeedParams) -> GenericityReport:
    """Screen a seed triple against the 22 exclusion conditions.

    Each polynomial is divided by ``norm(a,b,c)**degree`` before comparison
    with :data:`GENERIC_THRESHOLD`.  A seed is held at unit norm, so no
    polynomial can over- or underflow, and every representative of one ray
    gets the same verdict.  A NaN or infinite amplitude is reported as a
    violated ``finite`` condition with margin 0.  The screen runs once per
    seed, through :attr:`SeedParams.genericity`.
    """
    amplitudes = (("a", params.a), ("b", params.b), ("c", params.c))
    non_finite = tuple(
        (f"finite {name}", 0.0) for name, z in amplitudes if not cmath.isfinite(z)
    )
    if non_finite:
        return GenericityReport(False, non_finite, 0.0)
    a, b, c = params.a, params.b, params.c
    n = float(np.linalg.norm((a, b, c)))
    violations = []
    margin = np.inf
    for name, value, degree in _exclusion_polynomials(a, b, c):
        scaled = abs(value) / n**degree
        margin = min(margin, scaled)
        if scaled < GENERIC_THRESHOLD:
            violations.append((name, scaled))
    return GenericityReport(not violations, tuple(violations), float(margin))


# ---------------------------------------------------------------------------
# Direct symmetry verification
# ---------------------------------------------------------------------------

def verify_symmetries(params: SeedParams) -> float:
    """Max relative residual of the nine Pauli-triple symmetries.

    Returns ``max_k || S_k^(x3) psi - psi || / ||psi||``; anything above
    float noise means the algebra is broken, so residuals beyond
    :data:`SYMMETRY_RESIDUAL_TOL` raise
    :class:`SymmetryCheckError` rather than being returned.  The nine
    triples are applied as one contraction with :data:`~qutritlocc.pauli.BASIS`
    to the seed, which is held at unit norm.
    """
    if not all(map(cmath.isfinite, (params.a, params.b, params.c))):
        raise ValueError("seed parameters must be finite")
    t = build_seed(params).reshape(3, 3, 3)
    scale = np.linalg.norm(t)
    moved = np.einsum("kai,kbj,kcl,ijl->kabc", BASIS, BASIS, BASIS, t)
    worst = float(np.linalg.norm((moved - t).reshape(9, 27), axis=1).max()) / scale
    if worst > SYMMETRY_RESIDUAL_TOL:
        raise SymmetryCheckError(f"symmetry residual {worst:.3e} is far above float noise")
    return worst


# ---------------------------------------------------------------------------
# Probe states and the projection screen
# ---------------------------------------------------------------------------

def probe_states(params: SeedParams) -> np.ndarray:
    """Nine bipartite probes on the last two parties, shape (9, 3, 3).

    Each probe has vanishing partial inner product with the seed (for every
    parameter choice, generic or not), so a product symmetry ``A(x)B(x)C``
    of the seed must satisfy ``<probe_i|(B(x)C)|psi> = 0`` for all i.
    """
    a, b, c = np.conj(params.a), np.conj(params.b), np.conj(params.c)
    probes = np.zeros((9, 3, 3), dtype=complex)
    entries = [
        (c, (1, 2), b, (2, 1)),
        (c, (2, 0), b, (0, 2)),
        (c, (0, 1), b, (1, 0)),
        (a, (1, 2), b, (0, 0)),
        (a, (2, 0), b, (1, 1)),
        (a, (0, 1), b, (2, 2)),
        (a, (2, 1), c, (0, 0)),
        (a, (0, 2), c, (1, 1)),
        (a, (1, 0), c, (2, 2)),
    ]
    for i, (plus, pos_plus, minus, pos_minus) in enumerate(entries):
        probes[i][pos_plus] = plus
        probes[i][pos_minus] = -minus
    return probes


# ---------------------------------------------------------------------------
# The Hessian group and the slice cubics
# ---------------------------------------------------------------------------

@functools.cache
def _hessian_table() -> np.ndarray:
    """The Hessian group, one unit-norm matrix per element, (216, 3, 3).

    The group is the one-qutrit Clifford group modulo phases.  It is built
    once, as 24 coset representatives ``r_j`` of the Pauli subgroup: the
    closure of the identity under left multiplication by the Fourier
    matrix and the phase gate ``diag(1, 1, w)``, one element per coset.
    Element ``9 j + k`` is ``r_j S_k``, ``S_k`` the ``k``-th Pauli in
    :data:`~qutritlocc.pauli.INDEX_ORDER`, labelled ``hessian:{9 j + k}``;
    ``r_0`` is the identity, so the first nine elements are the Paulis.
    Two unit-norm elements are one projective class when ``|<g, h>|``
    exceeds 0.9: for distinct classes it is ``|tr(g^-1 h)| / 3``, at most
    ``1 / sqrt(3)``.  The array is read-only.
    """
    w = OMEGA
    fourier = np.array([[1, 1, 1], [1, w, w * w], [1, w * w, w]]) / np.sqrt(3.0)
    generators = np.array([fourier, np.diag([1, 1, w])])

    def cosets(reps: np.ndarray) -> np.ndarray:
        return (reps[:, None] @ BASIS).reshape(-1, 9, 9)

    reps = frontier = np.eye(3)[None] / np.sqrt(3.0)
    while len(frontier):
        products = (generators[:, None] @ frontier).reshape(-1, 3, 3)
        flat = products.reshape(-1, 9)
        known = (np.abs(cosets(reps).reshape(-1, 9).conj() @ flat.T) > 0.9).any(axis=0)
        products, flat = products[~known], flat[~known]
        same = (np.abs(cosets(products).conj() @ flat.T) > 0.9).any(axis=1)
        frontier = products[~np.triu(same, 1).any(axis=0)]
        reps = np.concatenate([reps, frontier])
    table = cosets(reps).reshape(-1, 3, 3)
    table.setflags(write=False)
    return table


#: The ten cubic monomials ``x_i x_j x_k``, ``i <= j <= k``, as index triples.
_MONOMIALS = np.array(list(itertools.combinations_with_replacement(range(3), 3)))

#: Ten points of the plane, the monomials' exponent vectors: the degree-3
#: triangular lattice, on which a cubic's ten values fix its coefficients.
_POINTS = np.array([np.bincount(m, minlength=3) for m in _MONOMIALS], dtype=float)


def _monomials(y: np.ndarray) -> np.ndarray:
    """The ten cubic monomials at each point of a stack ``(..., 3)``."""
    return y[..., _MONOMIALS[:, 0]] * y[..., _MONOMIALS[:, 1]] * y[..., _MONOMIALS[:, 2]]


@functools.cache
def _cubic_action() -> tuple[np.ndarray, np.ndarray]:
    """``(interp, action)``, built once and read-only.  ``interp`` (10, 10)
    maps a cubic's values at :data:`_POINTS` to its coefficients; rows
    ``10 j`` to ``10 j + 9`` of ``action`` (240, 10) map the coefficients
    of ``F`` to those of ``x -> F(r_j^T x)``, for the coset representative
    ``r_j`` of :func:`_hessian_table`."""
    interp = np.linalg.inv(_monomials(_POINTS))
    action = (interp @ _monomials(_POINTS @ _hessian_table()[::9])).reshape(-1, 10)
    interp.setflags(write=False)
    action.setflags(write=False)
    return interp, action


def _cubic_stabilizers(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Table indices of the elements that fix the slice cubics of parties
    1 and 2 of the seed tensor ``t`` up to scale.

    Party 1's cubic is ``det(sum_j x_j t[:, j, :])``, party 2's likewise
    over ``t[:, :, k]``; each one's coefficients come from its values at
    the ten points.  The Paulis are the seed's symmetries, so they fix
    both cubics, and a stabilizer is a union of Pauli cosets: the coset of
    ``r_j`` belongs to it when the sine of the angle between the
    coefficients of ``F(r_j^T x)`` and of ``F`` is at most
    :data:`AUDIT_STABILIZER_TOL`.
    """
    interp, action = _cubic_action()
    slices = np.stack([t.transpose(1, 0, 2), t.transpose(2, 0, 1)]).reshape(2, 3, 9)
    coeffs = np.linalg.det((_POINTS @ slices).reshape(2, 10, 3, 3)) @ interp.T
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    moved = (action @ coeffs.T).reshape(-1, 10, 2).transpose(2, 0, 1)
    along = moved @ coeffs.conj()[:, :, None]
    off = np.linalg.norm(moved - along * coeffs[:, None], axis=2) / np.linalg.norm(moved, axis=2)
    stable = off <= AUDIT_STABILIZER_TOL
    return tuple((9 * np.flatnonzero(row)[:, None] + np.arange(9)).ravel() for row in stable)


# ---------------------------------------------------------------------------
# The audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivorRecord:
    """One stabilizer pair whose nine-probe residual is within ``proj_tol``."""

    b_label: str
    c_label: str
    pauli: tuple[int, int] | None
    projection_residual: float
    full_residual: float


@dataclass(frozen=True)
class AuditReport:
    """Result of the symmetry audit of a generic seed.

    For a generic seed the survivors must be exactly the nine Pauli pairs;
    anything else lands in ``surplus``.  ``stabilizer_sizes`` counts the
    table elements that fix the slice cubics of parties 1 and 2 (18 for a
    generic seed, 36 at j = 1728, 54 at j = 0), and ``n_pairs``, their
    product, the pairs checked.
    """

    survivors: tuple[SurvivorRecord, ...]
    surplus: tuple[SurvivorRecord, ...]
    n_candidates: int
    stabilizer_sizes: tuple[int, int]
    max_full_residual: float
    genericity: GenericityReport

    @property
    def n_pairs(self) -> int:
        return math.prod(self.stabilizer_sizes)

    @property
    def clean(self) -> bool:
        found = {r.pauli for r in self.survivors}
        return not self.surplus and found == set(INDEX_ORDER)


def _pauli_match(mats: np.ndarray) -> list[tuple[int, int] | None]:
    """For each matrix of a stack ``(N, 3, 3)``, the index of the Pauli
    operator proportional to it, if any.

    ``m`` matches ``S_k`` when ``|tr(S_k^dag m)| >= (1 - tol) sqrt(3) ||m||``,
    Cauchy-Schwarz equality to within ``tol`` = :data:`PAULI_MATCH_TOL`,
    which at most one of the
    orthogonal ``S_k`` can reach.  Each matrix is first divided by its largest
    |entry|, so the match does not depend on its scale; a zero matrix matches
    nothing."""
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = mats / np.abs(mats).max(axis=(1, 2), keepdims=True)
        norms = np.sqrt(3.0) * np.linalg.norm(unit.reshape(-1, 9), axis=1)
        overlap = np.abs(np.einsum("kij,nij->nk", BASIS.conj(), unit)) / norms[:, None]
    hits = overlap >= 1.0 - PAULI_MATCH_TOL
    return [
        INDEX_ORDER[k] if hit else None
        for k, hit in zip(hits.argmax(axis=1).tolist(), hits.any(axis=1).tolist())
    ]


def symmetry_audit(params: SeedParams, proj_tol: float = AUDIT_PROJ_TOL) -> AuditReport:
    """Re-derive the product symmetries of a generic seed.

    A symmetry ``A (x) B (x) C`` maps party 1's slice cubic ``F_1`` to
    ``det(A) det(C) F_1(B^T x)``, so ``B`` fixes ``F_1`` up to scale, and
    ``C`` fixes party 2's cubic ``F_2``.  A generic seed's cubics are
    smooth members of the Hesse pencil, whose projective automorphisms lie
    in the Hessian group of order 216, so ``B`` and ``C`` are, up to
    scale, elements of :func:`_hessian_table` in the cubic stabilizers of
    their parties (:func:`_cubic_stabilizers`).  Every pair of the two
    stabilizers (18 x 18 = 324 for a generic seed) gets its projection
    residual: the largest over the nine probe states of
    ``|| <probe_i| (B (x) C) |psi> ||``, contracted for all pairs as one
    ``(3 |S_1| x 3) @ (3 x 9 |S_2|)`` product and one probe product.  The
    pairs within ``proj_tol`` get their first-party factor recovered by
    least squares and are checked as full product symmetries; a pair is a
    survivor when all three factors match one Pauli operator and its full
    residual is within :data:`AUDIT_FULL_TOL`, and surplus otherwise.  The
    seed is held in canonical gauge, so its probes are unit-normalized and
    every representative of one ray gets the same audit.  The audit refuses
    non-generic seeds, whose cubics may be singular, and a ``proj_tol``
    that is not a finite number >= 0.
    """
    proj_tol = float(proj_tol)
    if not (math.isfinite(proj_tol) and proj_tol >= 0):
        raise ValueError(f"proj_tol must be a finite number >= 0, got {proj_tol}")
    genericity = params.genericity
    if not genericity.generic:
        names = ", ".join(name for name, _ in genericity.violations)
        raise ValueError(f"symmetry audit requires a generic seed (violated: {names})")

    psi = build_seed(params)
    psi = psi / np.linalg.norm(psi)
    t = psi.reshape(3, 3, 3)
    probes = probe_states(params).conj()
    unit = _hessian_table()
    s1, s2 = _cubic_stabilizers(t)
    nb, nc = len(s1), len(s2)

    # residual[i, b, c, x] = sum_{r,s,u} probes[i,r,u] B[r,s] k0[c,s,u,x], through
    # k0[c, s, u, x] = sum_v C[u,v] t[x,s,v], the seed with C applied
    k0 = np.einsum("cuv,xsv->scux", unit[s2], t).reshape(3, -1)
    lift = (unit[s1].reshape(-1, 3) @ k0).reshape(nb, 3, nc, 3, 3)
    block = probes.reshape(9, 9) @ lift.transpose(1, 3, 0, 2, 4).reshape(9, -1)
    block = block.view(float).reshape(9, nb, nc, 6)
    resid = np.sqrt(np.einsum("ibcx,ibcx->ibc", block, block).max(axis=0))
    bi, ci = np.nonzero(resid <= proj_tol)
    resid, bi, ci = resid[bi, ci], s1[bi], s2[ci]

    # recover each first-party factor by least squares on the unfolding
    b_mats, c_mats = unit[bi], unit[ci]
    target = psi.reshape(3, 9)
    lifted = np.einsum("pbj,pck,ijk->pibc", b_mats, c_mats, t).reshape(-1, 3, 9)
    a_mats = target @ np.linalg.pinv(lifted)
    moved = np.einsum("pai,pbj,pck,ijk->pabc", a_mats, b_mats, c_mats, t).reshape(-1, 27) - psi
    # each row's norm as np.linalg.norm takes one vector's, from dot products
    # of its real and imaginary parts, so it is the per-pair residual bit for bit
    full = np.sqrt(np.vecdot(moved.real, moved.real) + np.vecdot(moved.imag, moved.imag))
    m = len(bi)
    matches = _pauli_match(np.concatenate([b_mats, c_mats, a_mats]))
    survivors: list[SurvivorRecord] = []
    surplus: list[SurvivorRecord] = []
    records = zip(bi.tolist(), ci.tolist(), resid.tolist(), full.tolist())
    for (b, c, r, f), kb, kc, ka in zip(records, matches[:m], matches[m : 2 * m], matches[2 * m :]):
        pauli = kb if (kb is not None and kb == kc == ka and f <= AUDIT_FULL_TOL) else None
        rec = SurvivorRecord(
            b_label=f"hessian:{b}",
            c_label=f"hessian:{c}",
            pauli=pauli,
            projection_residual=r,
            full_residual=f,
        )
        (survivors if pauli is not None else surplus).append(rec)

    return AuditReport(
        survivors=tuple(survivors),
        surplus=tuple(surplus),
        n_candidates=len(unit),
        stabilizer_sizes=(nb, nc),
        max_full_residual=float(full.max(initial=0.0)),
        genericity=genericity,
    )
