"""Three-qutrit seed states and their local symmetry group.

A seed state is determined by a complex triple ``(a, b, c)``:

    a (|000> + |111> + |222>) + b (|012> + |201> + |120>)
                              + c (|021> + |210> + |102>)

For generic parameters the state's only product symmetries are the nine
triples ``S_k (x) S_k (x) S_k`` of generalized Pauli operators.  This module
constructs seeds, screens the 22 polynomial genericity conditions, verifies
the symmetry group directly, and runs an exhaustive candidate-enumeration
audit that re-derives the group from first principles.
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

#: Residual below which a candidate pair survives the projection screen of
#: the symmetry audit (all inputs unit-normalized).
AUDIT_PROJ_TOL = 1e-8

#: Slack on ``proj_tol**2`` in the quadratic-form screen of the symmetry
#: audit.  The form and the direct squared probe-0 residual are computed
#: from the same unit-normalized seed, candidates and probe, so every sum of
#: absolute products that either rounds is at most 1, and each takes fewer
#: than 100 roundings on any path: each lies within gamma_100 (about
#: 1.1e-14) of the exact squared residual.  A pair whose direct residual
#: passes the cut therefore passes the form's cut plus this slack.
AUDIT_SCREEN_MARGIN = 1e-12

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
# Candidate enumeration
# ---------------------------------------------------------------------------

def monomial_candidates() -> np.ndarray:
    """All monomial matrices with cube-root-of-unity entries, projectively.

    One invertible entry per row and column, entries from {1, w, w^2}; the
    global phase is fixed by setting the first row's entry to 1, leaving
    6 supports x 9 phase patterns = 54 projective classes.  The nine
    generalized Pauli operators appear among the 27 classes whose support
    is an even permutation.
    """
    w = OMEGA
    mats = []
    for perm in itertools.permutations(range(3)):
        for p1 in range(3):
            for p2 in range(3):
                m = np.zeros((3, 3), dtype=complex)
                m[0, perm[0]] = 1.0
                m[1, perm[1]] = w**p1
                m[2, perm[2]] = w**p2
                mats.append(m)
    return np.array(mats)


def dense_candidates() -> np.ndarray:
    """The 162 dense candidate matrices with unit top-left entry.

    Entries are cube roots of unity with row phases ``k, l`` free, column
    phases ``i, j`` free and a twist ``m in {1, 2}`` winding the lower
    2x2 block; these are exactly the dense matrices that survive the
    rank-dichotomy constraints of the audit's algebraic narrowing.
    """
    w = OMEGA
    mats = []
    for i, j, k, l in itertools.product(range(3), repeat=4):
        for m in (1, 2):
            mats.append(
                np.array(
                    [
                        [1.0, w**i, w**j],
                        [w**k, w ** (k + i + m), w ** (k + j + 2 * m)],
                        [w**l, w ** (l + i + 2 * m), w ** (l + j + m)],
                    ],
                    dtype=complex,
                )
            )
    return np.array(mats)


# ---------------------------------------------------------------------------
# The audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivorRecord:
    """One candidate pair that passed the projection screen."""

    b_label: str
    c_label: str
    pauli: tuple[int, int] | None
    projection_residual: float
    full_residual: float


@dataclass(frozen=True)
class AuditReport:
    """Result of the exhaustive symmetry audit of a generic seed.

    For a generic seed the survivors must be exactly the nine Pauli pairs;
    anything else lands in ``surplus``.  ``n_live_pairs`` counts the pairs
    that passed the first probe and so were screened by all nine.
    """

    survivors: tuple[SurvivorRecord, ...]
    surplus: tuple[SurvivorRecord, ...]
    n_candidates: int
    n_pairs: int
    n_live_pairs: int
    max_full_residual: float
    genericity: GenericityReport

    @property
    def clean(self) -> bool:
        found = {r.pauli for r in self.survivors}
        return not self.surplus and found == set(INDEX_ORDER)


@functools.cache
def _all_candidates() -> tuple[np.ndarray, list[str]]:
    """Stacked candidate array (n, 3, 3) and parallel labels, built once."""
    mono = monomial_candidates()
    dense = dense_candidates()
    labels = [f"monomial:{i}" for i in range(len(mono))] + [
        f"dense:{i}" for i in range(len(dense))
    ]
    return np.concatenate([mono, dense]), labels


#: Flat positions ``6 k + l``, ``k <= l``, of a 6 x 6 matrix's upper triangle.
_UPPER = np.array([6 * k + l for k in range(6) for l in range(k, 6)])

#: Candidates B per product of the probe-0 screen.  A block's output, 54 x
#: 216 floats (93 KB), stays below the 128 KiB from which glibc's malloc
#: maps fresh pages for each request; one 216 x 216 output (373 KB) would
#: fault its pages in on every call, about a quarter of the audit's time.
_SCREEN_ROWS = 54


@functools.cache
def _screen_candidates() -> tuple[np.ndarray, np.ndarray]:
    """The candidates scaled to unit norm, (n, 3, 3), and the real form of
    each one's rows 1-2 for the probe-0 screen, (n, 42): ``[Re, -Im]`` of
    the products ``B_k conj(B_l)``, ``k <= l``, of those rows' six entries,
    doubled off the diagonal, where each stands for itself and its
    conjugate.  Both are built once and read-only."""
    mats, _ = _all_candidates()
    n = len(mats)
    unit = mats / np.linalg.norm(mats.reshape(n, 9), axis=1)[:, None, None]
    rows = unit[:, 1:].reshape(n, 6)
    outer = (rows[:, :, None] * rows[:, None, :].conj()).reshape(n, 36).take(_UPPER, axis=1)
    twice = np.where(_UPPER // 6 == _UPPER % 6, 1.0, 2.0)
    form = (twice * outer.conj()).view(float)
    unit.setflags(write=False)
    form.setflags(write=False)
    return unit, form


def _probe0_form(k0: np.ndarray, probe0: np.ndarray) -> np.ndarray:
    """The C side of the probe-0 screen, shape (42, n), a column per
    candidate C: the cached B features of :func:`_screen_candidates` times
    it give the squared probe-0 residual of every candidate pair (B, C).

    Probe 0's row 0 is zero, so the residual vector of a pair is
    ``sum_k B_k w_c[k]`` over the six entries B_k of B's rows 1-2, with
    ``w_c`` (6 x 3) probe 0 applied to ``k0[c]``, C's lift of the seed.  Its
    squared norm is the Hermitian form ``sum_kl B_k conj(B_l) G_c[k, l]``
    with ``G_c = w_c w_c^H``; column c holds ``[Re, Im]`` of ``G_c``'s upper
    triangle.
    """
    n = len(k0)
    w = (probe0[1:] @ k0.transpose(2, 0, 1, 3).reshape(3, -1)).reshape(2, n, 9)
    w = w.transpose(1, 0, 2).reshape(n, 6, 3)
    g = w @ w.conj().transpose(0, 2, 1)
    return g.reshape(n, 36).take(_UPPER, axis=1).view(float).T


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
    """Enumerate all candidate product symmetries of a generic seed.

    Every pair (B, C) from the monomial and dense candidate families is run
    through the projection screen; survivors get their first-party factor
    recovered by least squares and are checked as full product symmetries.
    A pair's projection residual is the largest over the nine probe states
    of ``|| <probe_i| (B (x) C) |psi> ||``, so the screen runs in two exact
    stages.  Probe 0 alone screens all 46,656 pairs: its squared residual
    is a Hermitian form in B's rows 1-2 whose 6 x 6 matrix depends on C
    (:func:`_probe0_form`), evaluated for every pair as a real
    (216 x 42) @ (42 x 216) product, in blocks of rows, against features of
    the candidates cached at first use.  Pairs whose form is within
    :data:`AUDIT_SCREEN_MARGIN` of ``proj_tol**2``, a bound on the rounding
    of the form and of the direct residual, are rechecked by their direct
    probe-0 residual, which decides the live pairs (``n_live_pairs``); a
    pair probe 0 rejects cannot pass the maximum.  At ``proj_tol = 0`` the
    live pairs are those whose computed residual is exactly zero, which
    depends on the order of the roundings.  Only the live pairs get the
    residual over all nine probes, which is the ``projection_residual``
    compared with ``proj_tol``.  The seed is held in canonical gauge, so its
    probes are unit-normalized and every representative of one ray gets the
    same screen.  The audit refuses non-generic seeds, for which the
    candidate narrowing arguments do not apply, and a ``proj_tol`` that is
    not a finite number >= 0.
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

    mats, labels = _all_candidates()
    unit, b_form = _screen_candidates()
    n = len(mats)

    # residual[b, c, i, x] = sum_{r,s,u,v} probes[i,r,u] B[r,s] C[u,v] t[x,s,v],
    # through k0[c, s, u, x] = sum_v C[u,v] t[x,s,v], the seed with C applied
    k0 = np.einsum("cuv,xsv->csux", unit, t)
    # stage 1: probe 0's squared residual of every pair as a quadratic form;
    # the pairs within the rounding margin of proj_tol**2 are rechecked
    cut = proj_tol * proj_tol
    c_form = _probe0_form(k0, probes[0])
    near = np.concatenate([
        np.flatnonzero(b_form[i : i + _SCREEN_ROWS] @ c_form <= cut + AUDIT_SCREEN_MARGIN) + i * n
        for i in range(0, n, _SCREEN_ROWS)
    ])
    near_b, near_c = divmod(near, n)
    # all nine probes for those pairs, through the lift (I (x) B (x) C) psi of
    # each as [p, r, (u, x)]; probe 0's direct residual decides the live pairs
    block = probes.reshape(9, 9) @ (unit[near_b] @ k0[near_c].reshape(-1, 3, 9)).reshape(-1, 9, 3)
    live = np.vecdot(block[:, 0], block[:, 0]).real <= cut
    live_b, live_c, block = near_b[live], near_c[live], block[live]
    # stage 2: the residual over all nine probes of the live pairs
    resid = np.linalg.norm(block, axis=2).max(axis=1, initial=0.0)
    keep = resid <= proj_tol
    bi, ci, resid = live_b[keep], live_c[keep], resid[keep]

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
    matches = _pauli_match(np.concatenate([mats[bi], mats[ci], a_mats]))
    survivors: list[SurvivorRecord] = []
    surplus: list[SurvivorRecord] = []
    records = zip(bi.tolist(), ci.tolist(), resid.tolist(), full.tolist())
    for (b, c, r, f), kb, kc, ka in zip(records, matches[:m], matches[m : 2 * m], matches[2 * m :]):
        pauli = kb if (kb is not None and kb == kc == ka and f <= AUDIT_FULL_TOL) else None
        rec = SurvivorRecord(
            b_label=labels[b],
            c_label=labels[c],
            pauli=pauli,
            projection_residual=r,
            full_residual=f,
        )
        (survivors if pauli is not None else surplus).append(rec)

    return AuditReport(
        survivors=tuple(survivors),
        surplus=tuple(surplus),
        n_candidates=n,
        n_pairs=n**2,
        n_live_pairs=len(live_b),
        max_full_residual=float(full.max(initial=0.0)),
        genericity=genericity,
    )
