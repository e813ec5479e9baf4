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

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .pauli import INDEX_ORDER, OMEGA, PAULIS, ZERO_TOL, apply3

#: Genericity margin: every scale-normalized exclusion polynomial must
#: exceed this in absolute value.
GENERIC_THRESHOLD = 1e-6

#: Residual below which a candidate pair survives the projection screen of
#: the symmetry audit (all inputs unit-normalized).
AUDIT_PROJ_TOL = 1e-8


class SymmetryCheckError(RuntimeError):
    """Raised when the seed symmetry residual is far above float noise."""


@dataclass(frozen=True)
class SeedParams:
    """Complex amplitudes (a, b, c) of a seed state.

    The canonical gauge fixes the scaling freedom: unit norm and the first
    nonzero amplitude real and positive.
    """

    a: complex
    b: complex
    c: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c], dtype=complex)

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))

    def canonical(self) -> "SeedParams":
        """Return the canonical-gauge representative of this triple."""
        v = self.as_array()
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("seed parameters must not all vanish")
        v = v / n
        for z in v:
            if abs(z) > 1e-12:
                v = v * (np.conj(z) / abs(z))
                break
        return SeedParams(complex(v[0]), complex(v[1]), complex(v[2]))

    def is_canonical(self) -> bool:
        """Whether the triple is in canonical gauge to within ``ZERO_TOL``."""
        v = self.as_array()
        if abs(np.linalg.norm(v) - 1.0) > ZERO_TOL:
            return False
        for z in v:
            if abs(z) > 1e-12:
                return abs(z.imag) <= ZERO_TOL and z.real > 0
        return False

    def close_to(self, other: "SeedParams", tol: float = 1e-9) -> bool:
        return bool(np.all(np.abs(self.as_array() - other.as_array()) <= tol))


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
    with :data:`GENERIC_THRESHOLD`, which makes the verdict independent of
    the overall scale of the triple.
    A NaN or infinite amplitude is reported as a violated ``finite``
    condition with margin 0.
    """
    amplitudes = (("a", params.a), ("b", params.b), ("c", params.c))
    non_finite = tuple(
        (f"finite {name}", 0.0) for name, z in amplitudes if not np.isfinite(z)
    )
    if non_finite:
        return GenericityReport(False, non_finite, 0.0)
    n = params.norm()
    if n == 0:
        return GenericityReport(False, (("a", 0.0), ("b", 0.0), ("c", 0.0)), 0.0)
    violations = []
    margin = np.inf
    for name, value, degree in _exclusion_polynomials(params.a, params.b, params.c):
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
    float noise means the algebra is broken, so residuals beyond 1e-8 raise
    :class:`SymmetryCheckError` rather than being returned.
    """
    psi = build_seed(params)
    scale = np.linalg.norm(psi)
    if scale == 0:
        raise ValueError("seed parameters must not all vanish")
    worst = 0.0
    for k in INDEX_ORDER:
        s = PAULIS[k]
        worst = max(worst, float(np.linalg.norm(apply3(s, s, s, psi) - psi)) / scale)
    if worst > 1e-8:
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
    a_matrix: np.ndarray


@dataclass(frozen=True)
class AuditReport:
    """Result of the exhaustive symmetry audit of a generic seed.

    For a generic seed the survivors must be exactly the nine Pauli pairs;
    anything else lands in ``surplus``.
    """

    survivors: tuple[SurvivorRecord, ...]
    surplus: tuple[SurvivorRecord, ...]
    n_candidates: int
    n_pairs: int
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


def _pauli_match(m: np.ndarray) -> tuple[int, int] | None:
    """Index of the Pauli operator proportional to ``m``, if any."""
    nm = np.linalg.norm(m)
    if nm == 0:
        return None
    for k in INDEX_ORDER:
        ov = abs(np.vdot(PAULIS[k], m)) / (np.sqrt(3.0) * nm)
        if ov >= 1.0 - 1e-8:
            return k
    return None


def symmetry_audit(params: SeedParams, proj_tol: float = AUDIT_PROJ_TOL) -> AuditReport:
    """Enumerate all candidate product symmetries of a generic seed.

    Every pair (B, C) from the monomial and dense candidate families is run
    through the projection screen; survivors get their first-party factor
    recovered by least squares and are checked as full product symmetries.
    The screen's contraction runs one probe state at a time, which bounds
    its memory to one probe's block of pair residuals.  The audit refuses
    non-generic seeds, for which the candidate narrowing arguments do not
    apply.
    """
    genericity = check_generic(params)
    if not genericity.generic:
        names = ", ".join(name for name, _ in genericity.violations)
        raise ValueError(f"symmetry audit requires a generic seed (violated: {names})")

    psi = build_seed(params)
    psi = psi / np.linalg.norm(psi)
    t = psi.reshape(3, 3, 3)
    probes = probe_states(params).conj()

    mats, labels = _all_candidates()
    n = len(mats)
    norms = np.linalg.norm(mats.reshape(n, 9), axis=1)
    unit = mats / norms[:, None, None]
    unit_rows = unit.reshape(n, 9)

    # residual[b, c, i, x] = sum_{r,s,u,v} B[b,r,s] probes[i,r,u] C[c,u,v] t[x,s,v]
    # contracted one probe i at a time, as a (n x 9) @ (9 x 3n) product,
    # so that only one probe's (n, n, 3) block is held in memory
    k0 = np.einsum("cuv,xsv->cuxs", unit, t)
    k1 = np.einsum("iru,cuxs->irscx", probes, k0).reshape(len(probes), 9, 3 * n)
    resid = np.zeros((n, n))
    for k1_probe in k1:
        block = (unit_rows @ k1_probe).reshape(n, n, 3)
        np.maximum(resid, np.linalg.norm(block, axis=2), out=resid)

    survivors: list[SurvivorRecord] = []
    surplus: list[SurvivorRecord] = []
    max_full = 0.0
    eye = np.eye(3, dtype=complex)
    for bi, ci in zip(*np.nonzero(resid <= proj_tol)):
        b_mat, c_mat = unit[bi], unit[ci]
        # recover the first-party factor by least squares on the unfolding
        target = psi.reshape(3, 9)
        lifted = apply3(eye, b_mat, c_mat, psi).reshape(3, 9)
        a_mat = target @ np.linalg.pinv(lifted)
        full = float(np.linalg.norm(apply3(a_mat, b_mat, c_mat, psi) - psi))
        kb = _pauli_match(mats[bi])
        kc = _pauli_match(mats[ci])
        ka = _pauli_match(a_mat)
        pauli = kb if (kb is not None and kb == kc and kb == ka and full <= 1e-8) else None
        rec = SurvivorRecord(
            b_label=labels[bi],
            c_label=labels[ci],
            pauli=pauli,
            projection_residual=float(resid[bi, ci]),
            full_residual=full,
            a_matrix=a_mat,
        )
        max_full = max(max_full, full)
        (survivors if pauli is not None else surplus).append(rec)

    return AuditReport(
        survivors=tuple(survivors),
        surplus=tuple(surplus),
        n_candidates=len(mats),
        n_pairs=len(mats) ** 2,
        max_full_residual=max_full,
        genericity=genericity,
    )
