"""States in a generic SLOCC class and their local-unitary standard form.

A state is stored in factored form: a seed plus one invertible 3x3 factor
per party.  All local-unitary information sits in the three Gram matrices
``G_i = g_i^dag g_i`` (trace-normalized), and the residual discrete freedom
of conjugating all three Grams by one of the nine symmetry operators is
fixed by a deterministic phase-window rule on the Gram coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import (
    CONJ_TABLE,
    INDEX_ORDER,
    PAULIS,
    ZERO_TOL,
    apply3,
    dagger,
    frob,
    is_hermitian,
    is_invertible,
    pauli_coords,
    scaled_into_range,
)
from .seeds import SeedParams, build_seed, check_generic

#: Absolute threshold below which a trace-normalized Gram coordinate is
#: treated as vanishing when choosing gauge-fixing entries.
STD_SUPPORT_TOL = 1e-10

#: The phase window assigning a coordinate's argument to a unique residue
#: class is [-snap, 2*pi/3 - snap); the snap keeps real-positive entries
#: (argument 0, which floats may render as -1e-16) inside one window.
STD_WINDOW_SNAP = 1e-7

#: Comparison tolerance between standard-form coordinate tables.
STD_COMPARE_ATOL = 1e-9


class SeedMismatchError(ValueError):
    """Raised when two states' canonical seed parameters differ.

    Equivalence is only decided within a single SLOCC class; relating
    states across different seeds is out of scope.
    """


@dataclass(frozen=True)
class GenericState:
    """A seed plus one invertible factor per party.

    The represented 27-component vector is ``(g1 (x) g2 (x) g3)|seed>``.
    Construction validates that the seed is generic and every factor
    invertible; the stored arrays are frozen copies.
    """

    seed: SeedParams
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        report = check_generic(self.seed)
        if not report.generic:
            names = ", ".join(name for name, _ in report.violations)
            raise ValueError(f"seed is not generic (violated: {names})")
        mats = []
        for i, g in enumerate(self.factors):
            g = np.asarray(g, dtype=complex)
            if g.shape != (3, 3):
                raise ValueError(f"factor {i} must be 3x3, got {g.shape}")
            if not is_invertible(g):
                raise ValueError(f"factor {i} is numerically singular")
            g = g.copy()
            g.setflags(write=False)
            mats.append(g)
        object.__setattr__(self, "factors", tuple(mats))


def assemble(state: GenericState) -> np.ndarray:
    """The represented 27-component vector (not normalized), as a ray.

    Each factor, and the assembled vector, passes through
    :func:`scaled_into_range`: the result is the same ray at a scale that
    cannot over- or underflow however large or small the factors are, and
    at ordinary scale it is the vector itself.
    """
    factors = (scaled_into_range(g) for g in state.factors)
    return scaled_into_range(apply3(*factors, build_seed(state.seed)))


@dataclass(frozen=True)
class GramTriple:
    """Trace-normalized Gram matrices of the three factors, with their
    coordinates in the displacement basis (shape (3, 8), coordinate order).

    The coordinates are derived from the matrices once they are validated,
    so the two cannot disagree.  The identity component of each Gram is
    exactly 1/3 and is left implicit; Hermiticity ties coordinates at k
    and -k together, so they vanish only in pairs.
    """

    mats: tuple[np.ndarray, np.ndarray, np.ndarray]
    coords: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        mats = np.array(self.mats, dtype=complex)
        if mats.shape != (3, 3, 3):
            raise ValueError(f"expected three 3x3 Grams, got shape {mats.shape}")
        traces = np.trace(mats, axis1=1, axis2=2).real
        for i, (hermitian, tr) in enumerate(zip(is_hermitian(mats), traces)):
            if not hermitian:
                raise ValueError(f"Gram {i} is not Hermitian")
            if abs(tr - 1.0) > ZERO_TOL:
                raise ValueError(f"Gram {i} is not trace-normalized (trace {tr})")
        mats.setflags(write=False)
        object.__setattr__(self, "mats", tuple(mats))
        c = pauli_coords(mats)[1]
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)


def gram_triple(m1: np.ndarray, m2: np.ndarray, m3: np.ndarray) -> GramTriple:
    """Build a :class:`GramTriple` from three positive matrices,
    normalizing each to unit trace."""
    mats = np.array((m1, m2, m3), dtype=complex)
    traces = np.trace(mats, axis1=1, axis2=2).real
    if (traces <= 0).any():
        raise ValueError(f"Gram {np.argmax(traces <= 0)} has non-positive trace")
    with np.errstate(invalid="ignore"):  # non-finite Grams: GramTriple rejects them
        mats /= traces[:, None, None]
    return GramTriple(tuple(mats))


def gram(state: GenericState) -> GramTriple:
    """Gram triple ``g_i^dag g_i`` of a state's factors, trace-normalized.

    Each factor passes through :func:`scaled_into_range` first; the trace
    normalization undoes its exact rescaling, so factors of any magnitude
    give the same triple.
    """
    scaled = (scaled_into_range(g) for g in state.factors)
    return gram_triple(*(dagger(g) @ g for g in scaled))


def seed_gram() -> GramTriple:
    """The Gram triple of a bare seed (identity factors): I/3 throughout."""
    third = np.eye(3, dtype=complex) / 3.0
    return gram_triple(third, third, third)


# ---------------------------------------------------------------------------
# Factoring Gram matrices
# ---------------------------------------------------------------------------

def positive_factor(g: np.ndarray) -> np.ndarray:
    """Positive square root of a positive-definite matrix.

    The unique positive factor of a Gram matrix; all other factors with the
    same Gram are unitary dressings of it.
    """
    g = np.asarray(g, dtype=complex)
    if not is_hermitian(g):
        raise ValueError("matrix is not Hermitian")
    w, u = np.linalg.eigh((g + dagger(g)) / 2.0)
    if w[0] <= ZERO_TOL * max(abs(w[-1]), 1e-300):
        raise ValueError(f"matrix is not positive-definite (min eigenvalue {w[0]:.3e})")
    return (u * np.sqrt(w)) @ dagger(u)


def span_factor(m: np.ndarray, w: tuple[int, int]) -> np.ndarray:
    """Positive factor of a matrix confined to ``span{I, S_w, S_{-w}}``.

    The three spanning operators commute, so they diagonalize in a common
    orthonormal basis; the factor is the entrywise square root there.  The
    result is again confined to the span and commutes with ``S_{+-w}``.
    """
    if w == (0, 0):
        raise ValueError("the span direction must be a nonzero index")
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian")
    s = PAULIS[w]
    cube = s @ s @ s
    if np.linalg.norm(cube - cube[0, 0] * np.eye(3)) > 1e-12:
        raise RuntimeError("displacement operator cube is not scalar")
    # Hermitian combination with guaranteed nondegenerate spectrum: the
    # eigenphases of S_w are cube roots of cube[0,0], equally spaced, so
    # offsetting by pi/9 keeps the three cosines distinct.
    theta = np.angle(cube[0, 0]) / 3.0 + np.pi / 9.0
    herm = np.exp(-1j * theta) * s + np.exp(1j * theta) * dagger(s)
    _, u = np.linalg.eigh(herm)
    d = dagger(u) @ m @ u
    diag = np.diag(d)
    off = float(np.linalg.norm(d - np.diag(diag)))
    if off > max(ZERO_TOL * max(frob(m), 1e-300), 1e-12):
        raise ValueError(f"matrix is not confined to the span (off-diagonal {off:.3e})")
    vals = diag.real
    if vals.min() <= ZERO_TOL * max(abs(vals).max(), 1e-300):
        raise ValueError(f"matrix is not positive-definite on the span (min {vals.min():.3e})")
    return (u * np.sqrt(vals)) @ dagger(u)


# ---------------------------------------------------------------------------
# Standard form under the residual symmetry gauge
# ---------------------------------------------------------------------------

def _lex_key(coords: np.ndarray) -> tuple:
    # Quantized so float noise cannot drive the tie-break: gauges that
    # differ anywhere above the snap are separated by the key, and gauges
    # that agree to the snap everywhere give coordinate tables equal far
    # below the comparison tolerance, so the choice among them is moot.
    flat = coords.ravel()
    return tuple(np.round(np.stack([flat.real, flat.imag], axis=-1).ravel(), 12).tolist())


def standardize_coords(coords: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Pick the canonical gauge among the nine symmetry conjugations.

    Scanning parties then coordinates, the first entry above the support
    threshold must have its argument inside the canonical window, which
    selects three of the nine gauges; the next thresholded entry whose
    index is independent of the first selects one of those three.  Any
    residual tie (possible only when the support is degenerate, where the
    surviving coordinate tables agree) is broken lexicographically.
    """
    coords = np.asarray(coords, dtype=complex)
    variants = coords[None, :, :] * CONJ_TABLE[1:].T[:, None, :]  # (9, 3, 8)

    # Flat positions over (party, coordinate); negation partners share a
    # line, and coordinate positions 2j, 2j+1 are partners.
    support = np.flatnonzero(np.abs(coords) > STD_SUPPORT_TOL)
    line = support % 8 // 2
    fixers = np.concatenate((support[:1], support[line != line[:1]][:1]))
    theta = np.angle(variants.reshape(9, 24)[:, fixers])
    in_window = (theta + STD_WINDOW_SNAP) % (2.0 * np.pi) < 2.0 * np.pi / 3.0
    candidates = np.flatnonzero(in_window.all(axis=1))
    best = min(candidates, key=lambda li: _lex_key(variants[li]))
    return variants[best], INDEX_ORDER[best]


@dataclass(frozen=True)
class StandardForm:
    """Gauge-fixed Gram coordinates: the complete local-unitary invariant
    of a state within its seed's SLOCC class."""

    seed: SeedParams
    coords: np.ndarray
    gauge: tuple[int, int]

    def __post_init__(self) -> None:
        c = np.asarray(self.coords, dtype=complex).copy()
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def close_to(self, other: "StandardForm") -> bool:
        """Whether the coordinate tables agree to :data:`STD_COMPARE_ATOL`."""
        if not self.seed.close_to(other.seed, STD_COMPARE_ATOL):
            raise SeedMismatchError("standard forms belong to different seeds")
        return bool(np.allclose(self.coords, other.coords, rtol=0.0, atol=STD_COMPARE_ATOL))


def standard_form_of_gram(seed: SeedParams, gt: GramTriple) -> StandardForm:
    """Standard form of a Gram triple within the class of ``seed``."""
    if not seed.is_canonical():
        raise ValueError("seed parameters must be in canonical gauge")
    coords, gauge = standardize_coords(gt.coords)
    return StandardForm(seed=seed, coords=coords, gauge=gauge)


def standard_form(state: GenericState) -> StandardForm:
    """Standard form of a state (unitary factor dressings drop out)."""
    return standard_form_of_gram(state.seed, gram(state))


def lu_equivalent(s1: GenericState, s2: GenericState) -> bool:
    """Whether two states of the same seed are local-unitary equivalent.

    Raises :class:`SeedMismatchError` when the canonical seed parameters
    differ; cross-seed comparisons are not supported.
    """
    if not s1.seed.close_to(s2.seed, STD_COMPARE_ATOL):
        raise SeedMismatchError(
            "states have different canonical seed parameters; "
            "cross-seed equivalence is not decided"
        )
    return standard_form(s1).close_to(standard_form(s2))


# ---------------------------------------------------------------------------
# Party relabeling
# ---------------------------------------------------------------------------

def _parity(perm: tuple[int, int, int]) -> int:
    inv = sum(
        1
        for i in range(3)
        for j in range(i + 1, 3)
        if perm[i] > perm[j]
    )
    return inv % 2


def permute_state(state: GenericState, perm: tuple[int, int, int]) -> GenericState:
    """Relabel parties: new party ``i`` holds old party ``perm[i]``.

    Cyclic relabelings leave the seed untouched; transpositions swap the
    roles of the b and c amplitude families, so the seed becomes
    ``(a, c, b)``.  The represented vector is the party-permuted original.
    """
    if sorted(perm) != [0, 1, 2]:
        raise ValueError(f"not a permutation of (0, 1, 2): {perm}")
    seed = state.seed
    if _parity(perm) == 1:
        seed = SeedParams(seed.a, seed.c, seed.b)
    factors = tuple(state.factors[p] for p in perm)
    return GenericState(seed=seed, factors=factors)  # type: ignore[arg-type]


def permute_vector(v: np.ndarray, perm: tuple[int, int, int]) -> np.ndarray:
    """Apply a party relabeling to a 27-component vector."""
    t = v.reshape(3, 3, 3)
    return np.transpose(t, perm).reshape(27)


def ray_distance(v1: np.ndarray, v2: np.ndarray) -> float | np.ndarray:
    """Distance between the rays of two vectors: ``min_phase ||v1' - e^{i t} v2'||``
    over normalized representatives.  Zero iff the vectors are proportional.
    ``v1`` may also be a stack of vectors ``(n, d)``; then the result is the
    array of each row's distance to ``v2``.

    Computed as an explicit phase-aligned difference; the closed form
    ``sqrt(2 - 2|<v1, v2>|)`` loses half the significant digits to
    cancellation precisely in the near-match regime that matters here.
    """
    n1, n2 = np.linalg.norm(v1, axis=-1)[..., None], np.linalg.norm(v2)
    if n2 == 0 or np.any(n1 == 0):
        raise ValueError("ray distance of a zero vector is undefined")
    u1, u2 = v1 / n1, v2 / n2
    overlap = u1 @ u2.conj()
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0)
    distance = np.linalg.norm(u1 - phase[..., None] * u2, axis=-1)
    return float(distance) if distance.ndim == 0 else distance
