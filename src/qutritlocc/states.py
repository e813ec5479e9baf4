"""States in a generic SLOCC class and their local-unitary standard form.

A state is stored in factored form: a seed plus one invertible 3x3 factor
per party.  All local-unitary information sits in the three Gram matrices
``G_i = g_i^dag g_i`` (trace-normalized), up to the residual discrete
freedom of conjugating all three Grams by one of the nine symmetry
operators.  Equivalence is decided by comparing one Gram coordinate table
with the nine gauge variants of the other; the standard form fixes the
gauge instead, by a deterministic phase-window rule on the coordinates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .pauli import (
    CONJ_TABLE,
    COORD_ORDER,
    INDEX_ORDER,
    NORM_FLOOR,
    ZERO_TOL,
    _apply_local,
    dagger,
    idx_neg,
    is_hermitian,
    is_invertible,
    pauli_coords,
    scaled_into_range,
    support_mask,
)
from .seeds import SeedParams, build_seed

#: Absolute threshold below which a trace-normalized Gram coordinate is
#: treated as vanishing when choosing gauge-fixing entries.
STD_SUPPORT_TOL = 1e-10

#: The phase window assigning a coordinate's argument to a unique residue
#: class is [-snap, 2*pi/3 - snap); the snap keeps real-positive entries
#: (argument 0, which floats may render as -1e-16) inside one window.
STD_WINDOW_SNAP = 1e-7

#: Largest gauge-orbit gap (:func:`gauge_gap`) between the Gram coordinate
#: tables of local-unitary equivalent states.
STD_COMPARE_ATOL = 1e-9


class SeedMismatchError(ValueError):
    """Raised when two states' canonical seed parameters differ.

    Equivalence is only decided within a single SLOCC class; relating
    states across different seeds is out of scope.
    """


def _same_seed(first: SeedParams, second: SeedParams, what: str) -> None:
    """Raise :class:`SeedMismatchError`, naming the compared objects
    ``what``, unless the two seeds agree by :meth:`SeedParams.close_to`."""
    if not first.close_to(second):
        raise SeedMismatchError(
            f"{what} have different canonical seed parameters; "
            "a cross-seed question is not decided"
        )


@dataclass(frozen=True, eq=False)
class GenericState:
    """A seed plus one invertible factor per party.

    The represented 27-component vector is ``(g1 (x) g2 (x) g3)|seed>``.
    Construction validates that the seed is generic (by its
    :attr:`~qutritlocc.seeds.SeedParams.genericity`, screened once per seed)
    and every factor finite and invertible, all three in one stacked
    :func:`~qutritlocc.pauli.is_invertible` call; the stored arrays are
    read-only views of one frozen copy.  The state's Gram triple is
    computed on the first :func:`gram` call and kept for the state's life,
    which the frozen factors make safe.  Equality is identity (states
    hash); whether two states are the same up to local unitaries is
    :func:`lu_equivalent`'s question.
    """

    seed: SeedParams
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        report = self.seed.genericity
        if not report.generic:
            names = ", ".join(name for name, _ in report.violations)
            raise ValueError(f"seed is not generic (violated: {names})")
        mats = [np.asarray(g, dtype=complex) for g in self.factors]
        for i, g in enumerate(mats):
            if g.shape != (3, 3):
                raise ValueError(f"factor {i} must be 3x3, got {g.shape}")
        mats = np.array(mats)
        finite = np.isfinite(mats).all(axis=(-2, -1))
        for i, (ok, invertible) in enumerate(zip(finite, is_invertible(mats))):
            if not ok:
                raise ValueError(f"factor {i} is not finite")
            if not invertible:
                raise ValueError(f"factor {i} is numerically singular")
        mats.setflags(write=False)
        object.__setattr__(self, "factors", tuple(mats))

    @functools.cached_property
    def _gram(self) -> "GramTriple":
        scaled = (scaled_into_range(g) for g in self.factors)
        return gram_triple(*(dagger(g) @ g for g in scaled))


def assemble(state: GenericState) -> np.ndarray:
    """The represented 27-component vector (not normalized), as a ray:
    the seed under the three factors, one stacked product per party.

    Each factor, and the assembled vector, passes through
    :func:`scaled_into_range`: the result is the same ray at a scale that
    cannot over- or underflow however large or small the factors are, and
    at ordinary scale it is the vector itself.
    """
    factors = np.array([scaled_into_range(g) for g in state.factors])
    seed = build_seed(state.seed).reshape(1, 3, 3, 3)
    return scaled_into_range(_apply_local(factors[None], seed).reshape(27))


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
    give the same triple.  The triple is computed once per state: every
    later call on the same state returns the same (read-only) object.
    """
    return state._gram


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
    if w[0] <= ZERO_TOL * max(abs(w[-1]), NORM_FLOOR):
        raise ValueError(f"matrix is not positive-definite (min eigenvalue {w[0]:.3e})")
    return (u * np.sqrt(w)) @ dagger(u)


def span_factor(m: np.ndarray, w: tuple[int, int]) -> np.ndarray:
    """Positive factor of a matrix confined to ``span{I, S_w, S_{-w}}``.

    The factor is :func:`positive_factor`'s: the unique positive root of a
    matrix that commutes with ``S_w`` commutes with it too, so it is again
    confined to the span.  Confinement is read by
    :func:`~qutritlocc.pauli.support_mask` on the trace-normalized
    coordinates of ``scaled_into_range(m)``, so a Gram matrix gets its
    factor exactly when the classifier confines its party to the pair of
    ``w``.  A matrix whose trace is not positive is left to
    :func:`positive_factor`, which refuses it.
    """
    if w == (0, 0):
        raise ValueError("the span direction must be a nonzero index")
    with np.errstate(invalid="ignore"):  # non-finite entries read NaN: no support
        scaled = scaled_into_range(m)
        tr = np.trace(scaled).real
        if tr > 0:
            _, g = pauli_coords(scaled / tr)
            outside = [k not in (w, idx_neg(w)) for k in COORD_ORDER]
            if support_mask(g)[outside].any():
                off = np.abs(g[outside]).max()
                raise ValueError(f"matrix is not confined to the span (off-span modulus {off:.3e})")
    return positive_factor(m)


# ---------------------------------------------------------------------------
# Standard form under the residual symmetry gauge
# ---------------------------------------------------------------------------

def gauge_gap(tables: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Distance from each coordinate table of a stack ``(..., 3, 8)`` to
    the symmetry-gauge orbit of ``target`` ``(3, 8)``.

    The gap of a table is the smallest, over its nine gauge variants
    ``table * CONJ_TABLE[1:].T``, of the largest entrywise modulus of the
    variant minus ``target``: one broadcast and one reduction.  Two tables
    of one seed's class are local-unitary equivalent exactly when their
    gap is within :data:`STD_COMPARE_ATOL`.  No canonical gauge is chosen,
    so no pair splits where :func:`standardize_coords` flips its choice (at
    its phase window's edge or its support cut).  The character phases
    have modulus one and form a group, so the gap is symmetric in the two
    tables and never exceeds the gap between their gauge-fixed forms.  The
    result has the stack's shape.
    """
    variants = np.asarray(tables, dtype=complex)[..., None, :, :] * CONJ_TABLE[1:].T[:, None, :]
    return np.abs(variants - target).max(axis=(-2, -1)).min(axis=-1)


def standardize_coords(coords: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Pick the canonical gauge among the nine symmetry conjugations.

    Scanning parties then coordinates, the first entry above the support
    threshold must have its argument inside the canonical window, which
    selects three of the nine gauges; the next thresholded entry whose
    index is independent of the first selects one of those three; the
    first window gauge in :data:`INDEX_ORDER` is returned.  Gauges tie
    only when the support spans at most one negation line; their tables
    then differ only in entries at or below :data:`STD_SUPPORT_TOL`, by
    at most twice it, below :data:`STD_COMPARE_ATOL`.
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
    best = np.flatnonzero(in_window.all(axis=1))[0]
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


def standard_form(state: GenericState) -> StandardForm:
    """Standard form of a state (unitary factor dressings drop out).

    The gauge is picked by :func:`standardize_coords`'s phase window
    alone (a tie goes to the first window gauge); the choice jumps at
    the support cut and the window's edge: two states within rounding
    of one gauge orbit can get standard forms in different gauges, far
    apart entrywise.  Compare states with
    :func:`lu_equivalent`, never by their printed standard forms.
    """
    coords, gauge = standardize_coords(gram(state).coords)
    return StandardForm(seed=state.seed, coords=coords, gauge=gauge)


def lu_equivalent(s1: GenericState, s2: GenericState) -> bool:
    """Whether two states of the same seed are local-unitary equivalent.

    Within one SLOCC class that holds exactly when the two Gram coordinate
    tables lie in one orbit of the nine symmetry gauges, which
    :func:`gauge_gap` tests directly against :data:`STD_COMPARE_ATOL`;
    neither table is gauge-fixed.  Seeds are held in canonical gauge, so
    two representatives of one seed ray are the same seed.  Raises
    :class:`SeedMismatchError` when the seeds differ (cross-seed
    comparisons are not supported).
    """
    _same_seed(s1.seed, s2.seed, "states")
    return bool(gauge_gap(gram(s1).coords, gram(s2).coords) <= STD_COMPARE_ATOL)


# ---------------------------------------------------------------------------
# Party relabeling
# ---------------------------------------------------------------------------

def permute_state(state: GenericState, perm: tuple[int, int, int]) -> GenericState:
    """Relabel parties: new party ``i`` holds old party ``perm[i]``.

    Cyclic relabelings leave the seed untouched; transpositions swap the
    roles of the b and c amplitude families, so the seed becomes
    ``(a, c, b)``.  The represented vector is the party-permuted original.
    """
    if sorted(perm) != [0, 1, 2]:
        raise ValueError(f"not a permutation of (0, 1, 2): {perm}")
    seed = state.seed
    if tuple(perm) in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
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
    distance = _unit_ray_distance(v1 / n1, v2 / n2)
    return float(distance) if distance.ndim == 0 else distance


def _unit_ray_distance(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """:func:`ray_distance` of unit vectors ``u1`` (one, or a stack of
    rows) and ``u2``; the phase is taken as 1 where the overlap is zero."""
    overlap = u1 @ u2.conj()
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0)
    d = u1 - phase[..., None] * u2
    return np.sqrt((d.conj() * d).real.sum(axis=-1))  # np.linalg.norm's sum, undispatched
