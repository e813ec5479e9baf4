"""Random instance generation for tests, benchmarks and the CLI.

Every generator draws structure first (which parties are trivial, which
coordinate pairs are occupied, with what magnitudes), dresses factors
with Haar-random unitaries, then re-classifies the assembled state and
rejects anything that missed its class.  Magnitudes are kept well inside
positivity bounds so instances never sit on a numerical knife edge.
"""

from __future__ import annotations

import numpy as np

from .classify import Classification, classify
from .pauli import PAIR_REPS, PAULIS, dagger
from .seeds import SeedParams
from .states import GenericState, positive_factor

#: Give up on a rejection-sampling loop after this many draws.
MAX_REJECTS = 10_000

#: Genericity margin of the seeds :func:`random_seed_params` draws, far
#: above the screen's own threshold.
_SEED_MARGIN = 1e-3

#: Instance kinds understood by :func:`random_state`.
KINDS = ("seed", "generic", "disjoint", "confined", "tiling", "convertible", "dense")

Pair = tuple[int, int]


def random_seed_params(rng: np.random.Generator) -> SeedParams:
    """Draw canonical seed amplitudes with genericity margin at least
    :data:`_SEED_MARGIN`."""
    for _ in range(MAX_REJECTS):
        raw = rng.standard_normal(6)
        params = SeedParams(
            a=complex(raw[0], raw[1]),
            b=complex(raw[2], raw[3]),
            c=complex(raw[4], raw[5]),
        )
        report = params.genericity
        if report.generic and report.margin >= _SEED_MARGIN:
            return params
    raise RuntimeError(
        f"no generic seed with margin {_SEED_MARGIN} found in {MAX_REJECTS} draws"
    )


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 3x3 unitary."""
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _pair_gram(
    rng: np.random.Generator, pairs: list[Pair], lo: float, hi: float
) -> np.ndarray:
    """Trace-1 positive matrix supported exactly on the given pairs."""
    m = np.eye(3, dtype=complex) / 3.0
    for w in pairs:
        z = rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.random())
        m = m + z * PAULIS[w] + np.conj(z) * dagger(PAULIS[w])
    return m


def _pair_factor(
    rng: np.random.Generator, pairs: list[Pair], lo: float = 0.02, hi: float = 0.15
) -> np.ndarray:
    """Random factor whose Gram occupies exactly the given pairs."""
    if len(pairs) > 1:
        hi = min(hi, 0.08)
    while True:
        m = _pair_gram(rng, pairs, lo, hi)
        if np.linalg.eigvalsh(m)[0] >= 0.01:
            return random_unitary(rng) @ positive_factor(m)


def _trivial_factor(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.7, 1.3) * random_unitary(rng)


def _dense_factor(rng: np.random.Generator) -> np.ndarray:
    u = random_unitary(rng)
    v = random_unitary(rng)
    d = np.diag(rng.uniform(0.5, 1.5, size=3)).astype(complex)
    return u @ d @ v


def _draw_factors(
    kind: str, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    eye = np.eye(3, dtype=complex)
    perm = list(rng.permutation(3))
    factors: list[np.ndarray] = [eye, eye, eye]

    if kind == "seed":
        return tuple(factors)
    if kind in ("generic", "dense"):
        return tuple(_dense_factor(rng) for _ in range(3))

    if kind == "disjoint":
        reps = [PAIR_REPS[i] for i in rng.permutation(4)]
        first = [reps[0]]
        second = [reps[1], reps[2]] if rng.random() < 0.3 else [reps[1]]
        factors[perm[0]] = _trivial_factor(rng)
        factors[perm[1]] = _pair_factor(rng, first)
        factors[perm[2]] = _pair_factor(rng, second)
        return tuple(factors)

    if kind == "tiling":
        reps = [PAIR_REPS[i] for i in rng.permutation(4)]
        factors[perm[0]] = _trivial_factor(rng)
        factors[perm[1]] = _pair_factor(rng, reps[:2])
        factors[perm[2]] = _pair_factor(rng, reps[2:])
        return tuple(factors)

    if kind == "confined":
        w = PAIR_REPS[rng.integers(4)]
        factors[perm[0]] = _dense_factor(rng)
        factors[perm[1]] = _pair_factor(rng, [w])
        factors[perm[2]] = (
            _trivial_factor(rng) if rng.random() < 0.3 else _pair_factor(rng, [w])
        )
        return tuple(factors)

    if kind == "convertible":
        w = PAIR_REPS[rng.integers(4)]
        roll = rng.random()
        if roll < 0.4:
            third = _dense_factor(rng)
        elif roll < 0.7:
            others = [u for u in PAIR_REPS if u != w]
            picks = [others[i] for i in rng.permutation(3)[:2]]
            third = _pair_factor(rng, picks)
        else:
            u = PAIR_REPS[rng.integers(4)]
            third = _pair_factor(rng, [u])
        factors[perm[0]] = third
        factors[perm[1]] = _pair_factor(rng, [w])
        factors[perm[2]] = (
            _trivial_factor(rng) if rng.random() < 0.3 else _pair_factor(rng, [w])
        )
        return tuple(factors)

    raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")


def _gate(kind: str, cls: Classification) -> bool:
    if kind in ("seed", "generic"):
        return True
    if kind == "disjoint":
        return any(m.kind == "disjoint" for m in cls.sep_cases)
    if kind == "confined":
        return cls.locc_reachable
    if kind == "tiling":
        return cls.support_tiling
    if kind == "convertible":
        return bool(cls.convert_cases)
    if kind == "dense":
        return cls.isolated and all(len(s) == 4 for s in cls.pattern.pairs)
    raise ValueError(f"unknown kind {kind!r}")


def random_state(
    kind: str,
    rng: np.random.Generator,
    params: SeedParams | None = None,
) -> GenericState:
    """Draw a state of the requested kind on a (possibly shared) seed.

    Raises ``RuntimeError`` if rejection sampling cannot hit the kind's
    classification gate, which would indicate a recipe bug rather than
    bad luck.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if params is None:
        params = random_seed_params(rng)
    for _ in range(MAX_REJECTS):
        state = GenericState(seed=params, factors=_draw_factors(kind, rng))
        if _gate(kind, classify(state)):
            return state
    raise RuntimeError(f"generator for kind {kind!r} failed its gate {MAX_REJECTS} times")
