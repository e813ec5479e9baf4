"""Constructive separable maps and local protocols between class states.

Every construction here outputs explicit measurement operators together
with the initial and target states they relate, so that completeness and
branch correctness can be verified by direct simulation rather than
trusted.  The workhorse identity is that the nine symmetry triples act
trivially on the seed: a branch operator of the form
``(h1 S_k (x) h2 S_k (x) h3 S_k)`` applied to the seed equals
``(h1 (x) h2 (x) h3)`` applied to it, for every label k.

Every branch operator is built in one place, the kernel :func:`_branches`:
from initial factors g_i to target factors h_i, the branch for label k is
``sqrt(p_k) (h1 S_k g1^{-1} (x) h2 S_k g2^{-1} (x) h3 S_k g3^{-1})`` with the
weight on one party's factor (the separable form of Gour and Wallach, NJP
13, 073013, 2011).  The adapter :func:`_round` turns such a set into one
local round: that party measures, and the other two apply their factors
``h S_k g^{-1}`` as outcome-conditioned corrections, which are unitary in
every situation these constructions produce (and are verified to be).
A local protocol is an initial state and a list of such rounds, built by
:func:`_local_protocol`, and every construction returns through the one
completeness gate :func:`_checked`.  The public constructions only choose
the factors and the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import classify_gram
from .pauli import (
    BASIS,
    INDEX_ORDER,
    INDEX_POS,
    PAIR_REPS,
    PAULIS,
    ZERO_TOL,
    dagger,
    idx_neg,
    scaled_into_range,
)
from .sep import _triple_uniform, depolarize
from .states import (
    GenericState,
    assemble,
    gram,
    lu_equivalent,
    positive_factor,
    ray_distance,
    span_factor,
)

#: Completeness residual bound for measurement operator sets.
POVM_TOL = 1e-10

#: Ray-distance bound for a branch to count as reaching the target.
BRANCH_MATCH_TOL = 1e-8

#: Branch probabilities below this are reported as vacuous.
VACUOUS_PROB = 1e-14

#: Positivity margin (smallest eigenvalue of the trace-normalized target
#: Gram) required when choosing a conversion step size.
POS_MARGIN = 1e-6

#: Smallest step size tried before giving up on a conversion step.
EPS_MIN = 1e-8

Pair = tuple[int, int]


class ProtocolError(RuntimeError):
    """A construction's validity check failed; carries the residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class KrausElement:
    """One branch operator in factored form (label, three 3x3 factors)."""

    label: Pair
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class KrausSet:
    """A complete separable measurement with declared initial and target.

    Applied to the initial state, every branch lands on the target ray.
    """

    elements: tuple[KrausElement, ...]
    initial: GenericState
    target: GenericState
    construction: str
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class LoccRound:
    """One measurement round: a party, its operators, and the outcome-
    conditioned correction unitaries at the other two parties."""

    party: int
    povm: tuple[tuple[Pair, np.ndarray], ...]
    corrections: tuple[tuple[tuple[int, np.ndarray], ...], ...]


@dataclass(frozen=True)
class LoccProtocol:
    """A finite-round local protocol with declared initial and target."""

    initial: GenericState
    rounds: tuple[LoccRound, ...]
    target: GenericState
    construction: str
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class BranchRecord:
    labels: tuple[Pair, ...]
    probability: float
    residual: float
    vacuous: bool
    matched: bool


@dataclass(frozen=True)
class BranchReport:
    """Direct simulation of every branch against the declared target."""

    branches: tuple[BranchRecord, ...]
    probability_sum: float
    max_residual: float
    all_matched: bool


# ---------------------------------------------------------------------------
# Validation and simulation
# ---------------------------------------------------------------------------

def _stacked_factors(kraus: KrausSet) -> np.ndarray:
    """The elements' factors as one ``(elements, party, 3, 3)`` array."""
    return np.array([el.factors for el in kraus.elements], dtype=complex).reshape(-1, 3, 3, 3)


@np.errstate(invalid="ignore", over="ignore")
def validate_povm(obj: KrausSet | LoccRound | LoccProtocol) -> float:
    """Completeness residual: Frobenius distance of sum M^dag M from the
    identity (27-dim for Kraus sets, 3-dim per round for protocols).

    A protocol without rounds leaves the identity and is complete (0.0).
    A non-finite sum gives ``inf``, so no tolerance test can pass it; the
    floating-point warnings on the way there are silenced.
    """
    if isinstance(obj, KrausSet):
        f = _stacked_factors(obj)
        g = dagger(f) @ f
        total = np.einsum("nai,nbj,nck->abcijk", g[:, 0], g[:, 1], g[:, 2]).reshape(27, 27)
    elif isinstance(obj, LoccRound):
        m = np.array([op for _, op in obj.povm], dtype=complex).reshape(-1, 3, 3)
        total = (dagger(m) @ m).sum(axis=0)
    elif isinstance(obj, LoccProtocol):
        return max((validate_povm(r) for r in obj.rounds), default=0.0)
    else:
        raise TypeError(f"cannot validate {type(obj).__name__}")
    residual = float(np.linalg.norm(total - np.eye(len(total))))
    return residual if np.isfinite(residual) else np.inf


def _round_operators(rnd: LoccRound) -> np.ndarray:
    """Each outcome's three local operators, ``(outcomes, party, 3, 3)``:
    the measurement at the measuring party, the corrections at theirs and
    the identity elsewhere."""
    eye = np.eye(3, dtype=complex)
    ops = []
    for (_, m), corr in zip(rnd.povm, rnd.corrections):
        local = [eye, eye, eye]
        local[rnd.party] = m
        for party, u in corr:
            local[party] = u
        ops.append(local)
    return np.array(ops, dtype=complex).reshape(-1, 3, 3, 3)


def _apply_local(ops: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Every vector ``(n, 3, 3, 3)`` under every outcome's local operator
    ``ops[o, 0] (x) ops[o, 1] (x) ops[o, 2]``, one stacked product per
    party; the result ``(n * o, 3, 3, 3)`` runs over outcomes fastest."""
    n, o = len(vectors), len(ops)
    x = vectors[:, None] @ ops[None, :, None, 2].swapaxes(-1, -2)
    x = ops[None, :, None, 1] @ x
    return (ops[None, :, 0] @ x.reshape(n, o, 3, 9)).reshape(n * o, 3, 3, 3)


def simulate_branches(obj: KrausSet | LoccProtocol) -> BranchReport:
    """Run every branch on the normalized initial state and compare each
    to the target ray within :data:`BRANCH_MATCH_TOL`.

    Branches are applied as stacks (:func:`_apply_local`): a Kraus set's
    elements all at once, a protocol's outcomes round by round on the
    stacked vectors of the round before (earlier rounds' outcomes vary
    slowest).
    Zero-probability branches are reported, marked vacuous, and do not
    count against the match verdict.  A branch with a non-finite vector
    is unmatched, with residual ``inf``.  Both declared states are
    assembled as rays (:func:`~qutritlocc.states.assemble`), so their
    norms cannot overflow.
    """
    v0 = assemble(obj.initial)
    vectors = (v0 / np.linalg.norm(v0)).reshape(1, 3, 3, 3)
    if isinstance(obj, KrausSet):
        steps = [(_stacked_factors(obj), [el.label for el in obj.elements])]
    else:
        steps = [(_round_operators(rnd), [label for label, _ in rnd.povm]) for rnd in obj.rounds]
    labels = [()]
    # a non-finite operator gives a non-finite branch, reported below
    with np.errstate(invalid="ignore", over="ignore"):
        for ops, step_labels in steps:
            vectors = _apply_local(ops, vectors)
            labels = [prev + (label,) for prev in labels for label in step_labels]
    vectors = vectors.reshape(-1, 27)

    prob = np.einsum("ni,ni->n", vectors.conj(), vectors).real
    finite = np.isfinite(prob)
    vacuous = finite & (prob <= VACUOUS_PROB)
    live = finite & ~vacuous
    residual = np.where(finite, 0.0, np.inf)
    residual[live] = ray_distance(vectors[live], assemble(obj.target))
    matched = vacuous | (residual <= BRANCH_MATCH_TOL)
    records = tuple(
        BranchRecord(labels=lab, probability=p, residual=r, vacuous=v, matched=m)
        for lab, p, r, v, m in zip(
            labels, prob.tolist(), residual.tolist(), vacuous.tolist(), matched.tolist()
        )
    )
    return BranchReport(
        branches=records,
        probability_sum=float(prob.sum()),
        max_residual=float(residual.max(initial=0.0)),
        all_matched=bool(matched.all()),
    )


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def _branches(
    initial_factors, target_factors, weights: dict[Pair, float], party: int
) -> tuple[KrausElement, ...]:
    """Branch operators ``h_i S_k g_i^{-1}`` from initial factors g to
    target factors h, one per label of ``weights`` in its order, with
    ``sqrt(p_k)`` on ``party``'s factor.  Each party's factors for all
    labels are one stacked product."""
    labels = tuple(weights)
    s = BASIS[[INDEX_POS[k] for k in labels]]
    ginvs = np.linalg.inv(np.array(initial_factors, dtype=complex))
    factors = np.array(target_factors, dtype=complex)[:, None] @ s @ ginvs[:, None]
    factors[party] *= np.sqrt([max(w, 0.0) for w in weights.values()])[:, None, None]
    return tuple(
        KrausElement(label=k, factors=tuple(factors[:, n])) for n, k in enumerate(labels)
    )


def _round(parties: tuple[int, int, int], elements) -> LoccRound:
    """One local round from a Kraus set: ``parties[0]`` measures its
    factors, ``parties[1:]`` apply theirs, in that order, as corrections."""
    party, others = parties[0], parties[1:]
    u = np.array([[el.factors[c] for c in others] for el in elements], dtype=complex)
    if not np.all(np.linalg.norm(dagger(u) @ u - np.eye(3), axis=(-2, -1)) <= 1e-8):
        raise ProtocolError(
            "correction operator is not unitary; the requested factors "
            "do not fit this construction"
        )
    return LoccRound(
        party=party,
        povm=tuple((el.label, el.factors[party]) for el in elements),
        corrections=tuple(tuple((c, el.factors[c]) for c in others) for el in elements),
    )


def _checked(obj, what: str):
    """``obj`` once its completeness residual is within :data:`POVM_TOL`."""
    residual = validate_povm(obj)
    if residual > POVM_TOL:
        raise ProtocolError(
            f"{what}: completeness fails (residual {residual:.3e})", residual
        )
    return obj


def _local_protocol(initial, steps, target, construction, what, notes=()) -> LoccProtocol:
    """The checked protocol from ``initial`` through ``steps`` to ``target``.

    Each step ``(parties, weights, after)`` is one round: the branches from
    the factors before the step to ``after``, measured by ``parties[0]``
    (:func:`_branches`, :func:`_round`).  The last step ends on the
    target's factors.
    """
    rounds = []
    before = initial.factors
    for parties, weights, after in steps:
        rounds.append(_round(parties, _branches(before, after, weights, parties[0])))
        before = after
    protocol = LoccProtocol(initial, tuple(rounds), target, construction, tuple(notes))
    return _checked(protocol, what)


def _uniform(labels) -> dict[Pair, float]:
    return dict.fromkeys(labels, 1.0 / len(labels))


def _triple(w: Pair) -> tuple[Pair, Pair, Pair]:
    return ((0, 0), w, idx_neg(w))


def _split_scale(h: np.ndarray) -> tuple[np.ndarray, int]:
    """``(hs, e)`` with ``hs = scaled_into_range(h)`` and ``h = 2**e hs``
    exactly.  Grams and traces are formed from ``hs``, which cannot over-
    or underflow, and the power of two is carried back onto the result;
    for a factor of ordinary scale ``hs`` is ``h`` and ``e`` is 0."""
    hs = scaled_into_range(h)
    return hs, int(np.frexp(np.abs(h).max())[1] - np.frexp(np.abs(hs).max())[1])


def _confined_initial(factors, f: int, w: Pair) -> tuple[np.ndarray, ...]:
    """``factors`` with party ``f``'s replaced by the positive confined
    factor of its Gram depolarized over the triple of ``w``, at the
    factor's own scale."""
    hs, e = _split_scale(factors[f])
    initial = list(factors)
    initial[f] = np.ldexp(1.0, e) * span_factor(
        depolarize(dagger(hs) @ hs, _triple_uniform(w)), w
    )
    return tuple(initial)


def _trivial_note(initial: GenericState, target: GenericState, note: str) -> list[str]:
    """``[note]`` when the two states are LU-equivalent, else ``[]``."""
    try:
        if lu_equivalent(initial, target):
            return [note]
    except ValueError:
        pass
    return []


def _scale_to_trace3(h: np.ndarray) -> tuple[np.ndarray, float]:
    hs, e = _split_scale(h)
    lam = np.sqrt(3.0 / float(np.trace(dagger(hs) @ hs).real))
    return lam * hs, np.ldexp(lam, -e)


def _unitized(h: np.ndarray) -> np.ndarray:
    """The unitary part of a factor's polar decomposition (scale-free)."""
    h = scaled_into_range(h)
    return h @ np.linalg.inv(positive_factor(dagger(h) @ h))


def _largest_step(build, start: float, what: str) -> tuple[float, np.ndarray]:
    """The largest ``start / 2**n`` not below :data:`EPS_MIN` whose Gram
    ``build(e)`` keeps the positivity margin, with that Gram."""
    e = start
    while e >= EPS_MIN:
        hhat = build(e)
        if np.linalg.eigvalsh(hhat)[0] >= POS_MARGIN:
            return e, hhat
        e /= 2.0
    raise ProtocolError(f"no {what} above {EPS_MIN} keeps the target Gram positive")


# ---------------------------------------------------------------------------
# Separable maps
# ---------------------------------------------------------------------------

def sep_map_disjoint(h1: np.ndarray, h2: np.ndarray, seed) -> KrausSet:
    """Separable map from the bare seed onto ``h1 (x) h2 (x) I``.

    Nine equally weighted branches, one per symmetry label.  Completeness
    requires the two factors' Gram coordinate supports to be disjoint;
    overlap is reported through the completeness residual.  Both factors
    are rescaled to Gram trace 3 (a ray-preserving normalization).
    """
    h1, lam1 = _scale_to_trace3(np.asarray(h1, dtype=complex))
    h2, lam2 = _scale_to_trace3(np.asarray(h2, dtype=complex))
    eye = np.eye(3, dtype=complex)
    initial = GenericState(seed=seed, factors=(eye, eye, eye))
    target = GenericState(seed=seed, factors=(h1, h2, eye))
    kraus = KrausSet(
        elements=_branches(initial.factors, target.factors, _uniform(INDEX_ORDER), 0),
        initial=initial,
        target=target,
        construction="sep-disjoint",
        notes=(f"factor rescales to Gram trace 3: {lam1:.6g}, {lam2:.6g}",),
    )
    return _checked(kraus, "disjoint-support separable map")


def sep_map_confined(
    h1: np.ndarray,
    w: Pair,
    seed,
    h2: np.ndarray | None = None,
    h3: np.ndarray | None = None,
) -> KrausSet:
    """Separable map onto ``h1 (x) h2 (x) h3`` with parties 2 and 3
    confined to the pair ``{w, -w}``.

    Three branches labeled by the pair's symmetry triple.  The initial
    state carries the first party's Gram depolarized over the triple (its
    positive confined factor), with the confined factors riding along.
    Completeness is exact for any scaling of ``h1``: the Gram is formed
    from :func:`scaled_into_range` of ``h1`` and the power of two goes back
    onto the initial factor.
    """
    eye = np.eye(3, dtype=complex)
    h = tuple(eye if m is None else np.asarray(m, dtype=complex) for m in (h1, h2, h3))
    initial = GenericState(seed=seed, factors=_confined_initial(h, 0, w))
    target = GenericState(seed=seed, factors=h)
    elements = _branches(initial.factors, target.factors, _uniform(_triple(w)), 0)
    # At parties 2 and 3 the branch operator h S_k h^{-1} is unitary exactly
    # because the factor's Gram lives in the pair's commuting span, so the
    # map is one local round; building that round verifies it.
    _round((0, 1, 2), elements)
    kraus = KrausSet(
        elements=elements,
        initial=initial,
        target=target,
        construction="sep-confined",
        notes=tuple(_trivial_note(
            initial, target, "trivial conversion: initial and target are LU-equivalent"
        )),
    )
    return _checked(kraus, "confined-pair separable map")


def sep_map_from_witness(
    source: GenericState, target: GenericState, p: np.ndarray
) -> KrausSet:
    """General separable map realizing a feasibility witness.

    Given a distribution solving the conversion instance, the branch for
    label k applies ``sqrt(p_k) h_i S_k g_i^{-1}`` at each party.  The
    target factors are rescaled so the product of their Gram traces
    matches the source's (ray-preserving); completeness then follows from
    the witness equation.  The traces are taken at the factors' scaled-
    into-range values, and target factor i carries source factor i's
    power of two, which leaves the product of the three factors as a
    common rescale would.
    """
    p = np.asarray(p, dtype=float)
    gs = [_split_scale(g) for g in source.factors]
    hs = [scaled_into_range(h) for h in target.factors]
    tr_g = np.prod([np.trace(dagger(g) @ g).real for g, _ in gs])
    tr_h = np.prod([np.trace(dagger(h) @ h).real for h in hs])
    scale = (tr_g / tr_h) ** (1.0 / 6.0)
    factors = tuple(np.ldexp(1.0, e) * (scale * h) for h, (_, e) in zip(hs, gs))
    target = GenericState(seed=target.seed, factors=factors)
    kraus = KrausSet(
        elements=_branches(source.factors, target.factors, dict(zip(INDEX_ORDER, p)), 0),
        initial=source,
        target=target,
        construction="sep-witness",
        notes=(f"target rescale {scale:.6g}",),
    )
    return _checked(kraus, "witness separable map")


# ---------------------------------------------------------------------------
# Local protocols
# ---------------------------------------------------------------------------

def locc_reach_protocol(target: GenericState, tol: float = ZERO_TOL) -> LoccProtocol:
    """Local protocol reaching a locally reachable target.

    The construction is chosen from the target's support pattern, in this
    order: from the bare seed, a nine-outcome round when both confined
    parties are trivial; a three-outcome round from the free party's Gram
    depolarized over the pair's triple when the pair is occupied at both
    confined parties or at the free party; otherwise, from the bare seed,
    the occupied confined party measures nine outcomes and then the free
    party the pair's triple.  From the bare seed the target declares the
    measuring factors at Gram trace 3 and the trivial factors unitized.
    """
    cls = classify_gram(gram(target), tol)
    if not cls.locc_cases:
        raise ValueError("target is not locally reachable from any LU-inequivalent state")
    match = cls.locc_cases[0]
    f, c1, c2 = match.parties
    w = match.pair
    assert w is not None
    s_f, s_c1, s_c2 = (cls.pattern.pairs[p] for p in match.parties)
    h = target.factors
    eye = np.eye(3, dtype=complex)
    declared = [eye, eye, eye]
    if not s_c1 and not s_c2:
        declared[f], lam = _scale_to_trace3(h[f])
        for c in (c1, c2):
            declared[c] = _unitized(h[c])
        steps = [((f, c1, c2), _uniform(INDEX_ORDER), declared)]
        construction, what = "locc-nine-outcome", "nine-outcome local protocol"
        note = f"measuring factor rescaled by {lam:.6g}; trivial factors unitized"
    elif (s_c1 and s_c2) or w in s_f:
        initial = GenericState(seed=target.seed, factors=_confined_initial(h, f, w))
        step = ((f, c1, c2), _uniform(_triple(w)), h)
        return _local_protocol(
            initial, [step], target, "locc-one-round", "one-round local protocol"
        )
    else:
        cn, ct = (c1, c2) if s_c1 else (c2, c1)
        declared[cn], lam_n = _scale_to_trace3(h[cn])
        middle = list(declared)
        declared[f], lam_f = _scale_to_trace3(h[f])
        declared[ct] = _unitized(h[ct])
        steps = [
            ((cn, f, ct), _uniform(INDEX_ORDER), middle),
            ((f, cn, ct), _uniform(_triple(w)), declared),
        ]
        construction, what = "locc-two-stage", "two-stage local protocol"
        note = (
            f"measuring factors rescaled by {lam_n:.6g}, {lam_f:.6g}; "
            "trivial factor unitized"
        )
    return _local_protocol(
        GenericState(seed=target.seed, factors=(eye, eye, eye)),
        steps,
        GenericState(seed=target.seed, factors=tuple(declared)),
        construction,
        what,
        (note,),
    )


def locc_convert_step(
    source: GenericState,
    pair: Pair | None = None,
    eps: float | None = None,
) -> LoccProtocol:
    """One conversion step away from a locally convertible state.

    The unconfined party measures the three labels of the confined pair's
    triple with weights ``(1 - 2 eps/3, eps/3, eps/3)``; the target divides
    that party's off-triple Gram coordinates by ``1 - eps``.  When the
    measuring party is itself confined (so the rule would be trivial) the
    triple is measured uniformly and the target instead acquires a fresh
    coordinate pair outside the triple.  Step sizes are halved from 1/2
    (perturbations from 1/10) until the target Gram keeps a positive
    margin; explicit ``eps`` values are validated instead.
    """
    cls = classify_gram(gram(source))
    witnesses = cls.convert_cases
    if not witnesses:
        raise ValueError("source is not locally one-step convertible")
    if pair is not None:
        witnesses = tuple(m for m in witnesses if m.pair == pair)
        if not witnesses:
            raise ValueError(f"no conversion witness with pair {pair}")
    match = witnesses[0]
    m_party = match.parties[0]
    w = match.pair
    assert w is not None

    g_m, g_exp = _split_scale(source.factors[m_party])
    g_gram = dagger(g_m) @ g_m
    trace = float(np.trace(g_gram).real)
    ghat = g_gram / trace

    if cls.pattern.pairs[m_party] <= {w}:
        u_star = next(u for u in PAIR_REPS if u != w)
        bump = PAULIS[u_star] + dagger(PAULIS[u_star])
        delta, hhat = _largest_step(lambda d: ghat + d * bump, 0.1, "perturbation")
        weights = _uniform(_triple(w))
        notes = [
            f"measuring party confined to {w}: uniform triple weights with a "
            f"fresh coordinate pair at {u_star} (size {delta:.6g})"
        ]
    else:
        # the triple's part of the Gram is kept; the rest grows by 1/(1 - eps)
        kept = depolarize(ghat, _triple_uniform(w))

        def build(e: float) -> np.ndarray:
            return kept + (ghat - kept) / (1.0 - e)

        if eps is None:
            eps, hhat = _largest_step(build, 0.5, "step size")
        else:
            if not 0.0 <= eps < 1.0:
                raise ValueError(f"step size must lie in [0, 1), got {eps}")
            hhat = build(eps)
            if eps > 0 and np.linalg.eigvalsh(hhat)[0] < POS_MARGIN:
                raise ProtocolError(
                    f"step size {eps} drives the target Gram below the "
                    f"positivity margin {POS_MARGIN}"
                )
        weights = dict(zip(_triple(w), (1.0 - 2.0 * eps / 3.0, eps / 3.0, eps / 3.0)))
        notes = [f"step size {eps:.6g} on pair {w}"]

    target_factors = list(source.factors)
    target_factors[m_party] = np.ldexp(1.0, g_exp) * positive_factor(hhat * trace)
    target = GenericState(seed=source.seed, factors=tuple(target_factors))
    notes += _trivial_note(source, target, "trivial step: source and target are LU-equivalent")
    step = (match.parties, weights, target.factors)
    return _local_protocol(source, [step], target, "locc-convert-step", "conversion step", notes)
