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

One trace rule declares every target: each target factor h_i is rescaled
to its initial factor's Gram trace ``||g_i||_F^2`` (:func:`_matched`, a ray
rescale), as a round's unitary corrections need (de Vicente, Spee and
Kraus, PRL 111, 110502, 2013); a separable map needs only the product of
the traces to match, and the rule matches that too.  :func:`_kraus_set`
builds a separable map, and :func:`_local_protocol` a local protocol (an
initial state and a list of rounds, the last round's factors declared as
the target).  Both apply the rule and return through the one completeness
gate :func:`_checked`, so the public constructions only choose the initial
state, the factors and the weights.
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
    _apply_local,
    dagger,
    idx_neg,
    scaled_into_range,
)
from .sep import _triple_uniform, depolarize
from .states import (
    GenericState,
    _unit_ray_distance,
    assemble,
    gram,
    lu_equivalent,
    positive_factor,
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

#: Largest Frobenius norm of ``uᴴu - I`` at which a correction is unitary.
UNITARY_TOL = 1e-8

Pair = tuple[int, int]


class ProtocolError(RuntimeError):
    """A construction's validity check failed; the message says which."""


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
        # ab[n] = G0 (x) G1 as (9, 9); summing ab[n] (x) G2 over n is one
        # (81 x n) @ (n x 9) product, indexed [(a b), (i j), c, k]
        ab = (g[:, 0, :, None, :, None] * g[:, 1, None, :, None, :]).reshape(-1, 81)
        total = (ab.T @ g[:, 2].reshape(-1, 9)).reshape(9, 9, 3, 3)
        total = total.transpose(0, 2, 1, 3).reshape(27, 27)
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


def simulate_branches(obj: KrausSet | LoccProtocol) -> BranchReport:
    """Run every branch on the normalized initial state and compare each
    to the target ray within :data:`BRANCH_MATCH_TOL`.

    Branches are applied as stacks (:func:`~qutritlocc.pauli._apply_local`):
    a Kraus set's elements all at once, a protocol's outcomes round by
    round on the stacked vectors of the round before (earlier rounds'
    outcomes vary slowest).  Each branch vector is then divided by its
    norm once, and its distance to the target ray is taken between the
    unit vectors.  Zero-probability branches are reported, marked
    vacuous, and do not count against the match verdict.  A branch with a
    non-finite vector is unmatched, with residual ``inf``.  Both declared
    states are assembled as rays (:func:`~qutritlocc.states.assemble`),
    so their norms cannot overflow.
    """
    if isinstance(obj, KrausSet):
        steps = [(_stacked_factors(obj), [el.label for el in obj.elements])]
    else:
        steps = [(_round_operators(rnd), [label for label, _ in rnd.povm]) for rnd in obj.rounds]
    labels = [()]
    initial, target = assemble(obj.initial), assemble(obj.target)
    vectors = (initial / np.linalg.norm(initial)).reshape(1, 3, 3, 3)
    # a non-finite operator gives a non-finite branch and a vacuous branch
    # a zero vector: their unit vectors are NaN, and their rows are set below
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for ops, step_labels in steps:
            vectors = _apply_local(ops, vectors)
            labels = [prev + (label,) for prev in labels for label in step_labels]
        vectors = vectors.reshape(-1, 27)
        prob = (vectors.conj() * vectors).real.sum(axis=1)
        unit = vectors / np.sqrt(prob)[:, None]
        distance = _unit_ray_distance(unit, target / np.linalg.norm(target))
    finite = np.isfinite(prob)
    vacuous = finite & (prob <= VACUOUS_PROB)
    residual = np.where(vacuous, 0.0, np.where(finite, distance, np.inf))
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
    if not np.all(np.linalg.norm(dagger(u) @ u - np.eye(3), axis=(-2, -1)) <= UNITARY_TOL):
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
        raise ProtocolError(f"{what}: completeness fails (residual {residual:.3e})")
    return obj


def _matched(initial_factors, target_factors) -> tuple[np.ndarray, ...]:
    """``target_factors``, each rescaled to its initial factor's Gram trace
    ``||g||_F^2`` (a ray rescale), in one stacked pass.

    Every factor of both stacks is first divided by the power of two that
    puts its largest real or imaginary part in [0.5, 1), and each initial
    factor's power is carried onto its result, so no trace over- or
    underflows at any scale.  Powers of two are exact, so a factor matched
    to itself comes back unchanged.
    """
    x = np.array([initial_factors, target_factors], dtype=complex).view(float)
    e = np.frexp(np.abs(x).max(axis=(-2, -1), keepdims=True))[1]
    x = np.ldexp(x, -e)
    norm = np.linalg.norm(x, axis=(-2, -1), keepdims=True)
    return tuple((np.ldexp(norm[0] / norm[1], e[0]) * x[1]).view(complex))


def _kraus_set(
    initial, requested, weights, construction, what, notes=(), one_round=False
) -> KrausSet:
    """The checked Kraus set from ``initial`` onto the ray of ``requested``.

    The declared target is ``requested`` with its factors matched to the
    initial ones (:func:`_matched`); the branches carry ``sqrt(p_k)`` on
    party 0 (:func:`_branches`).  With ``one_round`` the set must also be
    one local round in which party 0 measures (:func:`_round`), and that
    is verified before completeness.
    """
    target = GenericState(requested.seed, _matched(initial.factors, requested.factors))
    elements = _branches(initial.factors, target.factors, weights, 0)
    if one_round:
        _round((0, 1, 2), elements)
    return _checked(KrausSet(elements, initial, target, construction, tuple(notes)), what)


def _local_protocol(initial, steps, construction, what, notes=()) -> LoccProtocol:
    """The checked protocol from ``initial`` through ``steps``.

    Each step ``(parties, weights, after)`` is one round: the branches from
    the factors before the step to ``after`` matched to them
    (:func:`_matched`), measured by ``parties[0]`` (:func:`_branches`,
    :func:`_round`).  The last step's matched factors are the declared
    target.
    """
    rounds = []
    before = initial.factors
    for parties, weights, after in steps:
        after = _matched(before, after)
        rounds.append(_round(parties, _branches(before, after, weights, parties[0])))
        before = after
    target = GenericState(initial.seed, before)
    return _checked(LoccProtocol(initial, tuple(rounds), target, construction, tuple(notes)), what)


def _uniform(labels) -> dict[Pair, float]:
    return dict.fromkeys(labels, 1.0 / len(labels))


def _triple(w: Pair) -> tuple[Pair, Pair, Pair]:
    return ((0, 0), w, idx_neg(w))


def _confined_initial(state: GenericState, f: int, w: Pair) -> tuple[np.ndarray, ...]:
    """``state``'s factors with party ``f``'s replaced by the positive
    confined factor of its (kept, trace-normalized) Gram depolarized over
    the triple of ``w``, matched to the factor it replaces
    (:func:`_matched`)."""
    initial = list(state.factors)
    initial[f] = span_factor(depolarize(gram(state).mats[f], _triple_uniform(w)), w)
    return _matched(state.factors, initial)


def _trivial_note(initial: GenericState, target: GenericState, note: str) -> list[str]:
    """``[note]`` when the two states, built on one seed, are LU-equivalent
    (:func:`~qutritlocc.states.lu_equivalent`), else ``[]``."""
    return [note] if lu_equivalent(initial, target) else []


def _unitized(h: np.ndarray) -> np.ndarray:
    """The unitary part of a factor's polar decomposition (scale-free): the
    declared factor of a party that is trivial at the cut, whose Gram is the
    identity only up to that cut."""
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
    overlap is reported through the completeness residual.  The requested
    target is validated first; its declared factors carry the bare seed's
    Gram trace 3.
    """
    eye = np.eye(3, dtype=complex)
    return _kraus_set(
        GenericState(seed=seed, factors=(eye, eye, eye)),
        GenericState(seed=seed, factors=(h1, h2, eye)),
        _uniform(INDEX_ORDER),
        "sep-disjoint",
        "disjoint-support separable map",
    )


def sep_map_confined(
    h1: np.ndarray,
    w: Pair,
    seed,
    h2: np.ndarray | None = None,
    h3: np.ndarray | None = None,
) -> KrausSet:
    """Separable map onto ``h1 (x) h2 (x) h3`` with parties 2 and 3
    confined to the pair ``{w, -w}``.

    Three branches labeled by the pair's symmetry triple.  The requested
    target is validated first.  The initial state carries the first
    party's Gram depolarized over the triple (its positive confined
    factor, at ``h1``'s Gram trace), with the confined factors riding
    along.  The Gram is the requested state's trace-normalized one
    (:func:`~qutritlocc.states.gram`), so completeness holds for any
    scaling of ``h1``.
    """
    eye = np.eye(3, dtype=complex)
    requested = GenericState(seed, tuple(eye if m is None else m for m in (h1, h2, h3)))
    initial = GenericState(seed, _confined_initial(requested, 0, w))
    # At parties 2 and 3 the branch operator h S_k h^{-1} is unitary exactly
    # because the factor's Gram lives in the pair's commuting span, so the
    # map is one local round; building that round verifies it.
    return _kraus_set(
        initial,
        requested,
        _uniform(_triple(w)),
        "sep-confined",
        "confined-pair separable map",
        _trivial_note(
            initial, requested, "trivial conversion: initial and target are LU-equivalent"
        ),
        one_round=True,
    )


def sep_map_from_witness(
    source: GenericState, target: GenericState, p: np.ndarray
) -> KrausSet:
    """General separable map realizing a feasibility witness.

    Given a distribution solving the conversion instance, the branch for
    label k applies ``sqrt(p_k) h_i S_k g_i^{-1}`` at each party.  Each
    target factor is declared at its source factor's Gram trace
    (ray-preserving).  The witness equation fixes only the product of the
    three traces, which this matches, so completeness follows from it.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (9,):
        raise ValueError(f"expected 9 probabilities, got shape {p.shape}")
    return _kraus_set(
        source, target, dict(zip(INDEX_ORDER, p)), "sep-witness", "witness separable map"
    )


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
    party the pair's triple.  A confined party that is trivial at the cut
    is declared unitized: the unitary part of its factor.
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
    start = (eye, eye, eye)
    after = list(h)
    if not s_c1 and not s_c2:
        after[c1], after[c2] = _unitized(h[c1]), _unitized(h[c2])
        steps = [((f, c1, c2), _uniform(INDEX_ORDER), after)]
        construction, what = "locc-nine-outcome", "nine-outcome local protocol"
        notes = ["trivial factors unitized"]
    elif (s_c1 and s_c2) or w in s_f:
        start = _confined_initial(target, f, w)
        steps = [((f, c1, c2), _uniform(_triple(w)), h)]
        construction, what, notes = "locc-one-round", "one-round local protocol", []
    else:
        cn, ct = (c1, c2) if s_c1 else (c2, c1)
        middle = [eye, eye, eye]
        middle[cn] = h[cn]
        after[ct] = _unitized(h[ct])
        steps = [
            ((cn, f, ct), _uniform(INDEX_ORDER), middle),
            ((f, cn, ct), _uniform(_triple(w)), after),
        ]
        construction, what = "locc-two-stage", "two-stage local protocol"
        notes = ["trivial factor unitized"]
    initial = GenericState(seed=target.seed, factors=start)
    return _local_protocol(initial, steps, construction, what, notes)


def locc_convert_step(source: GenericState) -> LoccProtocol:
    """One conversion step away from a locally convertible state.

    The unconfined party measures the three labels of the confined pair's
    triple with weights ``(1 - 2 eps/3, eps/3, eps/3)``; the target divides
    that party's off-triple Gram coordinates by ``1 - eps``.  When the
    measuring party is itself confined (so the rule would be trivial) the
    triple is measured uniformly and the target instead acquires a fresh
    coordinate pair outside the triple.  Step sizes are halved from 1/2
    (perturbations from 1/10) until the target Gram keeps a positive
    margin, so the step is the largest of them that does.
    """
    source_gram = gram(source)
    cls = classify_gram(source_gram)
    if not cls.convert_cases:
        raise ValueError("source is not locally one-step convertible")
    match = cls.convert_cases[0]
    m_party = match.parties[0]
    w = match.pair
    assert w is not None

    ghat = source_gram.mats[m_party]

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
        eps, hhat = _largest_step(lambda e: kept + (ghat - kept) / (1.0 - e), 0.5, "step size")
        weights = dict(zip(_triple(w), (1.0 - 2.0 * eps / 3.0, eps / 3.0, eps / 3.0)))
        notes = [f"step size {eps:.6g} on pair {w}"]

    after = list(source.factors)
    after[m_party] = positive_factor(hhat)
    notes += _trivial_note(
        source,
        GenericState(seed=source.seed, factors=after),
        "trivial step: source and target are LU-equivalent",
    )
    step = (match.parties, weights, after)
    return _local_protocol(source, [step], "locc-convert-step", "conversion step", notes)
