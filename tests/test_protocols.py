import dataclasses
import warnings

import numpy as np
import pytest

from qutritlocc.classify import classify, support_pattern
from qutritlocc.pauli import PAULIS, dagger, frob, idx_neg, is_hermitian
from qutritlocc.protocols import (
    BRANCH_MATCH_TOL,
    POVM_TOL,
    POS_MARGIN,
    VACUOUS_PROB,
    KrausSet,
    LoccProtocol,
    ProtocolError,
    locc_convert_step,
    locc_reach_protocol,
    sep_map_confined,
    sep_map_disjoint,
    sep_map_from_witness,
    simulate_branches,
    validate_povm,
)
from qutritlocc.sep import gram_instance, sep_feasible
from qutritlocc.states import (
    GenericState,
    assemble,
    gram,
    lu_equivalent,
    positive_factor,
    seed_gram,
    span_factor,
)


def pair_mat(w, z=0.08):
    return np.eye(3) / 3 + z * (PAULIS[w] + dagger(PAULIS[w]))


def two_pair_mat(w1, w2, z=0.05):
    return (
        np.eye(3) / 3
        + z * (PAULIS[w1] + dagger(PAULIS[w1]))
        + z * (PAULIS[w2] + dagger(PAULIS[w2]))
    )


def span_positive(w, z=0.08):
    """An invertible factor whose Gram is confined to the pair of w."""
    return span_factor(pair_mat(w, z), w)


def dense_factor(rng):
    return rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)


def assert_valid(obj, n_branches=None):
    assert validate_povm(obj) <= POVM_TOL
    report = simulate_branches(obj)
    assert report.probability_sum == pytest.approx(1.0, abs=1e-10)
    assert report.all_matched
    assert report.max_residual <= BRANCH_MATCH_TOL
    if n_branches is not None:
        assert len(report.branches) == n_branches
    return report


# ---------------------------------------------------------------------------
# separable maps
# ---------------------------------------------------------------------------


def test_disjoint_map(params):
    h1 = positive_factor(pair_mat((1, 0)))
    h2 = positive_factor(pair_mat((0, 1), 0.06))
    kraus = sep_map_disjoint(h1, h2, params)
    assert isinstance(kraus, KrausSet)
    assert len(kraus.elements) == 9
    report = assert_valid(kraus, n_branches=9)
    # symmetric construction: every outcome is equally likely
    for b in report.branches:
        assert b.probability == pytest.approx(1 / 9, abs=1e-10)


def test_disjoint_map_two_pair_factor(params):
    h1 = positive_factor(two_pair_mat((1, 0), (1, 1)))
    h2 = positive_factor(pair_mat((0, 1), 0.06))
    assert_valid(sep_map_disjoint(h1, h2, params), n_branches=9)


def test_disjoint_map_trivial_factors(params, seed_state):
    kraus = sep_map_disjoint(np.eye(3), np.eye(3), params)
    report = assert_valid(kraus, n_branches=9)
    # the declared target is the seed state itself (up to scale)
    assert lu_equivalent(kraus.target, seed_state)


def test_disjoint_map_rejects_overlap(params):
    h1 = positive_factor(pair_mat((1, 0)))
    h2 = positive_factor(pair_mat((1, 0), 0.05))
    with pytest.raises(ProtocolError) as err:
        sep_map_disjoint(h1, h2, params)
    assert err.value.residual is not None
    assert err.value.residual > 1e-3


def check_confined_map(params, rng, scale):
    w = (1, 1)
    h1 = dense_factor(rng)
    kraus = sep_map_confined(scale * h1, w, params)
    assert len(kraus.elements) == 3
    assert_valid(kraus, n_branches=3)
    # initial carries the measuring party's Gram depolarized over the
    # triple {0, w, -w}, through its positive confined factor
    g1 = kraus.initial.factors[0] / scale
    init_gram = gram(kraus.initial)
    assert support_pattern(init_gram).pairs[0] <= {w}
    h_gram = dagger(h1) @ h1
    triple = ((0, 0), w, idx_neg(w))
    depolarized = sum(dagger(PAULIS[k]) @ h_gram @ PAULIS[k] for k in triple) / 3
    np.testing.assert_allclose(dagger(g1) @ g1, depolarized, atol=1e-12 * frob(depolarized))
    np.testing.assert_allclose(
        init_gram.mats[0], depolarized / np.trace(depolarized).real, atol=1e-12
    )
    assert is_hermitian(g1)
    assert np.linalg.eigvalsh(g1)[0] > 0


def test_confined_map(params, rng):
    check_confined_map(params, rng, 1.0)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_confined_map_is_scale_invariant(params, rng, scale):
    """States are rays, so the factor's scale must not matter, even where
    its Gram ``h1ᴴh1`` would over- or underflow."""
    check_confined_map(params, rng, scale)


def scaled_state(params, factors, scale):
    return GenericState(params, tuple(scale * np.asarray(f, dtype=complex) for f in factors))


def build_confined(params, rng, scale):
    return sep_map_confined(scale * dense_factor(rng), (1, 1), params)


def build_disjoint(params, rng, scale):
    h1 = positive_factor(pair_mat((1, 0)))
    h2 = positive_factor(pair_mat((0, 1), 0.06))
    return sep_map_disjoint(scale * h1, scale * h2, params)


def build_witness(params, rng, scale):
    tiling = (
        positive_factor(two_pair_mat((1, 0), (0, 1))),
        positive_factor(two_pair_mat((1, 1), (1, 2))),
        np.eye(3),
    )
    target = scaled_state(params, tiling, scale)
    dec = sep_feasible(gram_instance(params, seed_gram(), gram(target)))
    source = scaled_state(params, (np.eye(3),) * 3, scale)
    return sep_map_from_witness(source, target, dec.witness)


def build_one_round(params, rng, scale):
    w = (0, 1)
    factors = (dense_factor(rng), span_positive(w, 0.09), span_positive(w, 0.05))
    return locc_reach_protocol(scaled_state(params, factors, scale))


def build_nine_outcome(params, rng, scale):
    factors = (dense_factor(rng), np.eye(3), np.eye(3))
    return locc_reach_protocol(scaled_state(params, factors, scale))


def build_two_stage(params, rng, scale):
    factors = (positive_factor(pair_mat((1, 0))), span_positive((0, 1), 0.08), np.eye(3))
    return locc_reach_protocol(scaled_state(params, factors, scale))


def build_convert_step(params, rng, scale):
    w = (1, 2)
    factors = (dense_factor(rng), span_positive(w), span_positive(w, 0.04))
    return locc_convert_step(scaled_state(params, factors, scale), pair=w)


SCALED_BUILDS = {
    "sep-confined": build_confined,
    "sep-disjoint": build_disjoint,
    "sep-witness": build_witness,
    "locc-one-round": build_one_round,
    "locc-nine-outcome": build_nine_outcome,
    "locc-two-stage": build_two_stage,
    "locc-convert-step": build_convert_step,
}


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("construction", list(SCALED_BUILDS))
def test_construction_is_scale_invariant(params, construction, scale):
    """Every factor of the inputs scaled by 1e+-200 (states are rays, so
    nothing may change): the construction still builds, every branch
    reaches its target, and that target is the unscaled build's."""
    build = SCALED_BUILDS[construction]
    obj = build(params, np.random.default_rng(0), scale)
    assert obj.construction == construction
    assert simulate_branches(obj).all_matched
    assert lu_equivalent(obj.target, build(params, np.random.default_rng(0), 1.0).target)


def kron_reference(obj):
    """Completeness residual and every branch's (labels, probability,
    residual, vacuous, matched), from full 27x27 branch operators built one
    ``np.kron`` at a time and applied branch by branch."""
    eye = np.eye(3, dtype=complex)

    def kron3(a, b, c):
        return np.kron(np.kron(a, b), c)

    if isinstance(obj, KrausSet):
        total = sum(kron3(*(dagger(f) @ f for f in el.factors)) for el in obj.elements)
        completeness = float(np.linalg.norm(total - np.eye(27)))
        branches = [((el.label,), kron3(*el.factors)) for el in obj.elements]
    else:
        completeness = max(
            (
                float(np.linalg.norm(sum(dagger(m) @ m for _, m in rnd.povm) - eye))
                for rnd in obj.rounds
            ),
            default=0.0,
        )
        branches = [((), np.eye(27, dtype=complex))]
        for rnd in obj.rounds:
            nxt = []
            for labels, op in branches:
                for (label, m), corr in zip(rnd.povm, rnd.corrections):
                    step = [eye, eye, eye]
                    step[rnd.party] = m
                    for party, u in corr:
                        step[party] = u
                    nxt.append((labels + (label,), kron3(*step) @ op))
            branches = nxt
    v0 = assemble(obj.initial)
    v0 = v0 / np.linalg.norm(v0)
    t = assemble(obj.target)
    t = t / np.linalg.norm(t)
    records = []
    for labels, op in branches:
        v = op @ v0
        prob = float(np.vdot(v, v).real)
        vacuous = prob <= VACUOUS_PROB
        residual = 0.0
        if not vacuous:
            u = v / np.linalg.norm(v)
            overlap = np.vdot(t, u)
            residual = float(np.linalg.norm(u - overlap / abs(overlap) * t))
        records.append((labels, prob, residual, vacuous, vacuous or residual <= BRANCH_MATCH_TOL))
    return completeness, records


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
@pytest.mark.parametrize("construction", list(SCALED_BUILDS))
def test_stacked_kernels_match_the_kron_reference(params, construction, scale):
    """The stacked completeness sum and branch simulation agree with full
    Kronecker operators applied one branch at a time, on every
    construction and with the inputs scaled by 1e+-200."""
    obj = SCALED_BUILDS[construction](params, np.random.default_rng(0), scale)
    completeness, records = kron_reference(obj)
    assert abs(validate_povm(obj) - completeness) <= 1e-14
    report = simulate_branches(obj)
    assert [b.labels for b in report.branches] == [r[0] for r in records]
    assert [b.vacuous for b in report.branches] == [r[3] for r in records]
    assert [b.matched for b in report.branches] == [r[4] for r in records]
    for b, (_, prob, residual, _, _) in zip(report.branches, records):
        assert abs(b.probability - prob) <= 1e-14
        assert abs(b.residual - residual) <= 1e-14
    assert abs(report.probability_sum - sum(r[1] for r in records)) <= 1e-14


def test_confined_map_with_occupied_partners(params, rng):
    w = (0, 1)
    h1 = dense_factor(rng)
    h2 = span_positive(w, 0.09)
    # a unitary dressing on the third factor must not disturb anything
    q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    h3 = q @ span_positive(w, 0.05)
    kraus = sep_map_confined(h1, w, params, h2=h2, h3=h3)
    assert_valid(kraus, n_branches=3)


def test_confined_map_rejects_partner_outside_the_pair_span(params, rng):
    # a partner factor occupying a second pair makes h S_k h^{-1} non-unitary
    h2 = positive_factor(two_pair_mat((0, 1), (1, 0)))
    with pytest.raises(ProtocolError, match="not unitary"):
        sep_map_confined(dense_factor(rng), (0, 1), params, h2=h2)


def test_disjoint_map_is_the_uniform_witness_map(params, seed_state):
    h1 = positive_factor(two_pair_mat((1, 0), (1, 1)))
    h2 = positive_factor(pair_mat((0, 1), 0.06))
    disjoint = sep_map_disjoint(h1, h2, params)
    witness = sep_map_from_witness(seed_state, disjoint.target, np.full(9, 1 / 9))
    assert [el.label for el in witness.elements] == [el.label for el in disjoint.elements]
    for a, b in zip(disjoint.elements, witness.elements):
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_allclose(fa, fb, rtol=0, atol=1e-12)


def test_confined_map_flags_trivial_conversion(params):
    w = (1, 0)
    h1 = span_positive(w, 0.07)
    kraus = sep_map_confined(h1, w, params)
    assert any("trivial" in note for note in kraus.notes)
    assert_valid(kraus)


def test_witness_map_for_tiling_target(params, seed_state):
    target = GenericState(
        params,
        (
            positive_factor(two_pair_mat((1, 0), (0, 1))),
            positive_factor(two_pair_mat((1, 1), (1, 2))),
            np.eye(3),
        ),
    )
    dec = sep_feasible(gram_instance(params, seed_gram(), gram(target)))
    assert dec.feasible
    kraus = sep_map_from_witness(seed_state, target, dec.witness)
    assert_valid(kraus, n_branches=9)
    assert lu_equivalent(kraus.target, target)


def test_witness_map_handles_zero_weights(params, rng):
    """Witnesses supported on a triple leave six branches vacuous."""
    w = (1, 1)
    target = GenericState(
        params, (dense_factor(rng), span_positive(w), span_positive(w, 0.04))
    )
    from qutritlocc.sep import candidate_initial_grams

    init_gram = dict(candidate_initial_grams(gram(target)))[f"confined-{w}"]
    dec = sep_feasible(gram_instance(params, init_gram, gram(target)))
    assert dec.feasible
    source = GenericState(
        params, tuple(positive_factor(m) for m in init_gram.mats)
    )
    kraus = sep_map_from_witness(source, target, dec.witness)
    report = assert_valid(kraus)
    vacuous = [b for b in report.branches if b.vacuous]
    live = [b for b in report.branches if not b.vacuous]
    assert len(vacuous) == 6 and len(live) == 3
    assert all(b.probability <= 1e-14 for b in vacuous)


# ---------------------------------------------------------------------------
# povm validation is a real check
# ---------------------------------------------------------------------------


def test_validate_povm_detects_dropped_element(params):
    kraus = sep_map_disjoint(
        positive_factor(pair_mat((1, 0))), positive_factor(pair_mat((0, 1))), params
    )
    broken = dataclasses.replace(kraus, elements=kraus.elements[1:])
    assert validate_povm(broken) > 0.05


def test_validate_povm_detects_rescaled_element(params):
    kraus = sep_map_disjoint(
        positive_factor(pair_mat((1, 0))), positive_factor(pair_mat((0, 1))), params
    )
    first = kraus.elements[0]
    scaled = dataclasses.replace(
        first, factors=(1.05 * first.factors[0],) + first.factors[1:]
    )
    broken = dataclasses.replace(kraus, elements=(scaled,) + kraus.elements[1:])
    assert validate_povm(broken) > 1e-3


def test_validate_povm_of_empty_inputs(params, rng):
    """No element leaves the 27-dim identity unmatched; no round leaves the
    identity in place, which is complete."""
    kraus = sep_map_disjoint(np.eye(3), np.eye(3), params)
    assert validate_povm(dataclasses.replace(kraus, elements=())) == np.sqrt(27.0)
    proto = build_one_round(params, rng, 1.0)
    assert validate_povm(dataclasses.replace(proto, rounds=())) == 0.0


def test_witness_map_rejects_a_nan_weight(params):
    """A NaN completeness residual must fail the gate, not pass it."""
    tiling = (
        positive_factor(two_pair_mat((1, 0), (0, 1))),
        positive_factor(two_pair_mat((1, 1), (1, 2))),
        np.eye(3),
    )
    target = GenericState(params, tiling)
    dec = sep_feasible(gram_instance(params, seed_gram(), gram(target)))
    w = np.array(dec.witness, dtype=float)
    w[0] = np.nan
    source = GenericState(params, (np.eye(3),) * 3)
    with pytest.raises(ProtocolError) as err:
        sep_map_from_witness(source, target, w)
    assert err.value.residual == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_branch_is_unmatched_without_warnings(params, bad):
    kraus = sep_map_disjoint(
        positive_factor(pair_mat((1, 0))), positive_factor(pair_mat((0, 1))), params
    )
    first = kraus.elements[0]
    f = first.factors[0].copy()
    f[0, 0] = bad
    broken = dataclasses.replace(
        kraus,
        elements=(dataclasses.replace(first, factors=(f,) + first.factors[1:]),)
        + kraus.elements[1:],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = simulate_branches(broken)
    assert not report.branches[0].matched
    assert not report.branches[0].vacuous
    assert report.branches[0].residual == np.inf
    assert all(b.matched for b in report.branches[1:])
    assert not report.all_matched
    assert report.max_residual == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_operator_has_infinite_residual_without_warnings(params, rng, bad):
    kraus = sep_map_disjoint(np.eye(3), np.eye(3), params)
    first = kraus.elements[0]
    f = first.factors[0].copy()
    f[0, 0] = bad
    broken_kraus = dataclasses.replace(
        kraus,
        elements=(dataclasses.replace(first, factors=(f,) + first.factors[1:]),)
        + kraus.elements[1:],
    )
    proto = build_one_round(params, rng, 1.0)
    rnd = proto.rounds[0]
    label, m = rnd.povm[0]
    m = m.copy()
    m[1, 2] = bad
    broken_round = dataclasses.replace(rnd, povm=((label, m),) + rnd.povm[1:])
    broken_proto = dataclasses.replace(proto, rounds=(broken_round,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_povm(broken_kraus) == np.inf
        assert validate_povm(broken_proto) == np.inf


# ---------------------------------------------------------------------------
# local protocols for reachable targets
# ---------------------------------------------------------------------------


def test_one_round_protocol(params, rng):
    w = (0, 1)
    target = GenericState(
        params, (dense_factor(rng), span_positive(w, 0.09), span_positive(w, 0.05))
    )
    proto = locc_reach_protocol(target)
    assert isinstance(proto, LoccProtocol)
    assert proto.construction == "locc-one-round"
    assert len(proto.rounds) == 1
    assert len(proto.rounds[0].povm) == 3
    assert proto.rounds[0].party == 0
    assert_valid(proto, n_branches=3)
    # corrections are honest unitaries
    for outcome in proto.rounds[0].corrections:
        for _, u in outcome:
            np.testing.assert_allclose(dagger(u) @ u, np.eye(3), atol=1e-10)


def test_nine_outcome_protocol(params, rng):
    target = GenericState(params, (dense_factor(rng), np.eye(3), np.eye(3)))
    proto = locc_reach_protocol(target)
    assert proto.construction == "locc-nine-outcome"
    assert len(proto.rounds[0].povm) == 9
    assert_valid(proto, n_branches=9)
    assert lu_equivalent(proto.initial, GenericState(params, (np.eye(3),) * 3))
    assert lu_equivalent(proto.target, target)


def test_two_stage_protocol(params):
    target = GenericState(
        params,
        (positive_factor(pair_mat((1, 0))), span_positive((0, 1), 0.08), np.eye(3)),
    )
    proto = locc_reach_protocol(target)
    assert proto.construction == "locc-two-stage"
    assert len(proto.rounds) == 2
    # the occupied confined party measures first, the free party second
    assert proto.rounds[0].party == 1
    assert proto.rounds[1].party == 0
    assert len(proto.rounds[0].povm) == 9
    assert len(proto.rounds[1].povm) == 3
    assert_valid(proto, n_branches=27)
    assert lu_equivalent(proto.target, target)


def test_reach_protocol_rejects_tiling_target(params):
    target = GenericState(
        params,
        (
            positive_factor(two_pair_mat((1, 0), (0, 1))),
            positive_factor(two_pair_mat((1, 1), (1, 2))),
            np.eye(3),
        ),
    )
    with pytest.raises(ValueError, match="not locally reachable"):
        locc_reach_protocol(target)


def test_reach_protocol_rejects_dense_target(params, rng):
    target = GenericState(
        params, tuple(dense_factor(rng) for _ in range(3))
    )
    with pytest.raises(ValueError):
        locc_reach_protocol(target)


def test_wrong_input_state_fails_branches(params, rng):
    w = (0, 1)
    target = GenericState(
        params, (dense_factor(rng), span_positive(w, 0.09), span_positive(w, 0.05))
    )
    proto = locc_reach_protocol(target)
    wrong = GenericState(params, tuple(dense_factor(rng) for _ in range(3)))
    report = simulate_branches(dataclasses.replace(proto, initial=wrong))
    assert not report.all_matched


# ---------------------------------------------------------------------------
# one conversion step
# ---------------------------------------------------------------------------


def test_convert_step_scales_off_triple_coords(params, rng):
    w = (1, 2)
    source = GenericState(
        params, (dense_factor(rng), span_positive(w), span_positive(w, 0.04))
    )
    proto = locc_convert_step(source, pair=w)
    assert_valid(proto, n_branches=3)
    assert any("step size" in note for note in proto.notes)
    # read the step size back out of the notes and check the coordinate law
    eps = float(next(n for n in proto.notes if "step size" in n).split()[2])
    assert 0 < eps < 1
    src = gram(source).coords[0]
    tgt = gram(proto.target).coords[0]
    from qutritlocc.pauli import COORD_ORDER, idx_neg

    for pos, k in enumerate(COORD_ORDER):
        if k in (w, idx_neg(w)):
            assert abs(tgt[pos] - src[pos]) <= 1e-10
        else:
            assert abs(tgt[pos] - src[pos] / (1 - eps)) <= 1e-10
    # the step target stays safely positive and remains reachable
    h = proto.target.factors[0]
    hg = dagger(h) @ h
    assert np.linalg.eigvalsh(hg / np.trace(hg).real).min() >= POS_MARGIN
    assert classify(proto.target).locc_reachable


def test_convert_step_explicit_eps(params, rng):
    w = (1, 0)
    source = GenericState(
        params, (dense_factor(rng), span_positive(w), span_positive(w, 0.04))
    )
    proto = locc_convert_step(source, pair=w, eps=0.01)
    assert_valid(proto)
    assert not lu_equivalent(source, proto.target)


def test_convert_step_zero_eps_is_trivial(params, rng):
    w = (1, 0)
    source = GenericState(
        params, (dense_factor(rng), span_positive(w), span_positive(w, 0.04))
    )
    proto = locc_convert_step(source, pair=w, eps=0.0)
    assert_valid(proto)
    assert lu_equivalent(source, proto.target)
    assert any("trivial" in note for note in proto.notes)


def test_convert_step_rejects_bad_eps(params, rng):
    w = (1, 0)
    source = GenericState(
        params, (dense_factor(rng), span_positive(w), span_positive(w, 0.04))
    )
    with pytest.raises(ValueError):
        locc_convert_step(source, pair=w, eps=1.0)
    with pytest.raises(ValueError):
        locc_convert_step(source, pair=w, eps=-0.2)


def test_convert_step_eps_too_aggressive(params, rng):
    w = (1, 0)
    source = GenericState(
        params, (dense_factor(rng), span_positive(w), span_positive(w, 0.04))
    )
    with pytest.raises(ProtocolError):
        locc_convert_step(source, pair=w, eps=0.999999)


def test_convert_step_rejects_unconvertible_source(params, rng):
    source = GenericState(params, tuple(dense_factor(rng) for _ in range(3)))
    with pytest.raises(ValueError, match="convertible"):
        locc_convert_step(source)


def test_convert_step_from_seed(params, seed_state):
    """The seed converts by opening a fresh coordinate pair."""
    proto = locc_convert_step(seed_state)
    assert_valid(proto, n_branches=3)
    assert any("fresh coordinate pair" in note for note in proto.notes)
    assert classify(proto.target).locc_reachable
    assert not lu_equivalent(seed_state, proto.target)
    # the reach protocol for the step target starts back at the seed
    back = locc_reach_protocol(proto.target)
    assert lu_equivalent(back.initial, seed_state)


def test_convert_step_round_trip_from_confined_source(params):
    """A fully confined source is recovered as the reach-protocol initial
    of its own step target."""
    w = (0, 1)
    source = GenericState(
        params,
        (span_positive(w, 0.05), span_positive(w, 0.09), span_positive(w, 0.12)),
    )
    proto = locc_convert_step(source)
    assert_valid(proto)
    back = locc_reach_protocol(proto.target)
    assert lu_equivalent(back.initial, source)
