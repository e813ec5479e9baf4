"""The support cut decides the classifier, the SEP engine and the oracle
alike: near the cut their verdicts agree, or the oracle abstains."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritlocc.classify import classify_gram
from qutritlocc.generate import random_state
from qutritlocc.oracle import brute_force_sep
from qutritlocc.pauli import PAIR_REPS, PAULIS, dagger
from qutritlocc.protocols import locc_reach_protocol
from qutritlocc.sep import candidate_initial_grams, gram_instance, sep_feasible
from qutritlocc.states import gram, gram_triple


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(("tiling", "disjoint", "confined", "convertible")),
    draw=st.integers(0, 2**32 - 1),
    multiple=st.sampled_from((0.1, 1.0, 10.0)),
    tol=st.sampled_from((1e-9, 1e-6)),
    data=st.data(),
)
def test_verdicts_agree_near_the_cut(params, kind, draw, multiple, tol, data):
    """A target gets one extra coordinate pair outside a party's support,
    of modulus 0.1, 1 or 10 times the cut ``tol / 3``.  ``classify_gram``
    calls it separably reachable exactly when the engine finds a feasible,
    nontrivial conversion from one of its candidate initials at the same
    cut.

    The oracle audits the instance as given, with no cut, so it never
    contradicts the engine at the default cut.  It may contradict the
    engine at the coarser one: a coordinate of 3e-7 that the cut sets to
    zero can leave a certified residual above the oracle's rejection bound.
    """
    base = gram(random_state(kind, np.random.default_rng(draw), params))
    pairs = classify_gram(base).pattern.pairs
    party, w = data.draw(
        st.sampled_from([(i, w) for i in range(3) for w in PAIR_REPS if w not in pairs[i]])
    )
    z = multiple * tol / 3.0 * np.exp(2j * np.pi * data.draw(st.floats(0.0, 1.0)))
    mats = list(base.mats)
    mats[party] = mats[party] + z * PAULIS[w] + np.conj(z) * dagger(PAULIS[w])
    target = gram_triple(*mats)

    initials = dict(candidate_initial_grams(target, tol))
    engine = False
    for label, initial in initials.items():
        inst = gram_instance(params, initial, target)
        dec = sep_feasible(inst, tol)
        engine |= dec.feasible and dec.nontrivial
        oracle = brute_force_sep(inst).feasible
        assert oracle is None or oracle == sep_feasible(inst).feasible, label
    assert classify_gram(target, tol).sep_reachable == engine


def test_candidates_are_found_at_the_callers_cut(params):
    """A confined target plus a pair of modulus 3.3e-8 outside a confined
    party's support is still confined at the cut 1e-6 / 3, so
    ``classify_gram`` calls it separably reachable; its confined candidate
    must be offered at that cut and reach it there."""
    tol = 1e-6
    base = gram(random_state("confined", np.random.default_rng(0), params))
    match = classify_gram(base).locc_cases[0]
    party = match.parties[1]
    pairs = classify_gram(base).pattern.pairs[party]
    w = next(w for w in PAIR_REPS if w not in pairs and w != match.pair)
    mats = list(base.mats)
    mats[party] = mats[party] + 3.3e-8 * (PAULIS[w] + dagger(PAULIS[w]))
    target = gram_triple(*mats)
    assert classify_gram(target, tol).sep_reachable
    assert not classify_gram(target).locc_cases  # the default cut sees the extra pair
    candidates = dict(candidate_initial_grams(target, tol))
    label = f"confined-{match.pair}"
    assert label in candidates
    dec = sep_feasible(gram_instance(params, candidates[label], target), tol)
    assert dec.feasible and dec.nontrivial


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_a_cut_that_is_not_finite_and_positive_is_refused(params, tol):
    """A NaN or infinite cut would drop every coordinate (seed to seed, a
    feasible conversion) and a cut of zero or below would keep every one:
    each entry point refuses it, naming the value."""
    rng = np.random.default_rng(29)
    target = random_state("dense", rng, params)
    inst = gram_instance(params, candidate_initial_grams(gram(target))[0][1], gram(target))
    reach = random_state("confined", rng, params)
    for call in (
        lambda: classify_gram(gram(target), tol),
        lambda: sep_feasible(inst, tol),
        lambda: locc_reach_protocol(reach, tol),
    ):
        with pytest.raises(ValueError, match=re.escape(f"support cut {tol!r}")):
            call()
