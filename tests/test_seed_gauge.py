"""A seed is one point per ray.

``SeedParams`` stores the canonical representative of the triple it is
given and screens its genericity once, so a state whose seed is written at
another scale is the same state to every decision, and building states on
a screened seed screens nothing again.
"""

import json

import numpy as np
import pytest

from qutritlocc import seeds
from qutritlocc.cli import main
from qutritlocc.generate import KINDS, random_seed_params, random_state
from qutritlocc.protocols import locc_convert_step, locc_reach_protocol
from qutritlocc.seeds import SeedParams
from qutritlocc.sep import sep_feasible, sep_instance
from qutritlocc.statefile import load_state, save_state, state_from_json, state_to_json
from qutritlocc.states import lu_equivalent

SCALES = [2j, 1e200 * np.exp(0.7j), 1e-200]


@pytest.fixture(scope="module")
def states(params):
    """One state of every generator kind on the shared seed."""
    rng = np.random.default_rng(25)
    return {kind: random_state(kind, rng, params) for kind in KINDS}


def bits(seed: SeedParams) -> bytes:
    return seed.as_array().tobytes()


def rescaled(state, scale) -> dict:
    """The state's file document with its seed amplitudes times ``scale``."""
    doc = state_to_json(state)
    doc["seed"] = {k: [z.real, z.imag] for k, z in zip("abc", scale * state.seed.as_array())}
    return doc


@pytest.mark.parametrize("scale", SCALES, ids=["2j", "1e200", "1e-200"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_rescaled_seed_is_the_same_state(capsys, tmp_path, states, kind, scale):
    state = states[kind]
    doc = rescaled(state, scale)
    copy = state_from_json(doc)
    np.testing.assert_allclose(copy.seed.as_array(), state.seed.as_array(), rtol=0, atol=1e-12)
    assert lu_equivalent(state, copy)
    result = sep_feasible(sep_instance(state, copy))
    assert result.feasible and not result.nontrivial

    first, second = str(tmp_path / "state.json"), str(tmp_path / "copy.json")
    save_state(first, state)
    (tmp_path / "copy.json").write_text(json.dumps(doc))
    for argv in (["lu-equiv", first, second], ["sep-decide", "--from", first, "--to", second]):
        code = main(argv)
        assert code == 0, (argv[0], capsys.readouterr().err)


@pytest.mark.parametrize("kind", KINDS)
def test_a_saved_state_reloads_its_seed_bit_for_bit(tmp_path, states, kind):
    path = tmp_path / "state.json"
    save_state(path, states[kind])
    assert bits(load_state(path).seed) == bits(states[kind].seed)


def test_a_canonical_triple_is_kept_bit_for_bit():
    """Canonical to within ``ZERO_TOL`` means kept as given, also slightly
    off unit norm."""
    for i in range(20):
        s = random_seed_params(np.random.default_rng(i))
        assert bits(SeedParams(*s.as_array())) == bits(s)
        near = s.as_array() * (1 + 1e-10)
        assert bits(SeedParams(*near)) == near.tobytes()


def test_protocols_do_not_rescreen_a_screened_seed(monkeypatch, params, states):
    """Building the states of a protocol on an already screened seed runs no
    genericity screen.  The screen is counted by the 22 exclusion
    polynomials, which ``check_generic`` evaluates once per call."""
    calls = []
    polynomials = seeds._exclusion_polynomials
    monkeypatch.setattr(
        seeds, "_exclusion_polynomials", lambda *abc: calls.append(abc) or polynomials(*abc)
    )
    locc_reach_protocol(states["confined"])
    locc_convert_step(states["convertible"])
    assert calls == []
    # the counter sees a screen: a new seed object is screened once
    fresh = SeedParams(*(2 * params.as_array()))
    assert fresh.genericity.generic
    assert fresh.genericity is fresh.genericity
    assert len(calls) == 1
