import dataclasses
import json

import numpy as np
import pytest

from qutritlocc import statefile
from qutritlocc.protocols import (
    KrausSet,
    LoccProtocol,
    locc_reach_protocol,
    sep_map_disjoint,
    simulate_branches,
    validate_povm,
)
from qutritlocc.pauli import PAULIS, dagger
from qutritlocc.statefile import (
    SchemaError,
    load_protocol,
    load_state,
    protocol_from_json,
    protocol_to_json,
    save_protocol,
    save_state,
    state_from_json,
    state_to_json,
)
from qutritlocc.states import GenericState, positive_factor, span_factor


def pair_mat(w, z=0.08):
    return np.eye(3) / 3 + z * (PAULIS[w] + dagger(PAULIS[w]))


@pytest.fixture
def state(params, rng):
    factors = tuple(
        rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
        for _ in range(3)
    )
    return GenericState(params, factors)


def test_state_round_trip_is_exact(tmp_path, state):
    path = tmp_path / "state.json"
    save_state(path, state)
    loaded = load_state(path)
    assert loaded.seed == state.seed
    for got, want in zip(loaded.factors, state.factors):
        assert np.array_equal(got, want)  # bit-exact, not approx


def test_save_load_save_is_idempotent(tmp_path, state):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_state(first, state)
    save_state(second, load_state(first))
    assert first.read_bytes() == second.read_bytes()


def test_state_metadata_written_and_validated(tmp_path, state):
    path = tmp_path / "state.json"
    save_state(path, state, metadata={"origin": "unit-test", "tag": 7})
    doc = json.loads(path.read_text())
    assert doc["metadata"] == {"origin": "unit-test", "tag": 7}
    load_state(path)  # metadata is advisory and must not break parsing

    doc["metadata"] = "not-an-object"
    with pytest.raises(SchemaError) as err:
        state_from_json(doc)
    assert err.value.path == "$.metadata"


def test_kraus_protocol_round_trip(tmp_path, params):
    kraus = sep_map_disjoint(
        positive_factor(pair_mat((1, 0))), positive_factor(pair_mat((0, 1))), params
    )
    path = tmp_path / "kraus.json"
    save_protocol(path, kraus)
    loaded = load_protocol(path)
    assert isinstance(loaded, KrausSet)
    assert loaded.construction == kraus.construction
    assert loaded.notes == kraus.notes
    assert len(loaded.elements) == len(kraus.elements)
    for got, want in zip(loaded.elements, kraus.elements):
        assert got.label == want.label
        for f_got, f_want in zip(got.factors, want.factors):
            assert np.array_equal(f_got, f_want)
    assert validate_povm(loaded) == validate_povm(kraus)


def test_locc_protocol_round_trip(tmp_path, params):
    w = (0, 1)
    target = GenericState(
        params,
        (
            positive_factor(pair_mat((1, 0))),
            span_factor(pair_mat(w, 0.08), w),
            np.eye(3),
        ),
    )
    proto = locc_reach_protocol(target)  # two-stage: the richest shape
    path = tmp_path / "locc.json"
    save_protocol(path, proto)
    loaded = load_protocol(path)
    assert isinstance(loaded, LoccProtocol)
    assert loaded.construction == proto.construction
    assert len(loaded.rounds) == len(proto.rounds)
    for got, want in zip(loaded.rounds, proto.rounds):
        assert got.party == want.party
        assert [lbl for lbl, _ in got.povm] == [lbl for lbl, _ in want.povm]
        for (_, op_got), (_, op_want) in zip(got.povm, want.povm):
            assert np.array_equal(op_got, op_want)
    report = simulate_branches(loaded)
    assert report.all_matched


def test_missing_field_names_its_path(tmp_path, state):
    doc = state_to_json(state)
    del doc["seed"]
    with pytest.raises(SchemaError) as err:
        state_from_json(doc)
    assert err.value.path == "$.seed"
    assert "missing" in str(err.value)


def test_bad_complex_entry_names_its_path(state):
    doc = state_to_json(state)
    doc["g"][0][1][2] = [1.0]
    with pytest.raises(SchemaError) as err:
        state_from_json(doc)
    assert err.value.path == "$.g[0][1][2]"


def test_booleans_are_not_numbers(state):
    doc = state_to_json(state)
    doc["seed"]["a"] = [True, 0.0]
    with pytest.raises(SchemaError) as err:
        state_from_json(doc)
    assert err.value.path == "$.seed.a"


def test_unsupported_version_is_rejected(state):
    doc = state_to_json(state)
    doc["schema_version"] = "2"
    with pytest.raises(SchemaError) as err:
        state_from_json(doc)
    assert err.value.path == "$.schema_version"


def test_degenerate_seed_is_rejected_at_parse(state):
    doc = state_to_json(state)
    doc["seed"]["b"] = doc["seed"]["a"]
    with pytest.raises(SchemaError):
        state_from_json(doc)


def test_unknown_protocol_kind(params):
    kraus = sep_map_disjoint(np.eye(3), np.eye(3), params)
    doc = protocol_to_json(kraus)
    doc["kind"] = "teleport"
    with pytest.raises(SchemaError) as err:
        protocol_from_json(doc)
    assert err.value.path == "$.kind"


def test_bad_outcome_label(params):
    kraus = sep_map_disjoint(np.eye(3), np.eye(3), params)
    doc = protocol_to_json(kraus)
    doc["elements"][4]["label"] = [3, 0]
    with pytest.raises(SchemaError) as err:
        protocol_from_json(doc)
    assert err.value.path == "$.elements[4].label"


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("construction", 42, "$.construction"),
        ("construction", None, "$.construction"),
        ("notes", "abc", "$.notes"),
        ("notes", {"a": "b"}, "$.notes"),
        ("notes", ["ok", 7], "$.notes[1]"),
    ],
    ids=["construction-int", "construction-null", "notes-string", "notes-object", "note-int"],
)
def test_construction_and_notes_must_be_strings(params, field, value, path):
    doc = protocol_to_json(sep_map_disjoint(np.eye(3), np.eye(3), params))
    doc[field] = value
    with pytest.raises(SchemaError) as err:
        protocol_from_json(doc)
    assert err.value.path == path


def test_correction_party_must_differ_from_measurer(params, rng):
    target = GenericState(
        params,
        (rng.normal(size=(3, 3)) + 3 * np.eye(3), np.eye(3), np.eye(3)),
    )
    doc = protocol_to_json(locc_reach_protocol(target))
    measurer = doc["rounds"][0]["party"]
    doc["rounds"][0]["outcomes"][0]["corrections"][0]["party"] = measurer
    with pytest.raises(SchemaError) as err:
        protocol_from_json(doc)
    assert err.value.path.endswith(".party")


@pytest.mark.parametrize(
    "literal",
    ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
    ids=["nan", "inf", "minus-inf", "float-overflow", "int-overflow"],
)
def test_non_finite_numbers_are_rejected(tmp_path, state, literal):
    doc = state_to_json(state)
    doc["g"][0][1][2][0] = "PLACEHOLDER"
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))
    with pytest.raises(SchemaError, match="non-finite"):
        load_state(path)


@pytest.mark.parametrize(
    "bad, part",
    [(float("nan"), 0), (float("inf"), 1), (float("-inf"), 0)],
    ids=["nan", "inf", "minus-inf"],
)
def test_non_finite_entry_of_a_parsed_document_names_its_path(params, rng, bad, part):
    """Python's json module reads NaN and Infinity, so the decoder itself
    must reject them, not only read_json."""
    target = GenericState(
        params, (rng.normal(size=(3, 3)) + 3 * np.eye(3), np.eye(3), np.eye(3))
    )
    doc = protocol_to_json(locc_reach_protocol(target))
    doc["rounds"][0]["outcomes"][0]["operator"][0][0][part] = bad
    with pytest.raises(SchemaError, match="non-finite") as err:
        protocol_from_json(json.loads(json.dumps(doc)))
    assert err.value.path == "$.rounds[0].outcomes[0].operator[0][0]"


def reference_mat(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def test_protocol_json_matches_the_entrywise_encoder(monkeypatch, params, rng):
    """Every matrix encodes to the same bytes as an entry-by-entry
    ``[re, im]`` encoder, signed zeros, subnormals and extremes included."""
    special = np.array([[-0.0, 5e-324, 1e308], [-1e-300, 1 / 3, -2.5], [0.1, -0.0, 7.0]])
    kraus = sep_map_disjoint(
        positive_factor(pair_mat((1, 0))), positive_factor(pair_mat((0, 1))), params
    )
    first = kraus.elements[0]
    odd = dataclasses.replace(
        kraus,
        elements=(
            dataclasses.replace(
                first, factors=(special + 1j * special.T, special, first.factors[2])
            ),
        )
        + kraus.elements[1:],
    )
    target = GenericState(
        params, (rng.normal(size=(3, 3)) + 3 * np.eye(3), np.eye(3), np.eye(3))
    )
    for obj in (kraus, odd, locc_reach_protocol(target)):
        got = json.dumps(protocol_to_json(obj))
        with monkeypatch.context() as patch:
            patch.setattr(statefile, "_mat", reference_mat)
            want = json.dumps(protocol_to_json(obj))
        assert got == want


def test_unreadable_and_invalid_files(tmp_path):
    with pytest.raises(SchemaError) as err:
        load_state(tmp_path / "nope.json")
    assert err.value.path == "$"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError) as err:
        load_state(bad)
    assert "not valid JSON" in str(err.value)
