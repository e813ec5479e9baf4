import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritlocc import statefile
from qutritlocc.protocols import (
    KrausSet,
    LoccProtocol,
    locc_reach_protocol,
    sep_map_disjoint,
    simulate_branches,
    validate_povm,
)
from qutritlocc.statefile import (
    SchemaError,
    load_protocol,
    load_state,
    protocol_from_json,
    protocol_to_json,
    save_protocol,
    save_state,
    seed_to_json,
    state_from_json,
    state_to_json,
)
from qutritlocc.generate import random_seed_params
from qutritlocc.seeds import SeedParams
from qutritlocc.states import GenericState, positive_factor, span_factor

from helpers import pair_mat


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


def documents(params):
    """One valid document of each kind, keyed by the decoder that reads it."""
    target = GenericState(
        params,
        (np.random.default_rng(5).normal(size=(3, 3)) + 3 * np.eye(3), np.eye(3), np.eye(3)),
    )
    kraus = sep_map_disjoint(np.eye(3), np.eye(3), params)
    return {
        "state": (state_from_json, state_to_json(target)),
        "kraus": (protocol_from_json, protocol_to_json(kraus)),
        "locc": (protocol_from_json, protocol_to_json(locc_reach_protocol(target))),
    }


@pytest.mark.parametrize(
    "kind, keys, edit, path, message",
    [
        ("state", ["g"], lambda g: g[:2], "$.g", "expected three factor matrices"),
        ("kraus", ["elements"], lambda _: [], "$.elements", "expected a nonempty list"),
        (
            "kraus",
            ["elements", 2, "factors"],
            lambda f: f[:2],
            "$.elements[2].factors",
            "expected three factors",
        ),
        ("locc", ["rounds"], lambda _: [], "$.rounds", "expected a nonempty list"),
        ("locc", ["rounds", 0, "party"], lambda _: 3, "$.rounds[0].party", "expected 0, 1 or 2"),
        (
            "locc",
            ["rounds", 0, "outcomes"],
            lambda _: [],
            "$.rounds[0].outcomes",
            "expected a nonempty list",
        ),
        (
            "locc",
            ["rounds", 0, "outcomes", 1, "corrections"],
            lambda _: {},
            "$.rounds[0].outcomes[1].corrections",
            "expected a list",
        ),
        ("kraus", ["elements", 0], lambda _: 7, "$.elements[0]", "expected an object, got int"),
        (
            "locc",
            ["initial", "g", 1, 0, 0],
            lambda _: [1.0],
            "$.initial.g[1][0][0]",
            "expected a [re, im] pair of numbers",
        ),
    ],
    ids=[
        "g-two-matrices",
        "elements-empty",
        "factors-two",
        "rounds-empty",
        "party-3",
        "outcomes-empty",
        "corrections-object",
        "element-number",
        "initial-entry",
    ],
)
def test_every_list_field_names_its_path(params, kind, keys, edit, path, message):
    decode, doc = documents(params)[kind]
    *parents, last = keys
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = edit(holder[last])
    with pytest.raises(SchemaError) as err:
        decode(doc)
    assert err.value.path == path
    assert str(err.value) == f"{path}: {message}"


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


#: Where a party is written in a one-round protocol document, with its path.
PARTY_FIELDS = {
    "round": (["rounds", 0, "party"], "$.rounds[0].party"),
    "correction": (
        ["rounds", 0, "outcomes", 1, "corrections", 0, "party"],
        "$.rounds[0].outcomes[1].corrections[0].party",
    ),
}


@pytest.mark.parametrize("field", sorted(PARTY_FIELDS))
@pytest.mark.parametrize(
    "value", [1.0, 2.0, True, False, "1", None, [1], -1, 3], ids=repr
)
def test_party_must_be_an_int_from_0_to_2(params, field, value):
    """A float or a bool is not a party: ``1.0`` would reach the protocol's
    index arithmetic, and ``true`` would be read as party 1."""
    doc = documents(params)["locc"][1]
    *parents, last = PARTY_FIELDS[field][0]
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = value
    with pytest.raises(SchemaError) as err:
        protocol_from_json(doc)
    path = PARTY_FIELDS[field][1]
    assert str(err.value) == f"{path}: expected 0, 1 or 2"


def test_correction_party_listed_twice_is_rejected(params):
    doc = documents(params)["locc"][1]
    corrections = doc["rounds"][0]["outcomes"][2]["corrections"]
    corrections[1]["party"] = corrections[0]["party"]
    with pytest.raises(SchemaError) as err:
        protocol_from_json(doc)
    assert err.value.path == "$.rounds[0].outcomes[2].corrections[1].party"
    assert "listed twice" in str(err.value)


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


#: Where a bad entry is planted in a protocol document: the keys down to
#: a ``[re, im]`` entry, with that entry's path.
ENTRY_SITES = {
    "initial-factor": ("kraus", ["initial", "g", 1, 2, 0], "$.initial.g[1][2][0]"),
    "initial-seed": ("kraus", ["initial", "seed", "b"], "$.initial.seed.b"),
    "target-factor": ("locc", ["target", "g", 0, 0, 1], "$.target.g[0][0][1]"),
    "target-seed": ("locc", ["target", "seed", "a"], "$.target.seed.a"),
    "kraus-factor": (
        "kraus", ["elements", 4, "factors", 2, 0, 1], "$.elements[4].factors[2][0][1]"
    ),
    "correction": (
        "locc",
        ["rounds", 0, "outcomes", 1, "corrections", 0, "unitary", 2, 2],
        "$.rounds[0].outcomes[1].corrections[0].unitary[2][2]",
    ),
}

NOT_A_PAIR = "expected a [re, im] pair of numbers"

#: How an entry is spoiled, with the message its path is given.
BAD_ENTRIES = {
    "bool-re": (lambda z: [True, z[1]], lambda z: NOT_A_PAIR),
    "bool-im-zero": (lambda z: [z[0], False], lambda z: NOT_A_PAIR),
    "string": (lambda z: [str(z[0]), z[1]], lambda z: NOT_A_PAIR),
    "null": (lambda z: [z[0], None], lambda z: NOT_A_PAIR),
    "triple": (lambda z: [z[0], z[1], 0.0], lambda z: NOT_A_PAIR),
    "number": (lambda z: z[0], lambda z: NOT_A_PAIR),
    "nested": (lambda z: [z, z], lambda z: NOT_A_PAIR),
    "int-400-digits": (
        lambda z: [z[0], 10**400],
        lambda z: "non-finite number: an integer overflows a float",
    ),
    "nan": (
        lambda z: [float("nan"), z[1]],
        lambda z: f"non-finite number {[float('nan'), z[1]]!r} is not allowed",
    ),
    "inf": (
        lambda z: [z[0], float("inf")],
        lambda z: f"non-finite number {[z[0], float('inf')]!r} is not allowed",
    ),
    "minus-inf": (
        lambda z: (float("-inf"), z[1]),
        lambda z: f"non-finite number {(float('-inf'), z[1])!r} is not allowed",
    ),
}


def planted(params, site):
    """A document with the entry at ``site``, and that entry's holder and key."""
    kind, keys, path = ENTRY_SITES[site]
    doc = json.loads(json.dumps(documents(params)[kind][1]))
    *parents, last = keys
    holder = doc
    for key in parents:
        holder = holder[key]
    return doc, holder, last, path


@pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
@pytest.mark.parametrize("site", sorted(ENTRY_SITES))
def test_a_bad_entry_is_named_at_its_path(params, site, bad):
    """Every kind of bad entry, in either state, a Kraus factor or a
    correction, is refused at the entry's own path with its own reason,
    however the rest of the document converts."""
    doc, holder, key, path = planted(params, site)
    spoil, reason = BAD_ENTRIES[bad]
    entry = holder[key]
    holder[key] = spoil(entry)
    with pytest.raises(SchemaError) as err:
        protocol_from_json(doc)
    assert str(err.value) == f"{path}: {reason(entry)}"
    assert err.value.path == path


def test_the_first_bad_entry_in_document_order_is_named(params):
    """With several bad entries, the decoder names the first in document
    order, whichever kind of fault each has."""
    doc = json.loads(json.dumps(documents(params)["kraus"][1]))
    factor = doc["elements"][2]["factors"][1]
    factor[0][1] = [float("nan"), 0.0]
    factor[1][0] = [True, 0.0]
    factor[2][2] = [10**400, 0.0]
    doc["elements"][5]["factors"][0][0][0] = "x"
    with pytest.raises(SchemaError) as err:
        protocol_from_json(doc)
    assert err.value.path == "$.elements[2].factors[1][0][1]"
    factor[0][1] = [0.5, 0.0]
    with pytest.raises(SchemaError) as err:
        protocol_from_json(doc)
    assert str(err.value) == f"$.elements[2].factors[1][1][0]: {NOT_A_PAIR}"
    factor[1][0] = (0.5, 0)
    with pytest.raises(SchemaError, match="overflows") as err:
        protocol_from_json(doc)
    assert err.value.path == "$.elements[2].factors[1][2][2]"


def entry_sites(doc):
    """The keys down to every entry of a protocol document, with the
    entry's path, in document order."""

    def matrix(keys, path):
        return [(keys + [i, j], f"{path}[{i}][{j}]") for i in range(3) for j in range(3)]

    sites = []
    for name in ("initial", "target"):
        sites += [([name, "seed", a], f"$.{name}.seed.{a}") for a in "abc"]
        for i in range(3):
            sites += matrix([name, "g", i], f"$.{name}.g[{i}]")
    for i in range(len(doc.get("elements", []))):
        for j in range(3):
            sites += matrix(["elements", i, "factors", j], f"$.elements[{i}].factors[{j}]")
    for i, rnd in enumerate(doc.get("rounds", [])):
        for j, out in enumerate(rnd["outcomes"]):
            keys, path = ["rounds", i, "outcomes", j], f"$.rounds[{i}].outcomes[{j}]"
            sites += matrix(keys + ["operator"], f"{path}.operator")
            for m in range(len(out["corrections"])):
                sites += matrix(
                    keys + ["corrections", m, "unitary"], f"{path}.corrections[{m}].unitary"
                )
    return sites


def reference_fault(z):
    """Why an entry is refused, or ``None``: not a pair of non-bool ints or
    floats, then an int beyond the float range, then a non-finite part."""
    if not (
        isinstance(z, (list, tuple))
        and len(z) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in z)
    ):
        return NOT_A_PAIR
    if any(isinstance(x, int) and abs(x) >= 2**1024 for x in z):
        return "non-finite number: an integer overflows a float"
    if not all(math.isfinite(x) for x in z):
        return f"non-finite number {z!r} is not allowed"
    return None


def holder_of(doc, keys):
    """The list or object that holds the entry at ``keys``, and its key there."""
    *parents, last = keys
    for key in parents:
        doc = doc[key]
    return doc, last


def entry_at(doc, keys):
    holder, key = holder_of(doc, keys)
    return holder[key]


@settings(max_examples=200)
@given(data=st.data())
def test_planted_faults_are_named_as_an_ordered_scan_names_them(params, data):
    """One to three bad entries of any kinds, planted anywhere in a Kraus
    or a LOCC document (seeds, state factors, Kraus factors, round
    operators, correction unitaries), raise the path and message that a
    scan of the entries in document order gives for the first it refuses."""
    kind = data.draw(st.sampled_from(["kraus", "locc"]))
    doc = json.loads(json.dumps(documents(params)[kind][1]))
    sites = entry_sites(doc)
    assert all(reference_fault(entry_at(doc, keys)) is None for keys, _ in sites)
    spots = data.draw(st.lists(st.integers(0, len(sites) - 1), min_size=1, max_size=3, unique=True))
    for k in spots:
        holder, key = holder_of(doc, sites[k][0])
        spoil, _ = BAD_ENTRIES[data.draw(st.sampled_from(sorted(BAD_ENTRIES)))]
        holder[key] = spoil(holder[key])
    faults = ((path, reference_fault(entry_at(doc, keys))) for keys, path in sites)
    path, reason = next(fault for fault in faults if fault[1] is not None)
    with pytest.raises(SchemaError) as err:
        protocol_from_json(doc)
    assert (err.value.path, str(err.value)) == (path, f"{path}: {reason}")


@pytest.mark.parametrize("entry", [[float("nan"), 10**400], (10**400, float("-inf"))])
def test_an_overflowing_part_is_named_before_a_non_finite_one(params, entry):
    doc, holder, key, path = planted(params, "kraus-factor")
    holder[key] = entry
    with pytest.raises(SchemaError) as err:
        protocol_from_json(doc)
    assert str(err.value) == f"{path}: non-finite number: an integer overflows a float"


@pytest.mark.parametrize("kind", ["state", "kraus", "locc"])
def test_numpy_float_entries_decode_as_floats(params, kind):
    """A document whose numbers are ``np.float64`` (a float subclass)
    decodes to the same arrays as its plain-float twin."""
    decode, doc = documents(params)[kind]

    def typed(value):
        if isinstance(value, float):
            return np.float64(value)
        if isinstance(value, list):
            return [typed(x) for x in value]
        if isinstance(value, dict):
            return {k: typed(v) for k, v in value.items()}
        return value

    plain, numpy_typed = decode(doc), decode(typed(doc))
    states = (plain,) if kind == "state" else (plain.initial, plain.target)
    again = (numpy_typed,) if kind == "state" else (numpy_typed.initial, numpy_typed.target)
    for a, b in zip(states, again):
        assert a.seed == b.seed
        assert all(np.array_equal(x, y) for x, y in zip(a.factors, b.factors))
    assert json.dumps(protocol_to_json(plain) if kind != "state" else state_to_json(plain)) == (
        json.dumps(protocol_to_json(numpy_typed) if kind != "state" else state_to_json(numpy_typed))
    )


def test_a_target_seed_equal_to_the_initial_one_is_shared(params):
    doc = json.loads(json.dumps(documents(params)["locc"][1]))
    proto = protocol_from_json(doc)
    assert proto.target.seed is proto.initial.seed


def test_differing_seeds_are_each_parsed_and_checked_at_their_path(params, rng):
    """When the target's seed is another one, it is parsed on its own (a
    generic seed is kept as the target's), and its faults are named at the
    target's paths."""
    doc = json.loads(json.dumps(documents(params)["locc"][1]))
    other = random_seed_params(rng)
    doc["target"]["seed"] = seed_to_json(other)
    proto = protocol_from_json(json.loads(json.dumps(doc)))
    assert proto.target.seed == other and proto.initial.seed == params
    doc["target"]["seed"] = {"a": [0.0, 0.0], "b": [0.0, 0.0], "c": [0.0, 0.0]}
    with pytest.raises(SchemaError) as err:
        protocol_from_json(doc)
    assert err.value.path == "$.target.seed"
    doc["target"]["seed"] = seed_to_json(SeedParams(1, 1, 2))
    with pytest.raises(SchemaError, match="not generic") as err:
        protocol_from_json(doc)
    assert err.value.path == "$.target"
    doc["initial"]["seed"] = seed_to_json(SeedParams(1, 1, 2))
    doc["target"]["seed"] = seed_to_json(params)
    with pytest.raises(SchemaError, match="not generic") as err:
        protocol_from_json(doc)
    assert err.value.path == "$.initial"
