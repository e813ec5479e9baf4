import argparse
import json

import numpy as np
import pytest

from qutritlocc.classify import classify
from qutritlocc.cli import _build_parser, main
from qutritlocc.generate import random_state
from qutritlocc.pauli import PAULIS, dagger
from qutritlocc.statefile import (
    load_state,
    protocol_from_json,
    protocol_to_json,
    save_protocol,
    save_state,
)
from qutritlocc.states import GenericState, gram, positive_factor, span_factor
from qutritlocc.protocols import locc_reach_protocol, simulate_branches
from qutritlocc.seeds import SeedParams

from helpers import pair_mat, two_pair_mat


@pytest.fixture(scope="module")
def files(tmp_path_factory, params):
    """A small zoo of state files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("states")
    rng = np.random.default_rng(17)
    dense = lambda: rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)

    zoo = {
        "seed": GenericState(params, (np.eye(3),) * 3),
        "confined": GenericState(
            params,
            (
                dense(),
                span_factor(pair_mat((0, 1)), (0, 1)),
                span_factor(pair_mat((0, 1), 0.04), (0, 1)),
            ),
        ),
        "tiling": GenericState(
            params,
            (
                positive_factor(two_pair_mat((1, 0), (0, 1))),
                positive_factor(two_pair_mat((1, 1), (1, 2))),
                np.eye(3),
            ),
        ),
        "dense": GenericState(params, (dense(), dense(), dense())),
    }
    paths = {}
    for name, state in zoo.items():
        paths[name] = str(root / f"{name}.json")
        save_state(paths[name], state)

    degenerate = root / "degenerate-seed.json"
    degenerate.write_text(json.dumps({"a": [1.0, 0.0], "b": [1.0, 0.0], "c": [0.3, 0.0]}))
    paths["degenerate"] = str(degenerate)
    paths["root"] = root
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------


def test_generate_writes_parseable_state(capsys, tmp_path):
    out_file = tmp_path / "state.json"
    code, out, _ = run(
        capsys, "generate", "dense", "--out", str(out_file), "--rng-seed", "5", "--json"
    )
    assert code == 0
    assert json.loads(out)["written"] == str(out_file)
    state = load_state(out_file)
    assert state.factors[0].shape == (3, 3)


def test_generate_stdout_is_a_state_document(capsys):
    code, out, _ = run(capsys, "generate", "seed", "--rng-seed", "3", "--label", "demo")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["metadata"] == {"kind": "seed", "label": "demo"}


def test_generate_params_from_reuses_seed(capsys, tmp_path, files):
    out_file = tmp_path / "reuse.json"
    code, _, _ = run(
        capsys,
        "generate",
        "confined",
        "--params-from",
        files["seed"],
        "--out",
        str(out_file),
    )
    assert code == 0
    assert load_state(out_file).seed == load_state(files["seed"]).seed


def test_check_generic_accepts_good_seed(capsys, files):
    code, out, _ = run(capsys, "check-generic", files["seed"])
    assert code == 0
    assert "generic" in out and "NOT" not in out


def test_check_generic_rejects_degenerate_seed(capsys, files):
    code, out, _ = run(capsys, "check-generic", files["degenerate"], "--json")
    assert code == 2
    report = json.loads(out)
    assert report["generic"] is False
    assert report["violations"]


def test_check_generic_multiple_files_json(capsys, files):
    code, out, _ = run(
        capsys, "--json", "check-generic", files["seed"], files["degenerate"]
    )
    assert code == 2
    reports = json.loads(out)
    assert [r["generic"] for r in reports] == [True, False]


def test_standard_form_of_seed(capsys, files):
    code, out, _ = run(capsys, "standard-form", files["seed"], "--json")
    assert code == 0
    report = json.loads(out)
    assert report["gauge"] == [0, 0]
    coords = np.array(report["coords"])
    assert np.abs(coords).max() <= 1e-9


def test_lu_equiv_detects_dressing(capsys, files, tmp_path, params):
    from qutritlocc.generate import random_unitary

    rng = np.random.default_rng(23)
    base = load_state(files["confined"])
    dressed = GenericState(
        params, tuple(random_unitary(rng) @ f for f in base.factors)
    )
    dressed_file = tmp_path / "dressed.json"
    save_state(dressed_file, dressed)

    code, out, _ = run(capsys, "lu-equiv", files["confined"], str(dressed_file))
    assert code == 0
    assert "locally equivalent" in out

    code, out, _ = run(capsys, "lu-equiv", files["confined"], files["dense"])
    assert code == 2
    assert "not locally equivalent" in out


def test_classify_confined(capsys, files):
    code, out, _ = run(capsys, "classify", files["confined"], "--json")
    assert code == 0
    report = json.loads(out)
    assert report["sep_reachable"] and report["locc_reachable"]
    assert report["locc_convertible"]
    assert not report["isolated"]
    assert report["case"] == "confined"
    assert report["pair"] == [0, 1]


def test_classify_tiling_text(capsys, files):
    code, out, _ = run(capsys, "classify", files["tiling"])
    assert code == 0
    for flag in ("support_tiling", "sep_only", "in_mes", "isolated"):
        assert flag in out


def test_classify_rejects_nan_seed(capsys, tmp_path, files):
    with open(files["seed"]) as fh:
        doc = json.load(fh)
    doc["seed"]["a"][0] = "PLACEHOLDER"
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc).replace('"PLACEHOLDER"', "NaN"))
    code, out, err = run(capsys, "classify", str(bad))
    assert code == 1
    assert out == ""
    assert "non-finite" in err


def test_sep_decide_feasible(capsys, files):
    code, out, _ = run(
        capsys, "sep-decide", "--from", files["seed"], "--to", files["tiling"], "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["feasible"] and report["unique"] and report["nontrivial"]
    assert sum(report["witness"]) == pytest.approx(1.0, abs=1e-9)


def test_sep_decide_infeasible(capsys, files):
    code, out, _ = run(capsys, "sep-decide", "--from", files["seed"], "--to", files["dense"])
    assert code == 2
    assert "infeasible" in out


def test_sep_decide_with_oracle(capsys, files):
    code, out, _ = run(
        capsys,
        "sep-decide",
        "--from",
        files["seed"],
        "--to",
        files["tiling"],
        "--oracle",
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["feasible"] is True
    assert 0.0 <= report["oracle"]["lower_bound"] <= report["oracle"]["best_residual"]

    code, out, _ = run(
        capsys, "sep-decide", "--from", files["seed"], "--to", files["tiling"], "--oracle"
    )
    assert code == 0
    line = next(line for line in out.splitlines() if "oracle:" in line)
    assert line.strip().startswith("oracle: True (best residual ")
    assert ", lower bound " in line

    code, out, _ = run(
        capsys, "sep-decide", "--from", files["seed"], "--to", files["dense"], "--oracle", "--json"
    )
    assert code == 2
    oracle = json.loads(out)["oracle"]
    assert oracle["feasible"] is False
    assert 1e-7 < oracle["lower_bound"] <= oracle["best_residual"]


def test_sep_decide_oracle_disagreement_names_both_decisions(capsys, files, params):
    """At a coarse cut the engine sets a coordinate of 3.3e-7 to zero that
    the oracle, which decides the instance as given, cannot: the error
    says which instance each side decided."""
    mats = list(gram(random_state("disjoint", np.random.default_rng(8976), params)).mats)
    mats[1] = mats[1] + 3.3e-7 * (PAULIS[(1, 1)] + dagger(PAULIS[(1, 1)]))
    path = str(files["root"] / "near-cut.json")
    save_state(path, GenericState(params, tuple(positive_factor(m) for m in mats)))
    code, out, err = run(
        capsys, "--tolerance", "1e-6", "sep-decide", "--from", files["seed"], "--to", path,
        "--oracle",
    )
    assert code == 1
    assert out.splitlines()[0] == "feasible"
    assert "oracle: False" in out
    assert err.strip() == (
        "error: oracle disagrees with the decision engine: the oracle, deciding the "
        "instance as given, finds it infeasible; the engine, deciding it at "
        "--tolerance 1e-06, finds it feasible"
    )


def test_synth_protocol_reachable_target(capsys, files):
    code, out, _ = run(capsys, "synth-protocol", "--target", files["confined"])
    assert code == 0
    proto = protocol_from_json(json.loads(out))
    assert proto.construction == "locc-one-round"
    assert simulate_branches(proto).all_matched


def test_synth_protocol_unreachable_target(capsys, files):
    code, _, err = run(capsys, "synth-protocol", "--target", files["tiling"])
    assert code == 2
    assert "not synthesized" in err


def test_synth_then_verify_protocol(capsys, files, tmp_path):
    proto_file = tmp_path / "proto.json"
    code, _, _ = run(
        capsys,
        "synth-protocol",
        "--target",
        files["tiling"],
        "--source",
        files["seed"],
        "--out",
        str(proto_file),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify-protocol", str(proto_file))
    assert code == 0
    assert "ok" in out


def test_verify_protocol_catches_tampering(capsys, files, tmp_path):
    proto_file = tmp_path / "proto.json"
    run(
        capsys,
        "synth-protocol",
        "--target",
        files["tiling"],
        "--source",
        files["seed"],
        "--out",
        str(proto_file),
    )
    doc = json.loads(proto_file.read_text())
    entry = doc["elements"][0]["factors"][0][0][0]
    entry[0] *= 1.01
    proto_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-protocol", str(proto_file))
    assert code == 2
    assert "FAILED" in out


def edit_round_party(doc, edit):
    doc["rounds"][0]["party"] = edit(doc["rounds"][0]["party"])


def edit_correction_party(doc, edit):
    corrections = doc["rounds"][0]["outcomes"][0]["corrections"]
    corrections[0]["party"] = edit(corrections[0]["party"])


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: edit_round_party(doc, float),
        lambda doc: edit_round_party(doc, bool),
        lambda doc: edit_correction_party(doc, float),
        lambda doc: edit_correction_party(doc, bool),
        lambda doc: edit_correction_party(
            doc, lambda _: doc["rounds"][0]["outcomes"][0]["corrections"][1]["party"]
        ),
    ],
    ids=["round-float", "round-bool", "correction-float", "correction-bool", "correction-twice"],
)
def test_verify_protocol_refuses_a_malformed_party(capsys, files, tmp_path, edit):
    """A bad party field is an input error naming its path, not a traceback
    from the simulation or a protocol read with a party it does not name."""
    doc = protocol_to_json(locc_reach_protocol(load_state(files["confined"])))
    edit(doc)
    proto_file = tmp_path / "proto.json"
    proto_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-protocol", str(proto_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error: $.rounds[0]") and err.count("\n") == 1
    assert ".party: " in err


def test_symmetry_audit_clean_seed(capsys, files):
    code, out, _ = run(capsys, "symmetry-audit", files["seed"], "--json")
    assert code == 0
    report = json.loads(out)
    assert report["clean"] is True
    assert len(report["survivors"]) == 9
    assert report["surplus"] == 0
    assert report["stabilizer_sizes"] == [18, 18]
    assert report["pairs_screened"] == 324


def test_symmetry_audit_refuses_degenerate_seed(capsys, files):
    code, out, err = run(capsys, "symmetry-audit", files["degenerate"])
    assert code == 2
    assert out.splitlines()[0].startswith(f"{files['degenerate']}: NOT generic")
    assert err == ""
    code, out, _ = run(capsys, "symmetry-audit", files["degenerate"], "--json")
    assert code == 2
    report = json.loads(out)
    assert report["generic"] is False
    assert report["violations"]


def zero_seed(root):
    path = root / "zero-seed.json"
    path.write_text(json.dumps({"a": [0.0, 0.0], "b": [0.0, 0.0], "c": [0.0, 0.0]}))
    return str(path)


@pytest.mark.parametrize(
    "argv", [("check-generic",), ("symmetry-audit",), ("generate", "seed", "--params-from")]
)
def test_zero_seed_is_an_input_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, zero_seed(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_zero_seed_in_a_state_file_is_named_by_its_path(capsys, tmp_path, files):
    with open(files["seed"]) as fh:
        obj = json.load(fh)
    obj["seed"] = {key: [0.0, 0.0] for key in "abc"}
    path = tmp_path / "zero-seed-state.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "classify", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: $.seed: seed parameters must not all vanish\n"


def test_generate_refuses_non_generic_params(capsys, files):
    code, out, err = run(capsys, "generate", "seed", "--params-from", files["degenerate"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: seed is not generic") and err.count("\n") == 1


def test_generate_puts_params_in_canonical_gauge(capsys, tmp_path):
    loose = tmp_path / "loose-seed.json"
    loose.write_text(json.dumps({"a": [2, 0], "b": [3, 0], "c": [5, 0.5]}))
    written = []
    for kind in ("seed", "confined"):
        out = str(tmp_path / f"{kind}.json")
        code, _, _ = run(capsys, "generate", kind, "--params-from", str(loose), "--out", out)
        assert code == 0
        assert load_state(out).seed == SeedParams(2, 3, 5 + 0.5j)
        written.append(out)
    code, _, err = run(capsys, "sep-decide", "--from", *written[:1], "--to", *written[1:])
    assert code in (0, 2), err
    code, _, err = run(capsys, "standard-form", *written)
    assert code == 0, err


def test_sep_decide_refuses_states_of_different_seeds(capsys, files, tmp_path):
    other = tmp_path / "other.json"
    code, _, _ = run(capsys, "generate", "seed", "--rng-seed", "5", "--out", str(other))
    assert code == 0
    code, out, err = run(capsys, "sep-decide", "--from", files["seed"], "--to", str(other))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "different" in err


def test_tolerance_flag_positions(capsys, files):
    code, _, _ = run(capsys, "--tolerance", "1e-6", "classify", files["confined"])
    assert code == 0
    code, _, _ = run(capsys, "classify", files["confined"], "--tolerance", "1e-6")
    assert code == 0


def test_tolerance_must_be_positive(capsys, files):
    for value in ("-1", "0", "nan", "inf"):
        code, _, err = run(capsys, "--tolerance", value, "classify", files["confined"])
        assert code == 1, value
        assert "positive" in err, value


@pytest.fixture(scope="module")
def generated_confined(tmp_path_factory, params):
    path = tmp_path_factory.mktemp("generated") / "confined.json"
    save_state(path, random_state("confined", np.random.default_rng(8), params))
    return str(path)


def test_tolerance_moves_the_verdict(capsys, generated_confined):
    """Trace-normalized Gram coordinates are at most 1/3 in magnitude, so
    a tolerance of 3 cuts every support away; the file itself is still
    checked at ZERO_TOL and loads."""
    code, out, _ = run(capsys, "--json", "classify", generated_confined)
    assert code == 0
    default = json.loads(out)
    code, out, err = run(capsys, "--json", "--tolerance", "3", "classify", generated_confined)
    assert code == 0, err
    cut = json.loads(out)
    assert default["locc_reachable"] and not cut["locc_reachable"]
    assert cut["supports"] == [[], [], []]


def test_tolerance_does_not_outlive_the_call(capsys, generated_confined):
    """A CLI run with a coarse cut leaves the library's default verdict alone."""
    state = load_state(generated_confined)
    before = classify(state)
    run(capsys, "--tolerance", "0.9", "classify", generated_confined)
    assert classify(state) == before


def test_coarse_tolerance_witness_is_not_synthesized(capsys, tmp_path):
    """A coarse cut lets ``sep_feasible`` accept a witness whose Kraus set
    fails completeness; synthesis refuses it as "not synthesized" and names
    the tolerance and the completeness residual.  At a cut of 0.5 every
    coordinate of the generic target is set to zero, so the engine decides
    seed to seed."""
    seed, generic = str(tmp_path / "seed.json"), str(tmp_path / "generic.json")
    assert run(capsys, "generate", "seed", "--rng-seed", "1", "--out", seed)[0] == 0
    code, _, _ = run(
        capsys, "generate", "generic", "--rng-seed", "2", "--params-from", seed, "--out", generic
    )
    assert code == 0
    argv = ("synth-protocol", "--source", seed, "--target", generic)
    code, out, err = run(capsys, "--tolerance", "0.5", "sep-decide", "--from", seed, "--to", generic)
    assert code == 0 and out.startswith("feasible"), err
    code, out, err = run(capsys, "--tolerance", "0.5", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("not synthesized:")
    assert "--tolerance 0.5" in err
    assert "completeness fails (residual" in err
    code, out, err = run(capsys, *argv)
    assert code == 2 and "separably infeasible" in err


def test_usage_errors_exit_one(capsys, files):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["sep-decide", "--from", files["seed"]])
    assert exc.value.code == 1
    capsys.readouterr()


def test_schema_error_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "1"}')
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 1
    assert "error" in err



#: Every subcommand's report runs, as argv templates over the state files,
#: ``{tmp}`` (a scratch directory) and ``{protocol}`` (a protocol file),
#: with the number of records in the ``--json`` report (1: one object).
REPORTS = {
    "generate-out": ("generate dense --rng-seed 5 --out {tmp}/g.json", 1),
    "generate-stdout": ("generate seed --rng-seed 3", 1),
    "check-generic-one": ("check-generic {degenerate}", 1),
    "check-generic-two": ("check-generic {seed} {degenerate}", 2),
    "standard-form-one": ("standard-form {tiling}", 1),
    "standard-form-two": ("standard-form {seed} {dense}", 2),
    "lu-equiv-yes": ("lu-equiv {confined} {confined}", 1),
    "lu-equiv-no": ("lu-equiv {confined} {dense}", 1),
    "classify-one": ("classify {tiling}", 1),
    "classify-two": ("classify {seed} {confined}", 2),
    "sep-decide-feasible": ("sep-decide --from {seed} --to {tiling}", 1),
    "sep-decide-infeasible": ("sep-decide --from {seed} --to {dense}", 1),
    "synth-protocol-out": ("synth-protocol --target {confined} --out {tmp}/p.json", 1),
    "synth-protocol-stdout": ("synth-protocol --target {confined}", 1),
    "verify-protocol": ("verify-protocol {protocol}", 1),
    "symmetry-audit-clean": ("symmetry-audit {seed}", 1),
    "symmetry-audit-degenerate": ("symmetry-audit {degenerate}", 1),
}


def report_argv(case, files, tmp_path):
    protocol = tmp_path / "reach.json"
    save_protocol(protocol, locc_reach_protocol(load_state(files["confined"])))
    template, _ = REPORTS[case]
    return [t.format(**files, tmp=tmp_path, protocol=protocol) for t in template.split()]


def test_report_cases_cover_every_subcommand(files, tmp_path):
    subcommands = next(
        action.choices
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    cases = {report_argv(case, files, tmp_path)[0] for case in REPORTS}
    assert cases == set(subcommands)


@pytest.mark.parametrize("case", REPORTS)
def test_json_report_is_one_document_with_the_text_exit_code(capsys, files, tmp_path, case):
    argv = report_argv(case, files, tmp_path)
    text_code, text_out, text_err = run(capsys, *argv)
    json_code, json_out, json_err = run(capsys, *argv, "--json")
    assert json_code == text_code
    assert text_out and json_err == text_err == ""
    report = json.loads(json_out)  # exactly one document: trailing data fails
    records = REPORTS[case][1]
    assert (len(report) == records) if records > 1 else isinstance(report, dict)


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_refusals_leave_stdout_empty(capsys, files, tmp_path, flags):
    seed, generic = str(tmp_path / "seed.json"), str(tmp_path / "generic.json")
    assert run(capsys, "generate", "seed", "--rng-seed", "1", "--out", seed)[0] == 0
    code, _, _ = run(
        capsys, "generate", "generic", "--rng-seed", "2", "--params-from", seed, "--out", generic
    )
    assert code == 0
    refusals = [
        ["synth-protocol", "--target", files["tiling"]],
        ["synth-protocol", "--source", files["seed"], "--target", files["dense"]],
        ["--tolerance", "0.1", "synth-protocol", "--source", seed, "--target", generic],
    ]
    for argv in refusals:
        code, out, err = run(capsys, *argv, *flags)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("not synthesized: ") and err.count("\n") == 1, argv
