"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from metrics import END_TO_END, layer_metrics, per_layer_units, quantile, tail  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str], dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, lines, result


# ---------------------------------------------------------------------------
# spans and metric arithmetic
# ---------------------------------------------------------------------------

def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),     # overlaps a: the union [1, 6] counts once
        Span("c", 8.0, 12.0, 0, 0),    # runs past the root: clipped at 10
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("other", 20.0, 21.5, None, 1),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 3 - 1, 3, 4, 1, 1.5])


def test_tracer_records_parents_and_tags_only_when_enabled():
    tr = Tracer()
    assert tr.call("off", lambda: 7) == 7
    assert tr.spans == []

    tr.enabled = True
    tr.op = 3

    def outer():
        return tr.call("inner", lambda x: x * 2, 21, tag=lambda r: f"got {r}")

    assert tr.call("outer", outer, tag="fixed") == 42
    inner, outer_span = tr.spans[1], tr.spans[0]
    assert (outer_span.name, outer_span.parent, outer_span.tag) == ("outer", None, "fixed")
    assert (inner.name, inner.parent, inner.tag, inner.op) == ("inner", 0, "got 42", 3)
    assert outer_span.start <= inner.start <= inner.end <= outer_span.end


def test_tail_leaves_ten_samples_beyond():
    for n in (21, 45, 98, 780, 1610):
        values = [float(v) for v in range(n)]
        p, value = tail(values)
        assert sum(v > value for v in values) == 10
        assert quantile(values, p / 100.0) == pytest.approx(value)
    assert tail([1.0, 2.0, 3.0]) == (50.0, 2.0)


def test_layer_metrics_split_verdicts_and_zero_unused_layers():
    records = [
        ("sep.sep_feasible", 0.060, 0.060, "feasible"),
        ("sep.sep_feasible", 0.002, 0.002, "infeasible"),
        ("sep.sep_feasible", 0.004, 0.004, "infeasible"),
        ("protocols.locc_reach_protocol", 0.003, 0.003, "locc-one-round"),
        ("bench.op", 0.070, 0.001, "sep"),
    ]
    out = layer_metrics(records)
    assert out["sep.sep_feasible.calls"] == 3
    assert out["sep.sep_feasible.busy_s"] == pytest.approx(0.066)
    assert out["sep.sep_feasible.p50_ms"] == pytest.approx(4.0)
    assert out["sep.sep_feasible.feasible.p50_ms"] == pytest.approx(60.0)
    assert out["sep.sep_feasible.infeasible.p50_ms"] == pytest.approx(3.0)
    assert out["protocols.locc-one-round.p50_ms"] == pytest.approx(3.0)
    assert out["oracle.brute_force_sep.calls"] == 0
    assert out["oracle.brute_force_sep.p50_ms"] == 0.0


def test_a_run_measures_the_same_operations_at_any_speed():
    import time
    from collections import Counter

    from workloads import Op
    from worker import measure

    def round_of(cost_s):
        def run(tr):
            end = time.perf_counter() + cost_s
            while time.perf_counter() < end:
                pass
            return cost_s

        def check(out, tally: Counter):
            tally["calls"] += 1
            return None

        return [Op("slow", run, check), Op("fast", lambda tr: 0.0, check)]

    fast = measure([round_of(0.0005)], 3, Tracer(), lambda kind: 1.0)
    slow = measure([round_of(0.005)], 3, Tracer(), lambda kind: 1.0)
    assert len(fast["latencies_s"]) == len(slow["latencies_s"]) == 6
    assert fast["tally"] == slow["tally"] == {"calls": 2}
    assert fast["totals"] == slow["totals"] == {"calls": 6}
    # so the tail percentile lands on the same operation kind
    assert tail(fast["latencies_s"])[0] == tail(slow["latencies_s"])[0]


def test_each_operation_is_bracketed_by_two_samples_of_its_kernel(monkeypatch):
    import reference
    from workloads import Op
    from worker import measure

    def op(kind, kernel, cost):
        def run(tr):
            end = time.perf_counter() + cost
            while time.perf_counter() < end:
                pass

        return Op(kind, run, lambda out, tally: None, kernel=kernel)

    # linalg after every operation, interp after every second one
    monkeypatch.setattr(reference, "CALIBRATE_EVERY_S", {"linalg": 0.0, "interp": 0.003})
    counter = iter(range(1, 100))
    ops = [op("a", "linalg", 0.002), op("b", "interp", 0.002)]
    out = measure([ops], 2, Tracer(), lambda kind: float(next(counter)))
    assert out["kernels"] == ["linalg", "interp"] * 2
    assert out["samples"] == {"interp": [1.0, 4.0, 7.0, 9.0], "linalg": [2.0, 3.0, 5.0, 6.0, 8.0, 10.0]}
    # each operation is bracketed by the last sample of its kernel before it
    # and the next one; the final samples close the last brackets
    assert out["brackets"] == [0, 0, 2, 1]

    # a process that only sets up measures nothing
    out = measure([ops], 0, Tracer(), lambda kind: 5.0)
    assert out["latencies_s"] == out["brackets"] == []


def test_scaling_cancels_a_machine_slowdown():
    from reference import REFERENCE_S, scale

    fast, slow = REFERENCE_S["linalg"], 2 * REFERENCE_S["linalg"]
    # the same 10 ms operation, with the machine (and so the kernel) running
    # at reference speed, twice as slowly, and twice as slowly for one of the
    # two samples that bracket it and 1.5 times for the other
    samples = {"linalg": [fast, fast, slow, slow, 1.5 * fast], "interp": [1.0] * 5}
    latencies = [0.010, 0.020, 0.0175]
    assert scale(latencies, ["linalg"] * 3, [0, 2, 3], samples) == pytest.approx([0.010] * 3)
    # an operation is scaled by its own kernel only
    half = REFERENCE_S["interp"] / 2
    assert scale([0.010], ["interp"], [0], {"interp": [half, half]}) == pytest.approx([0.020])


def test_tail_scaling_uses_the_runs_slow_end():
    from reference import REFERENCE_S, TAIL_QUANTILE, scale_to_slow_end

    assert TAIL_QUANTILE == 0.9
    ref = REFERENCE_S["interp"]
    # ten samples: the 0.9 quantile is the slowest, twice the reference time
    samples = {"interp": [ref] * 9 + [2 * ref], "linalg": [REFERENCE_S["linalg"]] * 2}
    out = scale_to_slow_end([0.010, 0.004], ["interp", "linalg"], samples)
    assert out == pytest.approx([0.005, 0.004])


def test_calibrator_times_each_kernel_in_its_own_process():
    import os

    import reference

    with reference.Calibrator() as calibrator:
        pid = calibrator.proc.pid
        assert pid != os.getpid()
        for kind in sorted(reference.REFERENCE_S):
            assert 0 < calibrator(kind) < 10 * reference.REFERENCE_S[kind] + 1
    assert calibrator.proc.returncode == 0


def test_round_count_and_deadline_follow_seconds_only():
    import run

    for workload, per_worker in run.ROUNDS_PER_WORKER.items():
        assert run.rounds_per_worker(workload, run.DEFAULT_SECONDS) == per_worker
        assert run.rounds_per_worker(workload, 0.1) == 1
    assert run.rounds_per_worker("audit", 3 * run.DEFAULT_SECONDS) == 3 * run.ROUNDS_PER_WORKER["audit"]
    assert run.deadline_s(run.DEFAULT_SECONDS) < 180
    assert run.deadline_s(200) > 200


def test_coords_check_catches_wrong_coordinates():
    import numpy as np
    import workloads
    from qutritlocc.generate import random_state
    from qutritlocc.pauli import pauli_coords
    from qutritlocc.states import gram

    mats = gram(random_state("confined", np.random.default_rng(0))).mats
    coords = [pauli_coords(m) for m in mats]
    assert workloads.coords_error(mats, coords) is None
    g0, g = coords[1]
    bent = coords[:1] + [(g0, g * (1 + 1e-6))] + coords[2:]
    assert workloads.coords_error(mats, bent)


# ---------------------------------------------------------------------------
# the declared benchmark and the harness agree
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_every_metric_the_harness_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_audit_uses_the_acceptance_oracle_budget():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import test_acceptance
        import workloads
    finally:
        sys.path.remove(str(ROOT / "tests"))
    assert workloads.ORACLE_BUDGET == test_acceptance.ORACLE_BUDGET


def test_reference_check_catches_a_broken_protocol():
    import dataclasses

    import numpy as np
    import workloads
    from qutritlocc.generate import random_state
    from qutritlocc.protocols import sep_map_from_witness
    from qutritlocc.states import GenericState

    target = random_state("tiling", np.random.default_rng(0))
    eye = np.eye(3, dtype=complex)
    good = sep_map_from_witness(GenericState(target.seed, (eye, eye, eye)), target, workloads.UNIFORM)
    assert workloads.reference_protocol_error(good) is None

    first = good.elements[0]
    bent = dataclasses.replace(first, factors=(first.factors[0] * 1.001, *first.factors[1:]))
    broken = dataclasses.replace(good, elements=(bent, *good.elements[1:]))
    assert "completeness" in workloads.reference_protocol_error(broken)


# ---------------------------------------------------------------------------
# the command, end to end, at the smallest size
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["decide", "audit", "synthesize", "cli"])
def test_tiny_run_passes_its_checks(workload):
    code, lines, result = _run("--workload", workload, "--tiny", "--seconds", "0.2", "--trace", "0")
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("# unscaled: ops_per_s") for line in lines)


@pytest.mark.parametrize(
    "workload, layers",
    [
        ("decide", ["sep.sep_feasible", "pauli.pauli_coords", "classify.classify", "states.lu_equivalent",
                    "generate.random_state"]),
        ("audit", ["oracle.brute_force_sep", "oracle.numeric_symmetry_search", "seeds.symmetry_audit"]),
        ("synthesize", ["protocols.simulate_branches", "statefile.protocol_from_json", "states.gram"]),
    ],
)
def test_tiny_traced_run_reports_its_layers(workload, layers):
    # a traced run traces every other operation, alternating between rounds:
    # the default run length gives each worker at least two rounds
    code, lines, result = _run("--workload", workload, "--tiny", "--seconds", "20", "--trace", "1")
    assert code == 0, lines
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == per_layer_units()
    for layer in layers:
        assert metrics[f"{layer}.calls"]["value"] > 0
        assert metrics[f"{layer}.busy_s"]["value"] > 0
        assert metrics[f"{layer}.p50_ms"]["value"] > 0
    if workload == "synthesize":
        import metrics as m

        for label in m.CONSTRUCTIONS:
            assert metrics[f"protocols.{label}.p50_ms"]["value"] > 0


def test_tiny_traced_cli_run_times_the_import():
    code, lines, result = _run("--workload", "cli", "--tiny", "--seconds", "0.2", "--trace", "1")
    assert code == 0, lines
    assert result["metrics"]["cli.import.p50_ms"]["value"] > 0
    assert result["metrics"]["cli.sep-decide.p50_ms"]["value"] > 0


def test_injected_wrong_verdict_fails_the_run():
    code, lines, result = _run("--workload", "decide", "--tiny", "--seconds", "0.2", "--inject-wrong-verdict")
    assert code != 0
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(line.startswith("# check failed: injected wrong expected verdict") for line in lines)
    fail_line = next(line for line in lines if line.startswith("# fail_ratio"))
    assert float(fail_line.split()[2]) > 0


def test_abstention_after_the_first_round_fails_the_run():
    import run

    rounds = run.rounds_per_worker("audit", 20)
    assert rounds >= 2
    code, lines, result = _run("--workload", "audit", "--tiny", "--seconds", "20", "--inject-abstention")
    assert code != 0
    assert not result["correct"]
    # a tiny audit round has one cross-check of each of the four classes
    expected = f"# check failed: oracle abstained on {4 * (rounds - 1)} of {4 * rounds} calls"
    assert any(line.startswith(expected) for line in lines), lines


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, result = _run("--workload", "decide", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert result is None
