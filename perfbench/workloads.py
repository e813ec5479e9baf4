"""The four closed-loop workloads and the checks on their outputs.

A workload is built once per worker process from that worker's seed.  It is
a list of operations (one *round*) that the worker repeats.  Each operation
calls public functions of the package through a :class:`spans.Tracer`, and
its check compares the outputs with a reference that does not come from the
function being timed: the structural classifier against the SEP engine, the
engine against the brute-force oracle, a protocol against a branch
simulation written here, a CLI call against the class its input was
generated in.

Every round has a fixed composition for any seed (targets are drawn by
rejection until each kind has its fixed number of targets of each support
signature), so that the latency mix, and with it every end-to-end metric,
does not depend on which seed the benchmark is run with.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qutritlocc.classify import Classification, classify
from qutritlocc.generate import random_seed_params, random_state, random_unitary
from qutritlocc.oracle import OracleBudget, brute_force_sep, numeric_symmetry_search
from qutritlocc.pauli import COORD_ORDER, INDEX_ORDER, pauli_coords
from qutritlocc.protocols import (
    BRANCH_MATCH_TOL,
    POVM_TOL,
    VACUOUS_PROB,
    KrausSet,
    locc_convert_step,
    locc_reach_protocol,
    sep_map_confined,
    sep_map_disjoint,
    sep_map_from_witness,
    simulate_branches,
    validate_povm,
)
from qutritlocc.seeds import symmetry_audit
from qutritlocc.sep import candidate_initial_grams, gram_instance, sep_feasible, sep_instance
from qutritlocc.statefile import protocol_from_json, protocol_to_json
from qutritlocc.states import (
    GenericState,
    gram,
    lu_equivalent,
    positive_factor,
    seed_gram,
    span_factor,
    standard_form,
)

from spans import Tracer

#: The brute-force budget of acceptance criterion 4 (tests/test_acceptance.py).
ORACLE_BUDGET = OracleBudget(starts=150, iters=150, rng_seed=0)

#: Alternating-least-squares starts in ``audit``: at the default 1500
#: iterations four starts take about a third of a round, as long as the
#: engine and the oracle each take.
ALS_STARTS = 4
ALS_ITERS = 1500

PROB_SUM_TOL = 1e-10
COORDS_TOL = 1e-10
UNIFORM_WITNESS_TOL = 1e-8
MAX_DRAWS = 500

Check = Callable[[Any, Counter], "str | None"]


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` calls the package, ``check`` judges its output.

    ``check`` returns None when the output is right and a reason otherwise;
    it may add to the tally it is given.
    """

    kind: str
    run: Callable[[Tracer], Any]
    check: Check
    #: a cheaper call of the same functions for the untimed warm-up
    warm: Callable[[Tracer], Any] | None = None
    #: the reference kernel whose work is most like this operation's: its
    #: latency is scaled to reference speed by that kernel (reference.py)
    kernel: str = "interp"


def _draw_state(tr: Tracer, kind: str, rng: np.random.Generator, params=None) -> GenericState:
    return tr.call("generate.random_state", random_state, kind, rng, params)


def _verdict(result) -> str:
    return "feasible" if result.feasible else "infeasible"


def _tally_sep(d, tally: Counter) -> None:
    tally["sep_calls"] += 1
    tally["sep_feasible"] += d.feasible
    tally["vertices"] += len(d.vertices)


def _shuffled(ops: list[Op], rng: np.random.Generator) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# decide: sep_feasible on every candidate initial of each target
# ---------------------------------------------------------------------------

#: Targets of each kind per round, by support signature: (candidate initials
#: from which the target is structurally reachable, candidates from which it
#: is not).  These are the most common signatures of each generator; with
#: them 17 of the 47 ``sep_feasible`` calls of a round are feasible.
DECIDE_SIGNATURES = {
    "disjoint": ((3, 0), (3, 0), (2, 0)),
    "tiling": ((1, 0), (1, 0), (1, 0)),
    "confined": ((1, 1), (1, 1), (1, 1)),
    "convertible": ((1, 1), (1, 1), (1, 1)),
    "dense": ((0, 1), (0, 1), (0, 1)),
    "generic": ((0, 1), (0, 1), (0, 1)),
}


def _candidate_expectations(state: GenericState):
    """Candidate initials of a target with the structural verdict for each.

    The bare seed reaches the target iff a disjoint-support case applies; a
    confined-pair candidate exists only for a confined case and reaches it.
    """
    disjoint = any(m.kind == "disjoint" for m in classify(state).sep_cases)
    return [
        (label, initial, disjoint if label == "seed" else True)
        for label, initial in candidate_initial_grams(gram(state))
    ]


def _sep_check(expected: bool, uniform: bool) -> Check:
    def check(d, tally: Counter) -> str | None:
        _tally_sep(d, tally)
        if (d.feasible and d.nontrivial) != expected:
            return f"sep_feasible gave feasible={d.feasible} nontrivial={d.nontrivial}, structure says {expected}"
        if uniform and (
            len(d.vertices) != 1 or np.abs(d.witness - 1.0 / 9.0).max() > UNIFORM_WITNESS_TOL
        ):
            return "tiling target without a single uniform vertex"
        return None

    return check


def _lattice_error(cls: Classification) -> str | None:
    if cls.locc_reachable and not cls.sep_reachable:
        return "locc_reachable without sep_reachable"
    if cls.sep_only != (cls.sep_reachable and not cls.locc_reachable):
        return "sep_only inconsistent"
    if cls.in_mes != (not cls.locc_reachable):
        return "in_mes inconsistent"
    if cls.isolated != (cls.in_mes and not cls.locc_convertible):
        return "isolated inconsistent"
    return None


#: The displacement operators X^a Z^b, built here from their definition
#: (X|j> = |j-1>, Z|j> = omega^j |j>) to check ``pauli_coords`` against.
_OMEGA = np.exp(2j * np.pi / 3)
_SHIFT = np.roll(np.eye(3), -1, axis=0)
_CLOCK = np.diag(_OMEGA ** np.arange(3))
_DISPLACEMENTS = [
    np.linalg.matrix_power(_SHIFT, a) @ np.linalg.matrix_power(_CLOCK, b) for a, b in COORD_ORDER
]


def coords_error(mats, coords) -> str | None:
    """Each matrix must equal ``g0 I + sum_k g_k X^a Z^b`` from its coordinates."""
    for m, (g0, g) in zip(mats, coords):
        rebuilt = g0 * np.eye(3) + sum(c * s for c, s in zip(g, _DISPLACEMENTS))
        if np.abs(rebuilt - m).max() > COORDS_TOL * max(1.0, np.abs(m).max()):
            return "pauli_coords do not rebuild the Gram matrix"
    return None


def _source_op(inst, target: GenericState, other: GenericState, equivalent: bool, reachable: bool) -> Op:
    """The target against a generic same-seed source, plus the target's
    Gram matrices in the displacement basis, its classification, standard
    form and one local-unitary query."""
    sep_check = _sep_check(False, False)

    def run(tr: Tracer):
        d = tr.call("sep.sep_feasible", sep_feasible, inst, tag=_verdict)
        mats = tr.call("states.gram", gram, target).mats
        coords = [tr.call("pauli.pauli_coords", pauli_coords, m) for m in mats]
        cls = tr.call("classify.classify", classify, target)
        form = tr.call("states.standard_form", standard_form, target)
        same = tr.call("states.lu_equivalent", lu_equivalent, target, other)
        return d, mats, coords, cls, form, same

    def check(out, tally: Counter) -> str | None:
        d, mats, coords, cls, form, same = out
        tally["warnings"] += len(cls.warnings)
        error = coords_error(mats, coords)
        if error:
            return error
        if same != equivalent:
            return f"lu_equivalent gave {same}, the pair was built {'' if equivalent else 'in'}equivalent"
        if cls.sep_reachable != reachable:
            return f"classify gave sep_reachable={cls.sep_reachable}, expected {reachable}"
        if not np.all(np.isfinite(form.coords)):
            return "standard form has non-finite coordinates"
        return sep_check(d, tally) or _lattice_error(cls)

    return Op("source", run, check)


def build_decide(tr: Tracer, rng: np.random.Generator, tiny: bool) -> list[Op]:
    ops: list[Op] = []
    targets = 0
    for kind, signatures in DECIDE_SIGNATURES.items():
        wanted = list(signatures[:1] if tiny else signatures)
        for _ in range(MAX_DRAWS):
            if not wanted:
                break
            target = _draw_state(tr, kind, rng)
            candidates = _candidate_expectations(target)
            reach = sum(expected for _, _, expected in candidates)
            signature = (reach, len(candidates) - reach)
            if signature not in wanted:
                continue
            wanted.remove(signature)
            targets += 1
            gt = gram(target)
            for label, initial, expected in candidates:
                inst = gram_instance(target.seed, initial, gt)
                ops.append(Op(
                    "reachable" if expected else "unreachable",
                    lambda tr, inst=inst: tr.call("sep.sep_feasible", sep_feasible, inst, tag=_verdict),
                    _sep_check(expected, kind == "tiling" and label == "seed"),
                    # the least-squares fit and full SVD of the 1458 x 9
                    # system are the bulk of a bare sep_feasible call
                    kernel="linalg",
                ))
            # a generic source on the same seed lies off the 8-parameter
            # family the target's depolarizations span: never feasible.
            # Every other target is compared with a unitarily dressed copy
            # of itself, the rest with that source.
            source = _draw_state(tr, "generic", rng, target.seed)
            if targets % 2:
                other = GenericState(target.seed, tuple(random_unitary(rng) @ g for g in target.factors))
            else:
                other = source
            ops.append(_source_op(sep_instance(source, target), target, other, other is not source, reach > 0))
        else:
            raise RuntimeError(f"no {kind} targets with signatures {wanted} in {MAX_DRAWS} draws")
    return _shuffled(ops, rng)


# ---------------------------------------------------------------------------
# audit: the criterion-4 cross-check plus the symmetry audits of one seed
# ---------------------------------------------------------------------------

AUDIT_KINDS = ("disjoint", "confined", "tiling", "dense")


def _cross_op(inst, structural: bool) -> Op:
    def run(tr: Tracer):
        d = tr.call("sep.sep_feasible", sep_feasible, inst, tag=_verdict)
        v = tr.call("oracle.brute_force_sep", brute_force_sep, inst, ORACLE_BUDGET)
        return d, v

    def check(out, tally: Counter) -> str | None:
        d, v = out
        engine = d.feasible and d.nontrivial
        _tally_sep(d, tally)
        tally["oracle_calls"] += 1
        if v.feasible is None:
            tally["oracle_abstain"] += 1
        elif v.feasible == engine:
            tally["oracle_agree"] += 1
        if engine != structural:
            return f"engine says {engine}, structure says {structural}"
        if v.feasible is not None and v.feasible != engine:
            return f"oracle says {v.feasible}, engine says {engine}"
        return None

    # the engine's least-squares fit and SVD take about half, the oracle's
    # face enumeration the rest: array work bound by memory more than by
    # the interpreter
    return Op("cross", run, check, kernel="linalg")


def build_audit(tr: Tracer, rng: np.random.Generator, tiny: bool) -> list[Op]:
    params = random_seed_params(rng)
    ops: list[Op] = []
    for kind in AUDIT_KINDS:
        for _ in range(1 if tiny else 3):
            target = _draw_state(tr, kind, rng, params)
            gt = gram(target)
            if kind == "confined":
                # as in criterion 4: decided from the initial its own
                # triple depolarization induces
                initial = next(g for label, g in candidate_initial_grams(gt) if label.startswith("confined-"))
            else:
                initial = seed_gram()
            ops.append(_cross_op(gram_instance(params, initial, gt), classify(target).sep_reachable))

    def audit_check(report, tally: Counter) -> str | None:
        if not report.clean or len(report.survivors) != 9:
            return f"symmetry audit not clean: {len(report.survivors)} survivors, {len(report.surplus)} surplus"
        return None

    budget = OracleBudget(starts=1 if tiny else ALS_STARTS, iters=ALS_ITERS, rng_seed=int(rng.integers(2**31)))

    def als_check(report, tally: Counter) -> str | None:
        tally["als_converged"] += report.converged
        tally["als_starts"] += report.starts
        if report.extras:
            return f"ALS found {report.extras} symmetries outside the group"
        if not set(report.found) <= set(INDEX_ORDER):
            return f"ALS labels {report.found} outside the group"
        return None

    ops.append(Op(
        "symmetry_audit",
        lambda tr: tr.call("seeds.symmetry_audit", symmetry_audit, params),
        audit_check,
        kernel="linalg",  # einsum contractions over the candidate tensors
    ))
    ops.append(Op(
        "als",
        lambda tr: tr.call("oracle.numeric_symmetry_search", numeric_symmetry_search, params, budget),
        als_check,
        lambda tr: numeric_symmetry_search(params, OracleBudget(starts=1, iters=2)),
    ))
    return _shuffled(ops, rng)


# ---------------------------------------------------------------------------
# synthesize: classify, build, verify, JSON round trip, verify again
# ---------------------------------------------------------------------------

_EYE = np.eye(3, dtype=complex)
UNIFORM = np.full(9, 1.0 / 9.0)


def _build_reach(tr: Tracer, target, cls):
    return tr.call("protocols.locc_reach_protocol", locc_reach_protocol, target, tag=_construction)


def _build_convert(tr: Tracer, target, cls):
    return tr.call("protocols.locc_convert_step", locc_convert_step, target, tag=_construction)


def _build_confined(tr: Tracer, target, cls):
    free, c1, c2 = cls.locc_cases[0].parties
    w = cls.locc_cases[0].pair
    mats = tr.call("states.gram", gram, target).mats
    return tr.call(
        "protocols.sep_map_confined", sep_map_confined,
        target.factors[free], w, target.seed, span_factor(mats[c1], w), span_factor(mats[c2], w),
        tag=_construction,
    )


def _build_disjoint(tr: Tracer, target, cls):
    a, b, _ = next(m for m in cls.sep_cases if m.kind == "disjoint").parties
    mats = tr.call("states.gram", gram, target).mats
    return tr.call(
        "protocols.sep_map_disjoint", sep_map_disjoint,
        positive_factor(mats[a]), positive_factor(mats[b]), target.seed,
        tag=_construction,
    )


def _build_witness(tr: Tracer, target, cls):
    # the tiling polytope is the single uniform point (criterion 5), so the
    # witness is known without calling sep_feasible
    source = GenericState(target.seed, (_EYE, _EYE, _EYE))
    return tr.call(
        "protocols.sep_map_from_witness", sep_map_from_witness, source, target, UNIFORM,
        tag=_construction,
    )


def _construction(obj) -> str:
    return obj.construction


def _nine_outcome_target(rng: np.random.Generator) -> GenericState:
    """Dense free party, unitary (trivial) confined parties."""
    free = random_unitary(rng) @ np.diag(rng.uniform(0.5, 1.5, size=3)) @ random_unitary(rng)
    return GenericState(random_seed_params(rng), (free, random_unitary(rng), random_unitary(rng)))


#: construction label -> (generator kind, builder, classification it needs,
#: targets per round).  The nine-outcome construction costs about the median
#: of the seven; four of its targets in a round of sixteen keep
#: ``latency_p50_ms`` inside one group of operations, away from the step
#: between two construction costs.
RECIPES = {
    "locc-one-round": ("confined", _build_reach, "locc_reachable", 2),
    "locc-two-stage": ("disjoint", _build_reach, "locc_reachable", 2),
    "locc-nine-outcome": (None, _build_reach, "locc_reachable", 4),
    "sep-confined": ("confined", _build_confined, "locc_reachable", 2),
    "sep-disjoint": ("disjoint", _build_disjoint, "sep_reachable", 2),
    "sep-witness": ("tiling", _build_witness, "support_tiling", 2),
    "locc-convert-step": ("convertible", _build_convert, "locc_convertible", 2),
}


def _seed_vector(seed) -> np.ndarray:
    """a(|000>+|111>+|222>) + b(|012>+|201>+|120>) + c(|021>+|210>+|102>)."""
    v = np.zeros(27, dtype=complex)
    for i in range(3):
        v[9 * i + 3 * i + i] += seed.a
        v[9 * i + 3 * ((i + 1) % 3) + (i + 2) % 3] += seed.b
        v[9 * i + 3 * ((i + 2) % 3) + (i + 1) % 3] += seed.c
    return v


def _kron3(a, b, c) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


def _branch_operators(obj) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-party operator of every branch, composed round by round."""
    if isinstance(obj, KrausSet):
        return [el.factors for el in obj.elements]
    branches = [(_EYE, _EYE, _EYE)]
    for rnd in obj.rounds:
        nxt = []
        for ops in branches:
            for (_, m), corrections in zip(rnd.povm, rnd.corrections):
                step = [_EYE, _EYE, _EYE]
                step[rnd.party] = m
                for party, u in corrections:
                    step[party] = u
                nxt.append(tuple(s @ o for s, o in zip(step, ops)))
        branches = nxt
    return branches


def reference_protocol_error(obj) -> str | None:
    """Check a protocol by direct simulation, independently of the package's
    own simulator: the branch operators must be complete and every branch
    with weight must land on the declared target ray."""
    branches = _branch_operators(obj)
    total = sum(_kron3(*(f.conj().T @ f for f in ops)) for ops in branches)
    completeness = float(np.linalg.norm(total - np.eye(27)))
    if completeness > POVM_TOL:
        return f"reference completeness residual {completeness:.2e}"
    v0 = _kron3(*obj.initial.factors) @ _seed_vector(obj.initial.seed)
    v0 = v0 / np.linalg.norm(v0)
    t = _kron3(*obj.target.factors) @ _seed_vector(obj.target.seed)
    t = t / np.linalg.norm(t)
    prob_sum = 0.0
    for ops in branches:
        v = _kron3(*ops) @ v0
        prob = float(np.vdot(v, v).real)
        prob_sum += prob
        if prob <= VACUOUS_PROB:
            continue
        u = v / np.sqrt(prob)
        overlap = np.vdot(t, u)
        distance = float(np.linalg.norm(u - overlap / abs(overlap) * t))
        if distance > BRANCH_MATCH_TOL:
            return f"reference branch off target by {distance:.2e}"
    if abs(prob_sum - 1.0) > PROB_SUM_TOL:
        return f"reference probability sum off by {abs(prob_sum - 1.0):.2e}"
    return None


def _package_verdict_error(povm: float, report) -> str | None:
    if povm > POVM_TOL:
        return f"validate_povm residual {povm:.2e}"
    if not report.all_matched:
        return "simulate_branches: a branch missed the target"
    if abs(report.probability_sum - 1.0) > PROB_SUM_TOL:
        return f"simulate_branches probability sum off by {abs(report.probability_sum - 1.0):.2e}"
    return None


def _synth_op(target: GenericState, label: str) -> Op:
    _, build, needs, _ = RECIPES[label]

    def run(tr: Tracer):
        cls = tr.call("classify.classify", classify, target)
        obj = build(tr, target, cls)
        povm = tr.call("protocols.validate_povm", validate_povm, obj)
        report = tr.call("protocols.simulate_branches", simulate_branches, obj)
        text = json.dumps(tr.call("statefile.protocol_to_json", protocol_to_json, obj))
        back = tr.call("statefile.protocol_from_json", protocol_from_json, json.loads(text))
        povm_back = tr.call("protocols.validate_povm", validate_povm, back)
        report_back = tr.call("protocols.simulate_branches", simulate_branches, back)
        return cls, obj, povm, report, text, back, povm_back, report_back

    def check(out, tally: Counter) -> str | None:
        cls, obj, povm, report, text, back, povm_back, report_back = out
        tally["warnings"] += len(cls.warnings)
        tally["branches"] += len(report.branches)
        tally["bytes"] += len(text)
        if not getattr(cls, needs):
            return f"classify: a {label} target is not {needs}"
        if obj.construction != label or back.construction != label:
            return f"built {obj.construction}, reloaded {back.construction}, expected {label}"
        if len(report_back.branches) != len(report.branches):
            return "branch count changed in the JSON round trip"
        return (
            _package_verdict_error(povm, report)
            or _package_verdict_error(povm_back, report_back)
            or reference_protocol_error(obj)
            or reference_protocol_error(back)
        )

    return Op(label, run, check)


def build_synthesize(tr: Tracer, rng: np.random.Generator, tiny: bool) -> list[Op]:
    ops = []
    for label, (kind, _, _, count) in RECIPES.items():
        for _ in range(1 if tiny else count):
            target = _nine_outcome_target(rng) if kind is None else _draw_state(tr, kind, rng)
            ops.append(_synth_op(target, label))
    return _shuffled(ops, rng)


# ---------------------------------------------------------------------------
# cli: one `python -m qutritlocc.cli` process per operation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliCall:
    """A subcommand, its expected exit code, and ``(line, text)`` pairs the
    expected output must contain."""

    name: str
    argv: tuple[str, ...]
    code: int
    lines: tuple[tuple[int, str], ...]


def cli_calls(rng_seed: int, tiny: bool) -> list[CliCall]:
    """The fixed subcommand sequence; the expected verdicts follow from the
    class each file was generated in."""
    s = str(rng_seed)
    generate = [
        CliCall("generate", ("generate", "seed", "--rng-seed", s, "--out", "seed.json"), 0,
                ((0, "wrote seed state to seed.json"),)),
        CliCall("generate", ("generate", "tiling", "--params-from", "seed.json", "--rng-seed", s,
                             "--out", "tiling.json"), 0, ((0, "wrote tiling state"),)),
    ]
    if tiny:
        return generate + [
            CliCall("sep-decide", ("sep-decide", "--from", "seed.json", "--to", "tiling.json"), 0,
                    ((0, "feasible"), (2, "vertices: 1 (unique), nontrivial"))),
        ]
    return generate + [
        CliCall("generate", ("generate", "confined", "--params-from", "seed.json", "--rng-seed", s,
                             "--out", "confined.json"), 0, ((0, "wrote confined state"),)),
        CliCall("generate", ("generate", "convertible", "--params-from", "seed.json", "--rng-seed", s,
                             "--out", "convertible.json"), 0, ((0, "wrote convertible state"),)),
        CliCall("check-generic", ("check-generic", "seed.json"), 0, ((0, "seed.json: generic (margin"),)),
        CliCall("standard-form", ("standard-form", "confined.json"), 0, ((0, "confined.json: gauge ("),)),
        CliCall("lu-equiv", ("lu-equiv", "confined.json", "tiling.json"), 2, ((0, "not locally equivalent"),)),
        CliCall("classify", ("classify", "confined.json", "tiling.json", "convertible.json"), 0,
                ((0, "locc_reachable"), (1, "support_tiling"), (2, "locc_convertible"))),
        CliCall("sep-decide", ("sep-decide", "--from", "seed.json", "--to", "tiling.json"), 0,
                ((0, "feasible"), (2, "vertices: 1 (unique), nontrivial"))),
        CliCall("sep-decide", ("sep-decide", "--from", "tiling.json", "--to", "seed.json"), 2,
                ((0, "infeasible ("),)),
        CliCall("sep-decide-oracle", ("sep-decide", "--oracle", "--from", "seed.json", "--to", "tiling.json"), 0,
                ((0, "feasible"), (3, "oracle: True"))),
        CliCall("synth-protocol", ("synth-protocol", "--target", "confined.json", "--out", "locc.json"), 0,
                ((0, "wrote locc-one-round protocol to locc.json"),)),
        CliCall("synth-protocol", ("synth-protocol", "--target", "tiling.json", "--source", "seed.json",
                                   "--out", "witness.json"), 0,
                ((0, "wrote sep-witness protocol to witness.json"),)),
        CliCall("verify-protocol", ("verify-protocol", "witness.json"), 0, ((0, "witness.json: ok"),)),
        CliCall("symmetry-audit", ("symmetry-audit", "seed.json"), 0,
                ((0, "seed.json: clean (9 survivors, 0 surplus)"),)),
    ]


CLI_TIMEOUT_S = 120


def run_cli(argv, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qutritlocc.cli", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )


def _cli_op(call: CliCall, cwd: Path) -> Op:
    def run(tr: Tracer):
        return tr.call(f"cli.{call.name}", run_cli, call.argv, cwd)

    def check(proc, tally: Counter) -> str | None:
        if proc.returncode != call.code:
            return f"{' '.join(call.argv)}: exit {proc.returncode}, expected {call.code}: {proc.stderr.strip()[-200:]}"
        lines = proc.stdout.splitlines()
        for index, text in call.lines:
            if index >= len(lines) or text not in lines[index]:
                return f"{' '.join(call.argv)}: line {index} lacks {text!r}"
        return None

    # a fresh interpreter's start-up (mapping shared libraries, page faults,
    # reading the bytecode of numpy and the package) outweighs the work of
    # any subcommand, and slows with the machine as the linalg kernel does
    return Op(call.name, run, check, kernel="linalg")


#: One untimed run of every subcommand, reading only the file the first
#: writes, so that each worker's setup fills the bytecode cache and the page
#: cache at the cost of nine processes.
CLI_WARM_UP = (
    ("generate", "seed", "--out", "warm.json"),
    ("check-generic", "warm.json"),
    ("standard-form", "warm.json"),
    ("lu-equiv", "warm.json", "warm.json"),
    ("classify", "warm.json"),
    ("sep-decide", "--from", "warm.json", "--to", "warm.json"),
    ("synth-protocol", "--target", "warm.json", "--source", "warm.json", "--out", "warm-protocol.json"),
    ("verify-protocol", "warm-protocol.json"),
    ("symmetry-audit", "warm.json"),
)


def build_cli(rng: np.random.Generator, tiny: bool, workdir: Path) -> tuple[list[Op], list[Op]]:
    """The round's operations and the untimed warm-up."""
    ops = [_cli_op(call, workdir) for call in cli_calls(int(rng.integers(2**31)), tiny)]
    warm = [
        Op(argv[0], lambda tr, argv=argv: run_cli(argv, workdir), lambda out, tally: None)
        for argv in CLI_WARM_UP
    ]
    return ops, warm


#: workload -> (builder of one round, distinct rounds per worker).  A worker
#: cycles through its rounds; each audit round is one seed.
ROUND_BUILDERS = {
    "decide": (build_decide, 4),
    "audit": (build_audit, 4),
    "synthesize": (build_synthesize, 8),
}


def cli_import_probe(tr: Tracer, cwd: Path) -> None:
    """Time the bare ``import qutritlocc.cli`` of a fresh interpreter."""
    tr.call(
        "cli.import", subprocess.run, [sys.executable, "-c", "import qutritlocc.cli"],
        cwd=cwd, check=True, timeout=CLI_TIMEOUT_S,
    )
