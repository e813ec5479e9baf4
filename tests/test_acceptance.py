"""End-to-end acceptance checks.

Each test is one numbered criterion with pinned tolerances and, where the
contract demands it, a wall-clock budget.  Every test prints a single
``criterion N: PASS/FAIL`` line with the measured numbers so a plain
``pytest -v -s tests/test_acceptance.py`` reads as a certificate.
"""

import time

import numpy as np

from qutritlocc.classify import classify, classify_gram
from qutritlocc.generate import KINDS, random_seed_params, random_state, random_unitary
from qutritlocc.oracle import OracleBudget, brute_force_sep
from qutritlocc.pauli import INDEX_ORDER, PAIR_REPS, PAULIS, dagger, from_coords
from qutritlocc.protocols import (
    locc_convert_step,
    locc_reach_protocol,
    sep_map_confined,
    sep_map_disjoint,
    sep_map_from_witness,
    simulate_branches,
    validate_povm,
)
from qutritlocc.seeds import symmetry_audit, verify_symmetries
from qutritlocc.sep import candidate_initial_grams, depolarize, gram_instance, sep_feasible
from qutritlocc.states import (
    GenericState,
    gram,
    lu_equivalent,
    positive_factor,
    seed_gram,
    span_factor,
    standard_form,
)

SYMMETRY_TOL = 1e-10          # criterion 1
DEPOLARIZE_TOL = 1e-12        # criterion 3
UNIFORM_WITNESS_TOL = 1e-8    # criterion 5
POVM_RESIDUAL_TOL = 1e-10     # criterion 6
PROB_SUM_TOL = 1e-10          # criterion 6
BRANCH_TOL = 1e-8             # criterion 6
STEP_MIN_EIG = 1e-6           # criterion 8

# The brute-force oracle (an active-set minimizer plus a duality-gap
# certificate) takes no budget, so this one affects no verdict.  It stays
# because perfbench's audit workload still passes the same budget to the
# oracle, and its tests assert that the two are equal.
ORACLE_BUDGET = OracleBudget(starts=150, iters=150, rng_seed=0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def pair_mat(w, z=0.08):
    return np.eye(3) / 3 + z * (PAULIS[w] + dagger(PAULIS[w]))


def two_pair_mat(w1, w2, z=0.05):
    return (
        np.eye(3) / 3
        + z * (PAULIS[w1] + dagger(PAULIS[w1]))
        + z * (PAULIS[w2] + dagger(PAULIS[w2]))
    )


def _dense_factor(rng):
    return rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)


def _protocol_ok(obj) -> tuple[bool, float, float, float]:
    povm = validate_povm(obj)
    rep = simulate_branches(obj)
    ok = (
        povm <= POVM_RESIDUAL_TOL
        and abs(rep.probability_sum - 1.0) <= PROB_SUM_TOL
        and rep.all_matched
        and rep.max_residual <= BRANCH_TOL
    )
    return ok, povm, abs(rep.probability_sum - 1.0), rep.max_residual


def test_criterion_1_symmetry_residuals():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        worst = max(worst, verify_symmetries(random_seed_params(rng)))
    elapsed = time.perf_counter() - start
    ok = worst <= SYMMETRY_TOL and elapsed < 5.0
    _report(1, ok, f"max symmetry residual {worst:.2e} over 100 seeds "
                   f"(limit {SYMMETRY_TOL:.0e}); {elapsed:.2f}s (limit 5s)")
    assert worst <= SYMMETRY_TOL
    assert elapsed < 5.0


def test_criterion_2_symmetry_audit():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        report = symmetry_audit(random_seed_params(rng))
        assert len(report.survivors) == 9
        assert all(r.pauli is not None for r in report.survivors)
        assert {r.pauli for r in report.survivors} == set(INDEX_ORDER)
        assert not report.surplus
        worst = max(worst, report.max_full_residual)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(2, ok, f"20 audits, 9 Pauli-identified survivors each, worst residual "
                   f"{worst:.2e}; {elapsed:.1f}s (limit 60s)")
    assert elapsed < 60.0


def test_criterion_3_uniform_depolarization():
    rng = np.random.default_rng(3)
    uniform = np.full(9, 1.0 / 9.0)
    worst = 0.0
    for _ in range(1000):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = dagger(g) @ g
        h = h / np.trace(h).real
        worst = max(worst, float(np.abs(depolarize(h, uniform) - np.eye(3) / 3).max()))
    ok = worst <= DEPOLARIZE_TOL
    _report(3, ok, f"max deviation from I/3 over 1000 factors: {worst:.2e} "
                   f"(limit {DEPOLARIZE_TOL:.0e})")
    assert worst <= DEPOLARIZE_TOL


def test_criterion_4_reachability_agreement():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    per_class = 200
    mismatches = 0
    inconclusive = 0
    total = 0
    for kind in ("disjoint", "confined", "tiling", "dense"):
        for _ in range(per_class):
            state = random_state(kind, rng)
            gt = gram(state)
            structural = classify(state).sep_reachable

            if kind == "confined":
                # reachability of a confined target is decided from the
                # initial Gram its own triple-depolarization induces
                initial = next(
                    g for label, g in candidate_initial_grams(gt)
                    if label.startswith("confined-")
                )
            else:
                initial = seed_gram()
            instance = gram_instance(state.seed, initial, gt)

            decision = sep_feasible(instance)
            engine = decision.feasible and decision.nontrivial
            verdict = brute_force_sep(instance)

            total += 1
            if structural != engine:
                mismatches += 1
            if verdict.feasible is None:
                inconclusive += 1
            elif verdict.feasible != engine:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and inconclusive < 0.01 * total and elapsed < 120.0
    _report(4, ok, f"{total} instances (4 classes x {per_class}): {mismatches} mismatches, "
                   f"{inconclusive} oracle abstentions; {elapsed:.1f}s (limit 120s)")
    assert mismatches == 0
    assert inconclusive < 0.01 * total
    assert elapsed < 120.0


def test_criterion_5_tiling_uniqueness():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        state = random_state("tiling", rng)
        decision = sep_feasible(gram_instance(state.seed, seed_gram(), gram(state)))
        assert decision.feasible
        assert decision.unique and len(decision.vertices) == 1
        worst = max(worst, float(np.abs(decision.witness - 1.0 / 9.0).max()))
        cls = classify(state)
        assert cls.sep_only and not cls.locc_reachable
    ok = worst <= UNIFORM_WITNESS_TOL
    _report(5, ok, f"50 tiling targets, all single-point polytopes; max deviation "
                   f"from uniform witness {worst:.2e} (limit {UNIFORM_WITNESS_TOL:.0e})")
    assert worst <= UNIFORM_WITNESS_TOL


def test_criterion_6_protocol_validation():
    rng = np.random.default_rng(6)
    reps = list(PAIR_REPS)  # one representative per conjugate pair
    counts = {}
    worst = {"povm": 0.0, "prob": 0.0, "branch": 0.0}

    def check(family, obj):
        ok, povm, prob, branch = _protocol_ok(obj)
        counts[family] = counts.get(family, 0) + 1
        worst["povm"] = max(worst["povm"], povm)
        worst["prob"] = max(worst["prob"], prob)
        worst["branch"] = max(worst["branch"], branch)
        assert ok, f"{family} instance failed validation"

    for i in range(50):
        params = random_seed_params(rng)

        picks = rng.permutation(4)
        w1, w2, w3 = reps[picks[0]], reps[picks[1]], reps[picks[2]]
        h1 = positive_factor(
            two_pair_mat(w1, w2) if i % 3 == 0 else pair_mat(w1, 0.05 + 0.06 * rng.random())
        )
        h2 = positive_factor(pair_mat(w3, 0.05 + 0.06 * rng.random()))
        check("sep-disjoint", sep_map_disjoint(h1, h2, params))

        w = reps[rng.integers(4)]
        extras = {}
        if i % 2 == 0:
            extras["h2"] = span_factor(pair_mat(w, 0.09), w)
        check("sep-confined", sep_map_confined(_dense_factor(rng), w, params, **extras))

        if i % 2 == 0:
            target = GenericState(
                params,
                (
                    _dense_factor(rng),
                    span_factor(pair_mat(w, 0.08), w),
                    random_unitary(rng) @ span_factor(pair_mat(w, 0.05), w),
                ),
            )
            proto = locc_reach_protocol(target)
            assert proto.construction == "locc-one-round"
        else:
            target = GenericState(
                params, (_dense_factor(rng), random_unitary(rng), random_unitary(rng))
            )
            proto = locc_reach_protocol(target)
            assert proto.construction == "locc-nine-outcome"
        check("locc-reach", proto)

        u = reps[(picks[0] + 1) % 4] if reps[picks[0]] == w else reps[picks[0]]
        target = GenericState(
            params,
            (
                positive_factor(pair_mat(u, 0.05 + 0.06 * rng.random())),
                span_factor(pair_mat(w, 0.08), w),
                random_unitary(rng),
            ),
        )
        proto = locc_reach_protocol(target)
        assert proto.construction == "locc-two-stage"
        check("locc-two-stage", proto)

        check("convert-step", locc_convert_step(random_state("convertible", rng)))

        # the tiling polytope is the single uniform point (criterion 5)
        tiling = random_state("tiling", rng)
        bare = GenericState(tiling.seed, (np.eye(3),) * 3)
        check("sep-witness", sep_map_from_witness(bare, tiling, np.full(9, 1.0 / 9.0)))

    ok = all(n == 50 for n in counts.values()) and len(counts) == 6
    _report(6, ok, f"{sum(counts.values())} protocols across {len(counts)} constructions; "
                   f"worst POVM {worst['povm']:.1e}, prob-sum {worst['prob']:.1e}, "
                   f"branch {worst['branch']:.1e}")
    assert counts == {k: 50 for k in counts}
    assert len(counts) == 6


def test_criterion_7_standard_form_suite():
    rng = np.random.default_rng(7)
    for _ in range(100):
        params = random_seed_params(rng)
        factors = tuple(_dense_factor(rng) for _ in range(3))
        state = GenericState(params, factors)
        form = standard_form(state)

        # idempotence: rebuilding from the form's own coordinates fixes it
        rebuilt = GenericState(
            params,
            tuple(positive_factor(from_coords(1 / 3, form.coords[i])) for i in range(3)),
        )
        assert standard_form(rebuilt).close_to(form)

        # unitary dressing drops out (the "equal" pair)
        dressed = GenericState(
            params, tuple(random_unitary(rng) @ f for f in factors)
        )
        assert standard_form(dressed).close_to(form)
        assert lu_equivalent(state, dressed)

        # conjugating every factor by one symmetry is a gauge move
        for k in INDEX_ORDER:
            conjugated = GenericState(params, tuple(f @ PAULIS[k] for f in factors))
            assert standard_form(conjugated).close_to(form)

        # independent draws are distinguished (the "unequal" pair)
        other = GenericState(params, tuple(_dense_factor(rng) for _ in range(3)))
        assert not lu_equivalent(state, other)
    _report(7, True, "100 dressed/conjugated pairs equal, 100 independent pairs "
                     "unequal, idempotence on all 100")


def test_criterion_8_conversion_step():
    rng = np.random.default_rng(8)
    worst_eig = 1.0
    for _ in range(50):
        source = random_state("convertible", rng)
        proto = locc_convert_step(source)
        ok, *_ = _protocol_ok(proto)
        assert ok
        for f in proto.target.factors:
            h = dagger(f) @ f
            worst_eig = min(
                worst_eig, float(np.linalg.eigvalsh(h / np.trace(h).real).min())
            )
        assert classify(proto.target).locc_reachable
    ok = worst_eig >= STEP_MIN_EIG
    _report(8, ok, f"50 conversion steps: targets positive definite "
                   f"(min eigenvalue {worst_eig:.2e} >= {STEP_MIN_EIG:.0e}), protocols "
                   f"valid, targets reachable")
    assert worst_eig >= STEP_MIN_EIG


def test_criterion_9_classification_lattice():
    rng = np.random.default_rng(9)
    corpus = []
    for i in range(1000):
        kind = KINDS[i % len(KINDS)]
        corpus.append((kind, random_state(kind, rng)))

    n_generic = 0
    n_generic_isolated = 0
    for kind, state in corpus:
        cls = classify(state)
        if cls.locc_reachable:
            assert cls.sep_reachable
        assert cls.sep_only == (cls.sep_reachable and not cls.locc_reachable)
        assert cls.in_mes == (not cls.locc_reachable)
        assert cls.isolated == (cls.in_mes and not cls.locc_convertible)
        if cls.support_tiling:
            assert cls.sep_only
        if kind == "dense":
            assert cls.isolated and cls.in_mes
        if kind == "generic":
            n_generic += 1
            n_generic_isolated += cls.isolated
    ok = n_generic_isolated == n_generic
    _report(9, ok, f"1000-state corpus: lattice invariants hold; "
                   f"{n_generic_isolated}/{n_generic} unconstrained random states isolated")
    assert n_generic_isolated == n_generic
