import warnings
from itertools import combinations

import numpy as np
import pytest

from qutritlocc import oracle
from qutritlocc.generate import KINDS as KINDS_OF_STATE
from qutritlocc.generate import random_seed_params, random_state
from qutritlocc.oracle import (
    _ALS_CHECK_EVERY,
    ALS_CONVERGED_TOL,
    REJECT_TOL,
    WITNESS_TOL,
    OracleBudget,
    _als_sweep,
    _active_set_minimum,
    _certificate,
    _face_solve,
    _gram_solve,
    _mixing_system,
    brute_force_sep,
    numeric_symmetry_search,
)
from qutritlocc.pauli import INDEX_ORDER, PAULIS, idx_neg
from qutritlocc.seeds import build_seed
from qutritlocc.sep import candidate_initial_grams, gram_instance, sep_feasible
from qutritlocc.states import (
    GenericState,
    gram,
    positive_factor,
    seed_gram,
    span_factor,
)

from helpers import dense_factor, pair_mat, two_pair_mat

# Effort for the reference projected-gradient sweep below; the oracle's
# active-set minimizer, certified by the duality gap, takes no budget.
BUDGET = OracleBudget(starts=200, iters=200, rng_seed=11)


def test_seed_to_seed_is_feasible(params):
    verdict = brute_force_sep(gram_instance(params, seed_gram(), seed_gram()))
    assert verdict.feasible is True
    assert verdict.best_residual <= WITNESS_TOL
    assert 0.0 <= verdict.lower_bound <= verdict.best_residual
    assert verdict.witness.min() >= 0
    assert verdict.witness.sum() == pytest.approx(1.0, abs=1e-12)


def tiling_instance(params):
    """Seed to tiling target: feasible, with the uniform distribution as
    its only witness."""
    target = gram(
        GenericState(
            params,
            (
                positive_factor(two_pair_mat((1, 0), (0, 1))),
                positive_factor(two_pair_mat((1, 1), (1, 2))),
                np.eye(3),
            ),
        )
    )
    return gram_instance(params, seed_gram(), target)


def test_tiling_witness_is_uniform(params):
    """The tiling polytope is a single point, so the oracle's global
    minimizer must land on the same uniform distribution the engine finds."""
    instance = tiling_instance(params)
    decision = sep_feasible(instance)
    verdict = brute_force_sep(instance)
    assert decision.feasible and verdict.feasible
    np.testing.assert_allclose(verdict.witness, np.full(9, 1 / 9), atol=1e-8)
    np.testing.assert_allclose(verdict.witness, decision.witness, atol=1e-8)


def test_dense_target_is_rejected(params, rng):
    target = gram(GenericState(params, tuple(dense_factor(rng) for _ in range(3))))
    verdict = brute_force_sep(gram_instance(params, seed_gram(), target))
    assert verdict.feasible is False
    assert verdict.witness is None
    assert REJECT_TOL < verdict.lower_bound <= verdict.best_residual


def test_confined_target_unreachable_from_seed(params, rng):
    w = (1, 1)
    target = gram(
        GenericState(
            params,
            (dense_factor(rng), span_factor(pair_mat(w), w), span_factor(pair_mat(w, 0.04), w)),
        )
    )
    verdict = brute_force_sep(gram_instance(params, seed_gram(), target))
    assert verdict.feasible is False


def test_confined_target_feasible_from_induced_initial(params, rng):
    w = (1, 1)
    target = gram(
        GenericState(
            params,
            (dense_factor(rng), span_factor(pair_mat(w), w), span_factor(pair_mat(w, 0.04), w)),
        )
    )
    init = dict(candidate_initial_grams(target))[f"confined-{w}"]
    verdict = brute_force_sep(gram_instance(params, init, target))
    assert verdict.feasible is True
    # the witness lives on the triple {identity, w, -w}
    triple = {INDEX_ORDER.index(k) for k in ((0, 0), w, idx_neg(w))}
    for pos, weight in enumerate(verdict.witness):
        if pos not in triple:
            assert weight <= 1e-8


def test_oracle_agrees_with_engine_on_mixed_batch(params, rng):
    instances = [gram_instance(params, seed_gram(), seed_gram())]
    for w1, w2 in (((1, 0), (0, 1)), ((1, 1), (2, 1))):
        target = gram(
            GenericState(
                params,
                (
                    positive_factor(pair_mat(w1)),
                    positive_factor(pair_mat(w2, 0.06)),
                    np.eye(3),
                ),
            )
        )
        instances.append(gram_instance(params, seed_gram(), target))
    for _ in range(2):
        target = gram(GenericState(params, tuple(dense_factor(rng) for _ in range(3))))
        instances.append(gram_instance(params, seed_gram(), target))
    for instance in instances:
        decision = sep_feasible(instance)
        verdict = brute_force_sep(instance)
        assert verdict.feasible is not None
        assert verdict.feasible == decision.feasible


def face_minima_reference(q, c):
    """One ``lstsq`` KKT solve per face, in size-then-lexicographic order."""
    n = q.shape[0]
    best_val, best_p = np.inf, None
    for size in range(1, n + 1):
        for face in combinations(range(n), size):
            idx = list(face)
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * q[np.ix_(idx, idx)]
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.concatenate([2.0 * c[idx], [1.0]])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            if sol[:size].min() < -1e-10:
                continue
            p = np.zeros(n)
            p[idx] = np.clip(sol[:size], 0.0, None)
            if p.sum() <= 0:
                continue
            p /= p.sum()
            val = p @ q @ p - 2.0 * c @ p
            if val < best_val:
                best_val, best_p = val, p
    return best_p, best_val


KINDS = ["seed", "tiling", "dense", "random-psd", "rank-5-psd"]


def _least_squares(kind, params, rng):
    """Data ``(A, b)`` of ``min ||A p - b||`` over the simplex: the mixing
    system of an instance, or a random ``A`` with 12 or 5 rows."""
    if kind in ("random-psd", "rank-5-psd"):
        rows = 12 if kind == "random-psd" else 5
        return rng.normal(size=(rows, 9)), rng.normal(size=rows)
    if kind == "seed":
        factors = (np.eye(3),) * 3
    elif kind == "tiling":
        factors = (
            positive_factor(two_pair_mat((1, 0), (0, 1))),
            positive_factor(two_pair_mat((1, 1), (1, 2))),
            np.eye(3),
        )
    else:
        factors = tuple(dense_factor(rng) for _ in range(3))
    return _mixing_system(
        gram_instance(params, seed_gram(), gram(GenericState(params, factors)))
    )


def _quadratic(kind, params, rng):
    if kind in ("random-psd", "rank-5-psd"):
        m = rng.normal(size=(12 if kind == "random-psd" else 5, 9))
        return m.T @ m, rng.normal(size=9)
    a, b = _least_squares(kind, params, rng)
    return a.T @ a, a.T @ b


@pytest.mark.parametrize("kind", KINDS)
def test_face_minima_matches_per_face_lstsq(params, rng, kind):
    """The active-set minimizer agrees with one ``lstsq`` per face.  Seed
    to seed (rank 1) and the rank-5 ``q`` make the KKT systems of large
    faces singular, so they need the same minimum-norm solution."""
    q, c = _quadratic(kind, params, rng)
    if kind == "seed":
        assert np.linalg.matrix_rank(q) == 1
    if kind == "rank-5-psd":
        assert np.linalg.matrix_rank(q) == 5
    p, val = _active_set_minimum(q, c)
    p_ref, val_ref = face_minima_reference(q, c)
    assert abs(val - val_ref) <= 1e-12 * max(1.0, abs(val_ref))
    # seed to seed: every simplex point is a minimizer, so the support
    # is set by rounding in the tie-break
    if kind != "seed":
        np.testing.assert_array_equal(p > 1e-9, p_ref > 1e-9)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_minimizer_leaves_unbounded_faces(rng, rank):
    """With ``c`` off the range of a low-rank ``q`` the objective falls
    without bound along the null directions of large faces.  The minimizer
    leaves such a face along that direction and still stops where the
    Frank–Wolfe gap vanishes, which makes its point a global minimizer of
    this convex problem.  Without the step along the null direction 11 of
    these 200 draws stop short."""
    for _ in range(50):
        m = rng.normal(size=(rank, 9))
        q, c = m.T @ m, rng.normal(size=9)
        p, val = _active_set_minimum(q, c)
        g = 2.0 * (q @ p - c)
        assert g @ p - g.min() <= 1e-12 * max(1.0, abs(val))


def counting_face_solves(monkeypatch):
    """Patch ``_face_solve`` to record the size of each face it solves."""
    sizes = []

    def counting(q, c, face):
        sizes.append(len(face))
        return _face_solve(q, c, face)

    monkeypatch.setattr(oracle, "_face_solve", counting)
    return sizes


@pytest.mark.parametrize("feasible", [False, True], ids=["off-range", "in-range"])
def test_minimizer_terminates_on_duplicated_columns(rng, monkeypatch, feasible):
    """Three copies of each of three columns, two of them off by rounding
    (a multiply and a divide), tie the gradient within each group up to
    rounding, and every face holding two copies is singular: a cycling
    trap for an active-set method.  With no rounding allowance in its
    stopping rule the minimizer adds and drops a copy until its step cap.
    It stops within a few face solves, at a certified simplex point."""
    sizes = counting_face_solves(monkeypatch)
    for _ in range(10):
        base = rng.normal(size=(12, 3))
        a = np.hstack([base, (base * 0.1) / 0.1, (base / 3.0) * 3.0])
        b = a @ rng.dirichlet(np.ones(9)) if feasible else rng.normal(size=12)
        sizes.clear()
        p, _ = _active_set_minimum(a.T @ a, a.T @ b)
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        residual, gap, _ = _certificate(a, b, p)
        assert gap <= 1e-12 * max(1.0, residual**2)
        assert len(sizes) <= 9


C4_KINDS = ["disjoint", "confined", "tiling", "dense"]


def criterion_4_instance(kind, rng):
    """An instance drawn as criterion 4 draws it: a confined target from
    the initial its own triple induces, every other kind from the seed."""
    state = random_state(kind, rng)
    target = gram(state)
    initial = seed_gram()
    if kind == "confined":
        initial = next(
            g for label, g in candidate_initial_grams(target) if label.startswith("confined-")
        )
    return gram_instance(state.seed, initial, target)


@pytest.mark.parametrize("kind", KINDS_OF_STATE)
def test_oracle_matches_face_reference_on_generated_instances(rng, monkeypatch, kind):
    """On instances of every generator kind, from every candidate initial
    of the target, the oracle gives the verdict and the residual it gives
    with the per-face reference as its minimizer."""
    instances = []
    for _ in range(3):
        state = random_state(kind, rng)
        target = gram(state)
        instances += [
            gram_instance(state.seed, initial, target)
            for _, initial in candidate_initial_grams(target)
        ]
    for instance in instances:
        verdict = brute_force_sep(instance)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_active_set_minimum", face_minima_reference)
            ref = brute_force_sep(instance)
        assert verdict.feasible is not None
        assert verdict.feasible == ref.feasible
        assert abs(verdict.best_residual**2 - ref.best_residual**2) <= 1e-12


def test_oracle_solves_few_faces(monkeypatch):
    """The minimizer solves a handful of faces per instance, not the 511 of
    the simplex.  It starts at the centre of the simplex with every
    coordinate on the face, so its first solve is the full face.  On these
    40 criterion-4 instances that solve is non-negative for every disjoint,
    tiling and dense target, and it is the minimizer: one solve.  A
    confined target's witness here lies on a face of 3 to 6 coordinates,
    and the run walks there from the full face, dropping one coordinate
    per solve and adding none: 4 to 7 solves."""
    rng = np.random.default_rng(4)
    sizes = counting_face_solves(monkeypatch)
    for kind in C4_KINDS:
        for _ in range(10):
            before = len(sizes)
            assert brute_force_sep(criterion_4_instance(kind, rng)).feasible is not None
            solves = sizes[before:]
            assert solves == list(range(9, 9 - len(solves), -1))
            assert len(solves) <= 7 if kind == "confined" else len(solves) == 1


# ---------------------------------------------------------------------------
# The certificate: Frank–Wolfe gap at the face minimizer
# ---------------------------------------------------------------------------


def project_simplex(points):
    """Euclidean projection of each row onto the probability simplex."""
    u = -np.sort(-points, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    ind = np.arange(1, points.shape[1] + 1)
    rho = np.count_nonzero(u - css / ind > 0, axis=1)
    theta = css[np.arange(len(points)), rho - 1] / rho
    return np.maximum(points - theta[:, None], 0.0)


def projected_gradient_sweep(q, c, budget):
    """The reference search: multi-start projected gradient descent on
    ``p^T q p - 2 c^T p`` over the simplex, from Dirichlet starts."""
    rng = np.random.default_rng(budget.rng_seed)
    points = rng.dirichlet(np.ones(q.shape[0]), size=budget.starts)
    lam_max = float(np.linalg.eigvalsh(q)[-1])
    step = 1.0 / (2.0 * lam_max) if lam_max > 0 else 1.0
    for _ in range(budget.iters):
        points = project_simplex(points - step * 2.0 * (points @ q - c))
    values = np.einsum("ij,jk,ik->i", points, q, points) - 2.0 * points @ c
    return points[int(np.argmin(values))]


@pytest.mark.parametrize("kind", KINDS)
def test_lower_bound_is_sound(params, rng, kind):
    """No simplex point, the minimizer or any other, certifies a bound above
    the true minimum of ``||A p - b||²``."""
    a, b = _least_squares(kind, params, rng)
    _, val_ref = face_minima_reference(a.T @ a, a.T @ b)
    minimum = val_ref + b @ b
    slack = 1e-12 * max(1.0, b @ b)
    p_face, _ = _active_set_minimum(a.T @ a, a.T @ b)
    points = np.vstack([p_face, np.eye(9), rng.dirichlet(np.ones(9), size=200)])
    for p in points:
        residual, gap, lower = _certificate(a, b, p)
        assert gap >= -slack
        assert lower**2 <= minimum + slack
        assert lower <= residual


def test_lower_bound_never_exceeds_the_residual(params):
    """On the seed-to-seed system every simplex point solves ``A p = b``,
    so ``A p - b`` is rounding alone.  At this point (the 16th Dirichlet
    draw of ``default_rng(2)``) the gap comes out at -1.5e-33, and a
    negative gap would lift the bound to 7.9e-17 above the 5.7e-17
    residual."""
    a, b = _least_squares("seed", params, None)
    p = np.random.default_rng(2).dirichlet(np.ones(9), size=16)[15]
    residual, gap, lower = _certificate(a, b, p)
    assert gap >= 0.0
    assert lower <= residual


@pytest.mark.parametrize("kind", KINDS)
def test_face_minimizer_is_certified(params, rng, kind):
    """At the face minimizer the gap vanishes (KKT holds), and the gradient
    sweep finds no smaller residual."""
    a, b = _least_squares(kind, params, rng)
    q, c = a.T @ a, a.T @ b
    p_face, _ = _active_set_minimum(q, c)
    residual, gap, _ = _certificate(a, b, p_face)
    assert abs(gap) <= 1e-12 * max(1.0, residual**2)
    p_grad = projected_gradient_sweep(q, c, BUDGET)
    assert residual <= np.linalg.norm(a @ p_grad - b) + 1e-12


@pytest.mark.parametrize("wrong", [*range(9), "nudged"])
def test_wrong_minimizer_abstains_never_rejects(params, monkeypatch, wrong):
    """A face search that misses the witness of a feasible instance must
    not produce a rejection: the bound it certifies is at most the true
    minimum, 0, so the oracle abstains."""
    instance = tiling_instance(params)
    assert brute_force_sep(instance).feasible is True
    if wrong == "nudged":
        p = np.full(9, 1 / 9) + 1e-4 * (np.arange(9) - 4)
    else:
        p = np.eye(9)[wrong]
    monkeypatch.setattr(oracle, "_active_set_minimum", lambda q, c: (p, np.nan))
    verdict = brute_force_sep(instance)
    assert verdict.best_residual > WITNESS_TOL
    assert verdict.lower_bound <= REJECT_TOL
    assert verdict.feasible is None


def test_symmetry_search_recovers_full_group(params):
    report = numeric_symmetry_search(params)
    assert report.found == INDEX_ORDER
    assert report.extras == 0
    assert report.converged > 0
    assert report.max_match_error <= 1e-6


@pytest.mark.parametrize(
    "field, value", [("starts", 0), ("starts", -1), ("iters", 0), ("iters", -5)]
)
def test_budget_rejects_empty_search(field, value):
    with pytest.raises(ValueError, match=field):
        OracleBudget(**{field: value})


def test_symmetry_search_small_budget_is_partial_but_clean(params):
    report = numeric_symmetry_search(params, OracleBudget(starts=6, iters=60, rng_seed=3))
    assert set(report.found) <= set(INDEX_ORDER)
    assert report.extras == 0
    assert report.starts == 6


# ---------------------------------------------------------------------------
# ALS update: the Gram solve against the pseudoinverse it replaces
# ---------------------------------------------------------------------------


def pinv_update(t, m):
    """The reference axis update: ``t @ pinv(m)`` from a thin SVD."""
    return t @ np.linalg.pinv(m)


def product_residuals(ops, tensor):
    """``|(a ⊗ b ⊗ c) tensor - tensor|`` of each start, from the full
    contraction."""
    out = np.einsum("nai,nbj,nck,ijk->nabc", *ops, tensor)
    return np.linalg.norm((out - tensor).reshape(len(out), -1), axis=1)


def pinv_sweep(tensor, batch, iters, rng):
    """The reference sweep: einsum partials, a pseudoinverse per update and
    no early stop.  Every second sweep each start moves on to the
    extrapolation ``p + it^(1/3) (x - p)`` from its iterate ``p`` before the
    sweep through ``x`` after it, when that has the smaller residual of the
    full contraction.  It draws its starts exactly like ``_als_sweep``."""
    shape = (batch, 3, 3)
    ops = [
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        for _ in range(3)
    ]
    t0 = tensor.reshape(3, 9)
    t1 = tensor.transpose(1, 0, 2).reshape(3, 9)
    t2 = tensor.transpose(2, 0, 1).reshape(3, 9)
    for it in range(1, iters + 1):
        before = list(ops)
        m = np.einsum("nbj,nck,ijk->nibc", ops[1], ops[2], tensor).reshape(-1, 3, 9)
        ops[0] = pinv_update(t0, m)
        m = np.einsum("nai,nck,ijk->njac", ops[0], ops[2], tensor).reshape(-1, 3, 9)
        ops[1] = pinv_update(t1, m)
        m = np.einsum("nai,nbj,ijk->nkab", ops[0], ops[1], tensor).reshape(-1, 3, 9)
        ops[2] = pinv_update(t2, m)
        if it % 2 == 0:
            jumped = [p + it ** (1 / 3) * (x - p) for p, x in zip(before, ops)]
            better = product_residuals(jumped, tensor) < product_residuals(ops, tensor)
            ops = [np.where(better[:, None, None], j, x) for j, x in zip(jumped, ops)]
    return ops[0], ops[1], ops[2], product_residuals(ops, tensor) / np.linalg.norm(tensor)


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def relative_errors(got, ref):
    return np.linalg.norm(got - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))


def test_gram_solve_matches_pinv_on_full_rank(rng):
    t = complex_normal(rng, 3, 9)
    m = complex_normal(rng, 200, 3, 9)
    assert np.all(np.linalg.matrix_rank(m) == 3)
    assert relative_errors(_gram_solve(t, m), pinv_update(t, m)).max() <= 1e-12


@pytest.mark.parametrize("rank", [1, 2])
def test_gram_solve_is_minimum_norm_on_rank_deficient(rng, rank):
    t = complex_normal(rng, 3, 9)
    m = complex_normal(rng, 200, 3, rank) @ complex_normal(rng, 200, rank, 9)
    m *= 10.0 ** rng.uniform(-100, 100, size=(200, 1, 1))
    assert np.all(np.linalg.matrix_rank(m) == rank)
    # x m = t in the least-squares sense, minimum-norm x: mᵀ xᵀ = tᵀ
    ref = np.array([np.linalg.lstsq(mi.T, t.T, rcond=None)[0].T for mi in m])
    assert relative_errors(_gram_solve(t, m), ref).max() <= 1e-10


def test_gram_solve_of_zero_is_zero(rng):
    t = complex_normal(rng, 3, 9)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        x = _gram_solve(t, np.zeros((4, 3, 9), dtype=complex))
    np.testing.assert_array_equal(x, 0)


class DegenerateStarts:
    """Stands in for the sweep's generator: every start factor is the same
    rank-1 matrix (or zero), so every partial of the first two sweeps is
    rank-deficient.  The extrapolation after the second sweep mixes two
    different rank-1 iterates, so later partials of a rank-1 start may
    have full rank."""

    def __init__(self, rng, zero):
        self.start = 0.0 if zero else np.outer(rng.normal(size=3), rng.normal(size=3))

    def standard_normal(self, shape):
        return np.broadcast_to(self.start, shape).copy()


def counting_updates(monkeypatch):
    """Patch ``_gram_solve`` to record how many starts each update solves."""
    rows = []

    def counting(t, m):
        rows.append(len(m))
        return _gram_solve(t, m)

    monkeypatch.setattr(oracle, "_gram_solve", counting)
    return rows


@pytest.mark.parametrize("zero", [False, True], ids=["rank-1", "zero"])
def test_sweep_from_degenerate_starts_stays_finite(params, rng, monkeypatch, zero):
    tensor = build_seed(params).reshape(3, 3, 3)
    starts = DegenerateStarts(rng, zero)
    # the sweep forms each start factor as (x + i y) / sqrt(2) from two
    # draws, which are the same here
    start = starts.standard_normal((4, 3, 3)) * (1 + 1j) / np.sqrt(2)
    start_res = product_residuals([start] * 3, tensor) / np.linalg.norm(tensor)
    rows, ranks = [], []

    def recording(t, m):
        rows.append(len(m))
        ranks.append(np.linalg.matrix_rank(m).max())
        return _gram_solve(t, m)

    monkeypatch.setattr(oracle, "_gram_solve", recording)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        *ops, res = _als_sweep(tensor, 4, 60, starts)
    # the three updates of each of the first two sweeps, before any
    # extrapolation, solve from rank-deficient partials
    assert max(ranks[: 2 * 3]) <= 1
    for op in ops:
        assert np.all(np.isfinite(op))
    assert np.all(np.isfinite(res))
    assert np.all(res <= start_res)
    if zero:
        np.testing.assert_allclose(res, 1.0, rtol=1e-15)
        # the residual never moves, so the second check retires every start
        assert rows == [4] * (3 * 2 * _ALS_CHECK_EVERY)


@pytest.mark.parametrize("seed", range(6))
def test_sweep_residuals_never_increase(seed):
    """The same starts stopped 25 sweeps later, whether they were retired
    in between or extrapolated, have no larger residual.  The slack is
    rounding: a start near the noise floor moves by a few eps."""
    tensor = build_seed(random_seed_params(np.random.default_rng(seed))).reshape(3, 3, 3)
    for n in (2, 10, 50, 135, 400):
        *_, res = _als_sweep(tensor, 8, n, np.random.default_rng(seed))
        *_, later = _als_sweep(tensor, 8, n + 25, np.random.default_rng(seed))
        assert np.all(later <= res + 1e-14), n


@pytest.mark.parametrize("seed", range(6))
def test_symmetry_search_matches_pinv_sweep(monkeypatch, seed):
    params = random_seed_params(np.random.default_rng(seed))
    # at 1500 iterations starts converge and stall well inside the budget,
    # so the report is read from starts retired at different checks
    for iters in (300, 1500):
        budget = OracleBudget(starts=4, iters=iters, rng_seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_als_sweep", pinv_sweep)
            ref = numeric_symmetry_search(params, budget)
        report = numeric_symmetry_search(params, budget)
        assert (report.found, report.converged, report.extras) == (
            ref.found,
            ref.converged,
            ref.extras,
        ), iters


def search_by_products(a, b, c, res):
    """The report read from full 27x27 product operators: each converged
    start's ``a ⊗ b ⊗ c`` is normalized, clustered first-come by the
    projective distance ``sqrt(2 - 2|<P, P'>|)`` and matched against the
    normalized ``kron3`` of each symmetry triple."""
    good = res <= ALS_CONVERGED_TOL
    products = [np.kron(np.kron(x, y), z) for x, y, z in zip(a[good], b[good], c[good])]
    products = [p / np.linalg.norm(p) for p in products]
    distance = lambda p, q: np.sqrt(max(2.0 - 2.0 * abs(np.vdot(p, q)), 0.0))
    reps = []
    for p in products:
        if all(distance(r, p) > 1e-6 for r in reps):
            reps.append(p)
    refs = {k: np.kron(np.kron(PAULIS[k], PAULIS[k]), PAULIS[k]) / np.sqrt(27.0) for k in INDEX_ORDER}
    found, extras, worst = set(), 0, 0.0
    for p in reps:
        errors = {k: distance(ref, p) for k, ref in refs.items()}
        k_best = min(errors, key=errors.get)
        if errors[k_best] <= 1e-6:
            found.add(k_best)
            worst = max(worst, errors[k_best])
        else:
            extras += 1
    return tuple(k for k in INDEX_ORDER if k in found), extras, int(good.sum()), worst


def crafted_starts(rng):
    """Factor triples as a sweep could return them: the nine symmetry
    triples under random phases and scales, one of them again within 1e-9,
    two distinct non-symmetry triples, the first of them twice, and an
    unconverged start; shuffled, with the residual of each."""
    dressed = lambda m: complex_normal(rng) * m
    triples = [tuple(dressed(PAULIS[k]) for _ in range(3)) for k in INDEX_ORDER]
    near = tuple(f + 1e-9 * np.linalg.norm(f) * complex_normal(rng, 3, 3) for f in triples[4])
    other = [tuple(complex_normal(rng, 3, 3) for _ in range(3)) for _ in range(2)]
    again = tuple(dressed(f) for f in other[0])
    starts = triples + [near] + other + [again]
    res = [0.0] * len(starts) + [0.3]
    starts.append(tuple(complex_normal(rng, 3, 3) for _ in range(3)))
    order = rng.permutation(len(starts))
    a, b, c = (np.array([starts[i][p] for i in order]) for p in range(3))
    return a, b, c, np.array(res)[order]


def test_symmetry_search_matches_product_reference(monkeypatch, rng):
    for _ in range(20):
        a, b, c, res = crafted_starts(rng)
        monkeypatch.setattr(oracle, "_als_sweep", lambda *args: (a, b, c, res))
        report = numeric_symmetry_search(random_seed_params(rng), OracleBudget(starts=len(res)))
        found, extras, converged, worst = search_by_products(a, b, c, res)
        assert (report.found, report.extras, report.starts, report.converged) == (
            found, extras, len(res), converged
        )
        assert report.found == INDEX_ORDER
        assert report.extras == 2
        assert abs(report.max_match_error - worst) <= 1e-7


def test_symmetry_search_tells_triples_apart_by_their_joint_distance(monkeypatch, rng):
    # each party's factor moves by 0.8e-6 in projective distance, under the
    # 1e-6 cut, but the product operator by sqrt(3) times that, over it
    triple = [complex_normal(rng, 3, 3) for _ in range(3)]
    moved = []
    for f in triple:
        f = f / np.linalg.norm(f)
        e = complex_normal(rng, 3, 3)
        e -= np.vdot(f, e) * f
        moved.append(f + 0.8e-6 * e / np.linalg.norm(e))
    a, b, c = (np.array(pair) for pair in zip(triple, moved))
    res = np.zeros(2)
    monkeypatch.setattr(oracle, "_als_sweep", lambda *args: (a, b, c, res))
    report = numeric_symmetry_search(random_seed_params(rng), OracleBudget(starts=2))
    assert search_by_products(a, b, c, res)[1] == report.extras == 2


def test_converged_start_gets_no_further_update(params, monkeypatch):
    tensor = build_seed(params).reshape(3, 3, 3)
    rows = counting_updates(monkeypatch)
    *ops, res = _als_sweep(tensor, 2, 1500, np.random.default_rng(4))
    per_iteration = rows[::3]
    n_both = per_iteration.count(2)
    assert n_both % _ALS_CHECK_EVERY == 0
    assert per_iteration == [2] * n_both + [1] * (len(per_iteration) - n_both)
    assert n_both < len(per_iteration) < 1500
    assert np.all(res <= ALS_CONVERGED_TOL)

    # the same starts stopped by the budget at the first retirement
    *ops_then, res_then = _als_sweep(tensor, 2, n_both, np.random.default_rng(4))
    (first,) = np.flatnonzero(res_then <= ALS_CONVERGED_TOL)
    for op, op_then in zip(ops, ops_then):
        np.testing.assert_array_equal(op[first], op_then[first])
        assert not np.array_equal(op[1 - first], op_then[1 - first])


def updated_share(monkeypatch, params):
    """The default search's ``_gram_solve`` rows over those of a sweep that
    retires no start; the search must recover the group cleanly."""
    rows = counting_updates(monkeypatch)
    report = numeric_symmetry_search(params)
    budget = OracleBudget()
    assert report.found == INDEX_ORDER
    assert report.extras == 0
    return sum(rows) / (3 * budget.starts * budget.iters)


def test_default_search_retires_most_of_its_work(monkeypatch):
    params = random_seed_params(np.random.default_rng(31))
    assert updated_share(monkeypatch, params) < 0.1


def test_default_search_cuts_straight_line_starts_short(params, monkeypatch):
    """The suite's seed has starts that converge slowly and in a straight
    line; the extrapolation carries them along it (0.215 measured)."""
    assert updated_share(monkeypatch, params) < 0.3
