import warnings
from itertools import combinations

import numpy as np
import pytest

from qutritlocc import oracle
from qutritlocc.generate import random_seed_params
from qutritlocc.oracle import (
    ALS_CONVERGED_TOL,
    REJECT_TOL,
    WITNESS_TOL,
    OracleBudget,
    _als_sweep,
    _face_minima,
    _gram_solve,
    _mixing_system,
    brute_force_sep,
    numeric_symmetry_search,
)
from qutritlocc.pauli import INDEX_ORDER, PAULIS, dagger, idx_neg
from qutritlocc.seeds import build_seed
from qutritlocc.sep import candidate_initial_grams, gram_instance, sep_feasible
from qutritlocc.states import (
    GenericState,
    gram,
    positive_factor,
    seed_gram,
    span_factor,
)

# Small but sufficient search effort for the well-separated instances
# used here; the defaults are sized for adversarial batches.
BUDGET = OracleBudget(starts=200, iters=200, rng_seed=11)


def pair_mat(w, z=0.08):
    return np.eye(3) / 3 + z * (PAULIS[w] + dagger(PAULIS[w]))


def two_pair_mat(w1, w2, z=0.05):
    return (
        np.eye(3) / 3
        + z * (PAULIS[w1] + dagger(PAULIS[w1]))
        + z * (PAULIS[w2] + dagger(PAULIS[w2]))
    )


def dense_factor(rng):
    return rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)


def test_seed_to_seed_is_feasible(params):
    verdict = brute_force_sep(gram_instance(params, seed_gram(), seed_gram()), BUDGET)
    assert verdict.feasible is True
    assert verdict.best_residual <= WITNESS_TOL
    assert verdict.witness.min() >= 0
    assert verdict.witness.sum() == pytest.approx(1.0, abs=1e-12)
    assert verdict.sample_count == 511 + BUDGET.starts


def test_tiling_witness_is_uniform(params):
    """The tiling polytope is a single point, so the oracle's global
    minimizer must land on the same uniform distribution the engine finds."""
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
    instance = gram_instance(params, seed_gram(), target)
    decision = sep_feasible(instance)
    verdict = brute_force_sep(instance, BUDGET)
    assert decision.feasible and verdict.feasible
    np.testing.assert_allclose(verdict.witness, np.full(9, 1 / 9), atol=1e-8)
    np.testing.assert_allclose(verdict.witness, decision.witness, atol=1e-8)


def test_dense_target_is_rejected(params, rng):
    target = gram(GenericState(params, tuple(dense_factor(rng) for _ in range(3))))
    verdict = brute_force_sep(gram_instance(params, seed_gram(), target), BUDGET)
    assert verdict.feasible is False
    assert verdict.witness is None
    assert verdict.best_residual > REJECT_TOL


def test_confined_target_unreachable_from_seed(params, rng):
    w = (1, 1)
    target = gram(
        GenericState(
            params,
            (dense_factor(rng), span_factor(pair_mat(w), w), span_factor(pair_mat(w, 0.04), w)),
        )
    )
    verdict = brute_force_sep(gram_instance(params, seed_gram(), target), BUDGET)
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
    verdict = brute_force_sep(gram_instance(params, init, target), BUDGET)
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
        verdict = brute_force_sep(instance, BUDGET)
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


def _quadratic(kind, params, rng):
    if kind in ("random-psd", "rank-5-psd"):
        m = rng.normal(size=(12 if kind == "random-psd" else 5, 9))
        return m.T @ m, rng.normal(size=9)
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
    a, b = _mixing_system(
        gram_instance(params, seed_gram(), gram(GenericState(params, factors)))
    )
    return a.T @ a, a.T @ b


@pytest.mark.parametrize("kind", ["seed", "tiling", "dense", "random-psd", "rank-5-psd"])
def test_face_minima_matches_per_face_lstsq(params, rng, kind):
    """The stacked solve agrees with one ``lstsq`` per face.  Seed to seed
    (rank 1) and the rank-5 ``q`` make the KKT systems of large faces
    singular, so they need the same minimum-norm solution."""
    q, c = _quadratic(kind, params, rng)
    if kind == "seed":
        assert np.linalg.matrix_rank(q) == 1
    if kind == "rank-5-psd":
        assert np.linalg.matrix_rank(q) == 5
    p, val = _face_minima(q, c)
    p_ref, val_ref = face_minima_reference(q, c)
    assert abs(val - val_ref) <= 1e-12 * max(1.0, abs(val_ref))
    # seed to seed: every simplex point is a minimizer, so the support
    # is set by rounding in the tie-break
    if kind != "seed":
        np.testing.assert_array_equal(p > 1e-9, p_ref > 1e-9)


def test_symmetry_search_recovers_full_group(params):
    report = numeric_symmetry_search(params)
    assert report.found == INDEX_ORDER
    assert report.extras == 0
    assert report.converged > 0
    assert report.max_match_error <= 1e-6


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


def pinv_sweep(tensor, batch, iters, rng):
    """The reference sweep: einsum partials, a pseudoinverse per update and
    no early stop.  It draws its starts exactly like ``_als_sweep``."""
    shape = (batch, 3, 3)
    ops = [
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        for _ in range(3)
    ]
    t0 = tensor.reshape(3, 9)
    t1 = tensor.transpose(1, 0, 2).reshape(3, 9)
    t2 = tensor.transpose(2, 0, 1).reshape(3, 9)
    for _ in range(iters):
        m = np.einsum("nbj,nck,ijk->nibc", ops[1], ops[2], tensor).reshape(-1, 3, 9)
        ops[0] = pinv_update(t0, m)
        m = np.einsum("nai,nck,ijk->njac", ops[0], ops[2], tensor).reshape(-1, 3, 9)
        ops[1] = pinv_update(t1, m)
        m = np.einsum("nai,nbj,ijk->nkab", ops[0], ops[1], tensor).reshape(-1, 3, 9)
        ops[2] = pinv_update(t2, m)
    out = np.einsum("nai,nbj,nck,ijk->nabc", *ops, tensor)
    res = np.linalg.norm((out - tensor).reshape(batch, -1), axis=1)
    return ops[0], ops[1], ops[2], res / np.linalg.norm(tensor)


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
    rank-1 matrix (or zero), so every partial the sweep forms is
    rank-deficient from the first update on."""

    def __init__(self, rng, zero):
        self.start = 0.0 if zero else np.outer(rng.normal(size=3), rng.normal(size=3))

    def standard_normal(self, shape):
        return np.broadcast_to(self.start, shape).copy()


@pytest.mark.parametrize("zero", [False, True], ids=["rank-1", "zero"])
def test_sweep_from_degenerate_starts_stays_finite(params, rng, zero):
    tensor = build_seed(params).reshape(3, 3, 3)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        *ops, res = _als_sweep(tensor, 4, 60, DegenerateStarts(rng, zero))
    for op in ops:
        assert np.all(np.isfinite(op))
        assert np.all(np.linalg.matrix_rank(op) <= 1)
    assert np.all(np.isfinite(res))
    if zero:
        np.testing.assert_allclose(res, 1.0, rtol=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_symmetry_search_matches_pinv_sweep(monkeypatch, seed):
    params = random_seed_params(np.random.default_rng(seed))
    budget = OracleBudget(starts=4, iters=300, rng_seed=seed)
    report = numeric_symmetry_search(params, budget)
    monkeypatch.setattr(oracle, "_als_sweep", pinv_sweep)
    ref = numeric_symmetry_search(params, budget)
    assert (report.found, report.converged, report.extras) == (
        ref.found,
        ref.converged,
        ref.extras,
    )


def test_sweep_stops_once_every_start_has_converged(params, monkeypatch):
    tensor = build_seed(params).reshape(3, 3, 3)
    updates = []

    def counting(t, m):
        updates.append(len(m))
        return _gram_solve(t, m)

    monkeypatch.setattr(oracle, "_gram_solve", counting)
    *_, res = _als_sweep(tensor, 1, 1500, np.random.default_rng(4))
    *_, res_ref = pinv_sweep(tensor, 1, 1500, np.random.default_rng(4))
    assert res[0] <= ALS_CONVERGED_TOL and res_ref[0] <= ALS_CONVERGED_TOL
    iterations = len(updates) // 3
    assert iterations < 1500
    assert iterations % 25 == 0
