import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qutritlocc import sep as sep_module
from qutritlocc.classify import classify_gram
from qutritlocc.generate import KINDS, random_seed_params, random_state
from qutritlocc.pauli import (
    CONJ_TABLE,
    COORD_ORDER,
    INDEX_ORDER,
    INDEX_POS,
    PAIR_REPS,
    PAULIS,
    dagger,
    from_coords,
    idx_add,
    idx_neg,
    kron3,
    support_mask,
)
from qutritlocc.sep import (
    RESIDUAL_TOL,
    SepInstance,
    candidate_initial_grams,
    depolarize,
    gram_instance,
    induced_initial,
    sep_feasible,
    sep_instance,
)
from qutritlocc.seeds import SeedParams
from qutritlocc.states import (
    STD_COMPARE_ATOL,
    GenericState,
    SeedMismatchError,
    assemble,
    gauge_gap,
    gram,
    gram_triple,
    permute_state,
    ray_distance,
    seed_gram,
    standardize_coords,
)

from helpers import dense_mat, pair_mat, two_pair_mat

E0 = np.eye(9)[0]
UNIFORM = np.full(9, 1.0 / 9.0)


def triple_dist(w, weights=(1 / 3, 1 / 3, 1 / 3)):
    p = np.zeros(9)
    p[0] = weights[0]
    p[INDEX_POS[w]] = weights[1]
    p[INDEX_POS[idx_neg(w)]] = weights[2]
    return p


simplex_weights = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=9, max_size=9
)
entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
complex_3x3 = st.tuples(
    arrays(np.float64, (3, 3), elements=entries), arrays(np.float64, (3, 3), elements=entries)
).map(lambda t: t[0] + 1j * t[1])
scales = st.sampled_from([1.0, 1e-200, 1e200])


def depolarize_reference(h, p):
    """The explicit average of conjugates ``sum_k p_k S_kᴴ h S_k``."""
    return sum(w * (dagger(PAULIS[k]) @ h @ PAULIS[k]) for w, k in zip(p, INDEX_ORDER))


# ---------------------------------------------------------------------------
# depolarization and its spectrum
# ---------------------------------------------------------------------------


def test_depolarize_identity_distribution(rng):
    h = dense_mat(rng)
    np.testing.assert_allclose(depolarize(h, E0), h, atol=0)


def test_depolarize_uniform_is_complete(rng):
    for _ in range(5):
        h = dense_mat(rng)
        np.testing.assert_allclose(depolarize(h, UNIFORM), np.eye(3) / 3, atol=1e-14)


def test_depolarize_preserves_trace(rng):
    h = dense_mat(rng)
    p = rng.dirichlet(np.ones(9))
    assert np.trace(depolarize(h, p)) == pytest.approx(np.trace(h).real)


def test_depolarize_fixes_commuting_span():
    w = (1, 1)
    h = pair_mat(w, 0.11)
    np.testing.assert_allclose(depolarize(h, triple_dist(w)), h, atol=1e-14)


def test_depolarize_rejects_bad_shape():
    with pytest.raises(ValueError):
        depolarize(np.eye(3), np.ones(4))


def test_spectrum_of_point_mass():
    np.testing.assert_allclose(CONJ_TABLE @ E0, np.ones(9), atol=0)


def test_spectrum_of_uniform():
    eta = CONJ_TABLE @ UNIFORM
    assert eta[0] == pytest.approx(1.0)
    np.testing.assert_allclose(eta[1:], np.zeros(8), atol=1e-15)


def test_spectrum_of_uniform_triple():
    w = (1, 0)
    eta = CONJ_TABLE @ triple_dist(w)
    assert eta[INDEX_POS[w]] == pytest.approx(1.0)
    assert eta[INDEX_POS[idx_neg(w)]] == pytest.approx(1.0)
    for k in INDEX_ORDER[1:]:
        if k not in (w, idx_neg(w)):
            assert abs(eta[INDEX_POS[k]]) <= 1e-15


def test_spectrum_of_tilted_triple():
    eps = 0.37
    eta = CONJ_TABLE @ triple_dist((0, 1), (1 - 2 * eps / 3, eps / 3, eps / 3))
    for k in INDEX_ORDER[1:]:
        expected = 1.0 if k in ((0, 1), (0, 2)) else 1.0 - eps
        assert eta[INDEX_POS[k]] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(weights=simplex_weights)
def test_spectrum_invariants(weights):
    p = np.array(weights)
    p = p / p.sum()
    eta = CONJ_TABLE @ p
    assert abs(eta[0] - 1.0) <= 1e-12
    assert np.all(np.abs(eta) <= 1.0 + 1e-12)
    for k in INDEX_ORDER:
        assert abs(eta[INDEX_POS[k]] - np.conj(eta[INDEX_POS[idx_neg(k)]])) <= 1e-12


def test_spectrum_is_linear(rng):
    p1, p2 = rng.dirichlet(np.ones(9)), rng.dirichlet(np.ones(9))
    lam = 0.3
    np.testing.assert_allclose(
        CONJ_TABLE @ (lam * p1 + (1 - lam) * p2),
        lam * (CONJ_TABLE @ p1) + (1 - lam) * (CONJ_TABLE @ p2),
        atol=1e-14,
    )


@settings(max_examples=60)
@given(h=complex_3x3, weights=simplex_weights, scale=scales)
def test_depolarize_matches_explicit_average(h, weights, scale):
    """Also for weights that do not sum to one: the identity component
    scales by their sum."""
    h = scale * h
    p = np.array(weights)
    tol = 64 * np.finfo(float).eps * np.abs(h).max() * p.sum() + np.finfo(float).tiny
    np.testing.assert_allclose(depolarize(h, p), depolarize_reference(h, p), rtol=0, atol=tol)


@settings(max_examples=40)
@given(mats=st.lists(complex_3x3, min_size=3, max_size=3), weights=simplex_weights)
def test_induced_initial_matches_conjugated_grams(mats, weights):
    final = gram_triple(*(a @ dagger(a) + 0.1 * np.eye(3) for a in mats))
    p = np.array(weights) / sum(weights)
    want = gram_triple(*(depolarize_reference(h, p) for h in final.mats))
    got = induced_initial(final, p)
    for a, b in zip(got.mats, want.mats):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)
    np.testing.assert_allclose(got.coords, want.coords, rtol=0, atol=1e-15)


def test_depolarize_scales_coordinates_by_spectrum(rng):
    from qutritlocc.pauli import pauli_coords

    h = dense_mat(rng)
    p = rng.dirichlet(np.ones(9))
    eta = CONJ_TABLE @ p
    _, before = pauli_coords(h)
    _, after = pauli_coords(depolarize(h, p))
    np.testing.assert_allclose(after, eta[1:] * before, atol=1e-13)


# ---------------------------------------------------------------------------
# induced initial states
# ---------------------------------------------------------------------------


def test_induced_initial_uniform_is_seed_gram(rng):
    final = gram_triple(dense_mat(rng), dense_mat(rng), dense_mat(rng))
    init = induced_initial(final, UNIFORM)
    for m in init.mats:
        np.testing.assert_allclose(m, np.eye(3) / 3, atol=1e-14)


def test_induced_initial_point_mass_is_final(rng):
    final = gram_triple(dense_mat(rng), pair_mat((1, 1)), dense_mat(rng))
    init = induced_initial(final, E0)
    for a, b in zip(init.mats, final.mats):
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_induced_initial_triple_keeps_confined_coords(rng):
    w = (1, 2)
    final = gram_triple(dense_mat(rng), pair_mat(w), pair_mat(w, 0.04))
    init = induced_initial(final, triple_dist(w))
    # confined factors commute with the triple and are untouched
    np.testing.assert_allclose(init.mats[1], final.mats[1], atol=1e-14)
    np.testing.assert_allclose(init.mats[2], final.mats[2], atol=1e-14)
    # the free factor keeps only its {0, +-w} coordinates where eta = 1
    eta = CONJ_TABLE @ triple_dist(w)
    np.testing.assert_allclose(init.coords[0], eta[1:] * final.coords[0], atol=1e-13)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def test_instance_requires_same_seed(params, rng):
    """States of different seeds are refused with the error
    ``lu_equivalent`` raises for them."""
    other = SeedParams(2, 3, 5)
    s1 = GenericState(params, (np.eye(3),) * 3)
    s2 = GenericState(other, (np.eye(3),) * 3)
    with pytest.raises(SeedMismatchError, match="different"):
        sep_instance(s1, s2)


def test_seed_mismatch_claims_no_slocc_class():
    """Swapping |1> and |2> on every party maps psi(a, b, c) to psi(a, c, b),
    so these two states are one vector on two canonical seeds.  The refusal
    says what was compared and claims nothing about SLOCC classes."""
    seed = random_seed_params(np.random.default_rng(0))
    swapped = SeedParams(seed.a, seed.c, seed.b)
    assert (swapped.b, swapped.c) == (seed.c, seed.b)  # kept bit for bit
    g = np.random.default_rng(1).normal(size=(3, 3, 3)) + np.eye(3)
    swap = np.eye(3)[[0, 2, 1]]
    s1 = GenericState(seed, tuple(g))
    s2 = GenericState(swapped, tuple(m @ swap for m in g))
    assert ray_distance(assemble(s1), assemble(s2)) <= 1e-12
    with pytest.raises(SeedMismatchError, match="different canonical seed parameters") as err:
        sep_instance(s1, s2)
    assert "SLOCC" not in str(err.value)
    assert "not decided" in str(err.value)


def test_sep_instance_carries_grams(params, rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    target = GenericState(params, (a @ dagger(a) + np.eye(3), np.eye(3), np.eye(3)))
    inst = sep_instance(GenericState(params, (np.eye(3),) * 3), target)
    assert isinstance(inst, SepInstance)
    np.testing.assert_allclose(inst.target_gram.mats[0], gram(target).mats[0], atol=0)


# ---------------------------------------------------------------------------
# the feasibility engine
# ---------------------------------------------------------------------------


def sep_outcome(inst):
    dec = sep_feasible(inst)
    return dec.feasible, dec.nontrivial, dec.unique, len(dec.vertices)


@pytest.mark.parametrize("kind", KINDS)
def test_sep_feasible_follows_party_permutation(params, rng, kind):
    """Relabeling the parties of source and target together leaves the
    verdict, its nontriviality and uniqueness, and the polytope's vertex
    count unchanged.  Sources are the bare seed, a random state, and the
    target's candidate initials (posed at the Gram level)."""
    for _ in range(2):
        target = random_state(kind, rng, params)
        sources = [GenericState(params, (np.eye(3),) * 3), random_state("generic", rng, params)]
        for source in sources:
            base = sep_outcome(sep_instance(source, target))
            for perm in itertools.permutations(range(3)):
                moved = sep_instance(permute_state(source, perm), permute_state(target, perm))
                assert sep_outcome(moved) == base, perm
        for _, initial in candidate_initial_grams(gram(target)):
            base = sep_outcome(gram_instance(params, initial, gram(target)))
            for perm in itertools.permutations(range(3)):
                moved = permute_state(target, perm)
                moved_initial = gram_triple(*(initial.mats[p] for p in perm))
                assert sep_outcome(gram_instance(moved.seed, moved_initial, gram(moved))) == base


def hull_dim(dec):
    """Dimension of the affine hull of a decision's vertices."""
    return int(np.linalg.matrix_rank(np.array(dec.vertices[1:]) - dec.vertices[0], tol=1e-9))


def test_seed_to_seed_all_distributions_work(params):
    dec = sep_feasible(gram_instance(params, seed_gram(), seed_gram()))
    assert dec.feasible
    assert hull_dim(dec) == 8
    assert len(dec.vertices) == 9
    assert not dec.nontrivial  # nothing new is reached
    assert not dec.unique


def test_seed_to_tiling_unique_uniform(params):
    target = gram_triple(
        two_pair_mat((1, 0), (0, 1)), two_pair_mat((1, 1), (1, 2)), np.eye(3)
    )
    dec = sep_feasible(gram_instance(params, seed_gram(), target))
    assert dec.feasible and dec.unique and dec.nontrivial
    assert len(dec.vertices) == 1
    assert np.max(np.abs(dec.witness - 1.0 / 9.0)) <= 1e-8


def test_seed_to_disjoint_pairs(params):
    target = gram_triple(pair_mat((1, 0)), pair_mat((0, 1)), np.eye(3))
    dec = sep_feasible(gram_instance(params, seed_gram(), target))
    assert dec.feasible and dec.nontrivial
    assert dec.residual <= 1e-9


def test_seed_to_dense_infeasible(params, rng):
    target = gram_triple(dense_mat(rng), dense_mat(rng), dense_mat(rng))
    dec = sep_feasible(gram_instance(params, seed_gram(), target))
    assert not dec.feasible
    assert dec.witness is None
    assert dec.reason is not None
    assert dec.residual > 1e-6


def test_seed_to_confined_infeasible(params, rng):
    """Confined targets are not reachable from the seed itself."""
    target = gram_triple(dense_mat(rng), pair_mat((1, 1)), pair_mat((1, 1), 0.05))
    dec = sep_feasible(gram_instance(params, seed_gram(), target))
    assert not dec.feasible


def test_confined_target_from_induced_initial(params, rng):
    w = (1, 1)
    target = gram_triple(dense_mat(rng), pair_mat(w), pair_mat(w, 0.05))
    cands = candidate_initial_grams(target)
    labels = [lbl for lbl, _ in cands]
    assert labels[0] == "seed"
    assert f"confined-{w}" in labels
    init = dict(cands)[f"confined-{w}"]
    dec = sep_feasible(gram_instance(params, init, target))
    assert dec.feasible and dec.unique and dec.nontrivial
    # witness is the uniform distribution on the confined triple
    expected = triple_dist(w)
    np.testing.assert_allclose(dec.witness, expected, atol=1e-9)


def test_a_feasible_verdict_keeps_its_witness_residual_within_bound():
    """Feasible means the witness reproduces the initial Gram product to
    within ``RESIDUAL_TOL``.  A confined target's triple depolarization
    with signed weights (d, (1 - d)/2, (1 - d)/2), d = -3e-11, leaves the
    simplex by |d|: the polytope's vertex carries -3e-11, which the vertex
    test accepts, and its clipped witness misses the fit by up to several
    ``RESIDUAL_TOL``.  Such an instance is infeasible, and says why."""
    d = -3e-11
    rng = np.random.default_rng(3)
    named = 0
    for _ in range(200):
        state = random_state("confined", rng)
        final = gram(state)
        w = classify_gram(final).locc_cases[0].pair
        initial = induced_initial(final, triple_dist(w, (d, (1 - d) / 2, (1 - d) / 2)))
        dec = sep_feasible(gram_instance(state.seed, initial, final))
        assert not dec.feasible or dec.residual <= RESIDUAL_TOL
        if dec.reason == "witness-residual":
            assert dec.residual > RESIDUAL_TOL and dec.witness is None
            named += 1
    assert named >= 150


def test_identity_instance_is_trivial(params, rng):
    m = dense_mat(rng)
    gt = gram_triple(m, dense_mat(rng), dense_mat(rng))
    dec = sep_feasible(gram_instance(params, gt, gt))
    assert dec.feasible and dec.unique
    assert not dec.nontrivial
    np.testing.assert_allclose(dec.witness, E0, atol=1e-9)


def test_all_confined_self_instance_has_flat_polytope(params):
    w = (0, 1)
    gt = gram_triple(pair_mat(w, 0.05), pair_mat(w, 0.09), pair_mat(w, 0.12))
    dec = sep_feasible(gram_instance(params, gt, gt))
    assert dec.feasible
    assert hull_dim(dec) == 2
    assert len(dec.vertices) == 3
    assert not dec.nontrivial


def test_witness_solves_full_tensor_equation(params, rng):
    """Independent 27-dimensional residual check of a returned witness,
    for a confined target from its induced initial and a tiling target
    from the seed."""
    w = (1, 1)
    confined = gram_triple(dense_mat(rng), pair_mat(w), pair_mat(w, 0.05))
    tiling = gram_triple(
        two_pair_mat((1, 0), (0, 1)), two_pair_mat((1, 1), (1, 2)), np.eye(3)
    )
    cases = [
        (dict(candidate_initial_grams(confined))[f"confined-{w}"], confined),
        (seed_gram(), tiling),
    ]
    for init, target in cases:
        dec = sep_feasible(gram_instance(params, init, target))
        g_op = kron3(*init.mats)
        h_op = kron3(*target.mats)
        acc = np.zeros((27, 27), dtype=complex)
        for p_k, k in zip(dec.witness, INDEX_ORDER):
            s3 = kron3(PAULIS[k], PAULIS[k], PAULIS[k])
            acc += p_k * (dagger(s3) @ h_op @ s3)
        assert np.linalg.norm(acc - g_op) <= 1e-9


def spectrum_violations(coords, eta, tol=1e-9):
    """Violations of the spectrum compatibility conditions of a (3, 8)
    coordinate table: ``eta_l eta_m eta_n = eta_{l+m+n}`` wherever the
    three parties have nonvanishing coordinates at l, m, n (the identity
    coordinate 1/3 counts at the zero index), and ``eta_l eta_m =
    eta_{l+m}`` wherever two distinct parties do at nonzero l, m."""
    full = np.hstack([np.full((3, 1), 1.0 / 3.0), np.asarray(coords, dtype=complex)])
    support = [
        [k for k, c in zip(INDEX_ORDER, row) if abs(c) > tol / 3.0] for row in full
    ]
    at = lambda k: eta[INDEX_POS[k]]  # noqa: E731
    violations = [
        ("triple", (l, m, n))
        for l in support[0]
        for m in support[1]
        for n in support[2]
        if abs(at(l) * at(m) * at(n) - at(idx_add(idx_add(l, m), n))) > tol
    ]
    violations += [
        ("pair", (i, j, l, m))
        for i in range(3)
        for j in range(3)
        if i != j
        for l in support[i][1:]
        for m in support[j][1:]
        if abs(at(l) * at(m) - at(idx_add(l, m))) > tol
    ]
    return violations


def test_witness_spectrum_passes_conditions(params):
    target = gram_triple(
        two_pair_mat((1, 0), (0, 1)), two_pair_mat((1, 1), (1, 2)), np.eye(3)
    )
    dec = sep_feasible(gram_instance(params, seed_gram(), target))
    assert dec.feasible
    violations = spectrum_violations(target.coords, CONJ_TABLE @ dec.witness)
    assert not violations, violations


# ---------------------------------------------------------------------------
# the character fit against the Kronecker system it replaces
# ---------------------------------------------------------------------------


def kronecker_system(inst):
    """The SEP condition in Kronecker form: one complex row per entry of
    the 27x27 Gram product, stacked as 1459 real rows (real parts,
    imaginary parts, normalisation row), with no remainder.  This is the
    formulation the engine's character fit reduces."""
    h1, h2, h3 = inst.target_gram.mats
    columns = []
    for k in INDEX_ORDER:
        s = PAULIS[k]
        sd = dagger(s)
        columns.append(kron3(sd @ h1 @ s, sd @ h2 @ s, sd @ h3 @ s).ravel())
    d_ops = np.array(columns).T  # (729, 9) complex
    g_full = kron3(*inst.source_gram.mats).ravel()
    a_real = np.vstack([d_ops.real, d_ops.imag, np.ones((1, 9))])
    b_real = np.concatenate([g_full.real, g_full.imag, [1.0]])
    return a_real, b_real, 0.0


def reference_corpus(params):
    """Every generator kind from every candidate initial, and from the
    target depolarized by an asymmetric distribution (``p_k != p_-k``, so
    the spectrum is complex); a target with one coordinate pair near 1e-60
    and one near 1e-170 (where the squared norm of its block underflows);
    and seed to seed (eight blocks empty or at rounding level)."""
    rng = np.random.default_rng(1511)
    cases = []
    for kind in KINDS:
        for _ in range(3):
            state = random_state(kind, rng)
            target = gram(state)
            for label, init in candidate_initial_grams(target):
                cases.append((f"{kind}/{label}", gram_instance(state.seed, init, target)))
            mixed = induced_initial(target, rng.dirichlet(np.ones(9)))
            cases.append((f"{kind}/mixed", gram_instance(state.seed, mixed, target)))
    for z in (1e-60, 1e-170):
        target = gram_triple(pair_mat((1, 0), z), pair_mat((0, 1)), np.eye(3))
        cases.append((f"tiny-{z:g}", gram_instance(params, seed_gram(), target)))
    cases.append(("seed-to-seed", gram_instance(params, seed_gram(), seed_gram())))
    return cases


def verdict(dec):
    return (
        dec.feasible,
        dec.unique,
        dec.nontrivial,
        len(dec.vertices),
        dec.reason,
    )


NEAR_CUT_BASES = {
    "tiling": (two_pair_mat((1, 0), (0, 1)), two_pair_mat((1, 1), (1, 2)), np.eye(3)),
    "disjoint": (pair_mat((1, 0)), pair_mat((0, 1)), np.eye(3)),
    "one-pair": (pair_mat((1, 0)), np.eye(3), np.eye(3)),
}


def near_cut_corpus(params, kinds=("tiling", "disjoint")):
    """Seed-to-target and identity instances whose target carries one extra
    coordinate pair of size t on its third party, on each of the four pairs,
    for 41 values of t from 1e-14 to 1e-4 (coordinate modulus t / 3, so it
    crosses the default cut at t = 1e-9).  On the tiling and two-party
    disjoint targets every block is already open and the residual crosses
    its bound; on the one-pair target the blocks the extra pair opens are
    zero below the cut and open above it."""
    cases = []
    for w in PAIR_REPS:
        extra = PAULIS[w] + dagger(PAULIS[w])
        for t in np.logspace(-14, -4, 41):
            for kind in kinds:
                m1, m2, m3 = NEAR_CUT_BASES[kind]
                target = gram_triple(m1, m2, m3 + t * extra)
                name = f"{kind}+{w}@{t:.2e}"
                cases.append((f"seed/{name}", gram_instance(params, seed_gram(), target)))
                cases.append((f"identity/{name}", gram_instance(params, target, target)))
    return cases


def snapped_coords(inst):
    """Source and target coordinate tables, shape (2, 3, 8), with every
    coordinate outside the support at the default cut set to zero."""
    coords = np.stack([inst.source_gram.coords, inst.target_gram.coords])
    return np.where(support_mask(coords), coords, 0.0)


def snapped(inst):
    """The instance the engine decides: both triples rebuilt from
    :func:`snapped_coords`."""
    source, target = (
        gram_triple(*(from_coords(1.0 / 3.0, row) for row in c)) for c in snapped_coords(inst)
    )
    return gram_instance(inst.seed, source, target)


def standard_forms_close(first, second):
    """Whether two Gram triples' gauge-fixed coordinate tables
    (:func:`~qutritlocc.states.standardize_coords`) lie in one gauge orbit
    to ``STD_COMPARE_ATOL``."""
    a, b = (standardize_coords(gt.coords)[0] for gt in (first, second))
    return bool(gauge_gap(a, b) <= STD_COMPARE_ATOL)


def kronecker_decision(inst):
    """Reference decision of the Kronecker system: ``lstsq``, the SVD's
    nullspace at the 1e-9 rank cut, the engine's residual bound and vertex
    enumeration, and a conversion trivial when the initial triple each
    vertex induces has the target's standard form."""
    ka, kb, _ = kronecker_system(inst)
    p_ls = np.linalg.lstsq(ka, kb, rcond=None)[0]
    affine_residual = float(np.linalg.norm(ka @ p_ls - kb))
    infeasible = dict(
        feasible=False, witness=None, vertices=(), unique=False, nontrivial=False,
    )
    if affine_residual > sep_module.RESIDUAL_TOL:
        return SimpleNamespace(**infeasible, residual=affine_residual, reason="affine-infeasible")
    _, ksv, vh = np.linalg.svd(ka, full_matrices=False)
    rank = int(np.sum(ksv > 1e-9 * ksv[0]))
    vertices = sep_module._polytope_vertices(p_ls, vh[rank:].T)
    if not vertices:
        return SimpleNamespace(**infeasible, residual=affine_residual, reason="polytope-empty")
    witness = np.clip(np.mean(vertices, axis=0), 0.0, None)
    witness /= witness.sum()
    trivial = tuple(
        standard_forms_close(induced_initial(inst.target_gram, v), inst.target_gram)
        for v in vertices
    )
    return SimpleNamespace(
        feasible=True, witness=witness, residual=float(np.linalg.norm(ka @ witness - kb)),
        vertices=tuple(vertices), unique=len(vertices) == 1,
        nontrivial=not all(trivial), reason=None,
    )


def test_engine_matches_kronecker_reference_decision(params):
    """The closed-form character fit decides as the Kronecker system of the
    snapped triples does, on the reference corpus and on instances whose
    extra coordinate crosses the cut; its residual formula equals that
    system's residual at any p."""
    probes = np.vstack([np.eye(9), np.random.default_rng(0).dirichlet(np.ones(9), 4)])
    for name, inst in reference_corpus(params) + near_cut_corpus(params):
        n, proj, remainder = sep_module._character_fit(snapped_coords(inst))
        ka, kb, _ = kronecker_system(snapped(inst))
        for p in probes:
            got = sep_module._residual(CONJ_TABLE @ p, n, proj, remainder)
            assert abs(got - np.linalg.norm(ka @ p - kb)) <= 1e-12, name

        dec = sep_feasible(inst)
        ref = kronecker_decision(snapped(inst))
        assert verdict(dec) == verdict(ref), name
        assert abs(dec.residual - ref.residual) <= 1e-12, name
        if dec.feasible:
            np.testing.assert_allclose(dec.witness, ref.witness, rtol=0, atol=1e-12, err_msg=name)


def test_block_products_are_the_permuted_tensor_bit_for_bit(rng):
    """The blocks built from ``c1 (x) c2`` and a gather of c3 are the full
    product tensor permuted into ``_BLOCKS`` order, to the last bit, also
    with zero coordinates and moduli far from 1."""
    for scale in (1.0, 1e-80, 1e80):
        coords = scale * (rng.normal(size=(2, 3, 8)) + 1j * rng.normal(size=(2, 3, 8)))
        coords[rng.random((2, 3, 8)) < 0.3] = 0.0
        c = np.concatenate([np.full((2, 3, 1), 1.0 / 3.0), coords], axis=2)
        prod = c[:, 0, :, None, None] * c[:, 1, None, :, None] * c[:, 2, None, None, :]
        expected = prod.reshape(2, 729)[:, sep_module._BLOCKS]
        assert sep_module._block_products(coords).tobytes() == expected.tobytes()


def test_fit_norms_survive_underflowing_squares(params):
    """Coordinates of modulus 1e-80 on two negation pairs of two parties
    give cross blocks with one product of modulus 1e-160 / 3 each, whose
    square is subnormal: at the cut 1e-200 the fit's norm is still exact to
    1e-14 (a plain root of the summed squares is off by 2e-4), and the
    identity instance of these tables is feasible and trivial."""
    w1, w2 = PAIR_REPS[:2]
    table = np.zeros((3, 8), dtype=complex)
    for party, w in ((0, w1), (1, w2)):
        table[party, [COORD_ORDER.index(w), COORD_ORDER.index(idx_neg(w))]] = 1e-80
    coords = np.array([table, table])
    coords = coords * support_mask(coords, 1e-200)
    n, _, _ = sep_module._character_fit(coords)
    cross = [INDEX_POS[idx_add(a, b)] for a in (w1, idx_neg(w1)) for b in (w2, idx_neg(w2))]
    np.testing.assert_allclose(n[cross], 1e-160 / 3, rtol=1e-14, atol=0)
    gt = SimpleNamespace(coords=table)
    dec = sep_feasible(SimpleNamespace(seed=params, source_gram=gt, target_gram=gt), 1e-200)
    assert dec.feasible and not dec.nontrivial


def exact_vertices(eta):
    """Vertices of {p >= 0 : sum(p) = 1, (CONJ_TABLE @ p)_s = eta[s] for s in
    eta}, found as basic solutions over every support of the constraints'
    rank."""
    fixed = list(eta)
    values = np.array([eta[s] for s in fixed])
    rows = np.vstack([CONJ_TABLE[fixed].real, CONJ_TABLE[fixed].imag, np.ones((1, 9))])
    rhs = np.concatenate([values.real, values.imag, [1.0]])
    rank = np.linalg.matrix_rank(rows)
    found = []
    for support in itertools.combinations(range(9), rank):
        cols = rows[:, list(support)]
        if np.linalg.matrix_rank(cols) < rank:
            continue
        p = np.zeros(9)
        p[list(support)] = np.linalg.lstsq(cols, rhs, rcond=None)[0]
        if np.abs(rows @ p - rhs).max() <= 1e-12 and p.min() >= -1e-12:
            if all(np.abs(p - q).max() > 1e-9 for q in found):
                found.append(p)
    return found


def test_vertices_near_the_cut_are_exact(params):
    """On the one-pair family the blocks the extra pair opens are exactly
    zero below the cut and open above it.  The polytope is the one the
    fitted characters of the snapped instance define: eta_s at its pair's
    least-squares value where one of the pair's blocks is nonzero, free
    elsewhere.  Every vertex of it is reported and nothing else.  An
    identity instance is always feasible (the point mass on the identity
    solves it exactly).  From the seed, the vertex count changes once, at
    the cut: the 27 vertices of the free polytope collapse to the uniform
    distribution, or the conversion becomes infeasible when the extra pair
    is the one party 0 holds."""
    counts = {}
    for name, inst in near_cut_corpus(params, kinds=("one-pair",)):
        dec = sep_feasible(inst)
        if name.startswith("seed/"):
            counts[name] = len(dec.vertices) if dec.feasible else 0
        if not dec.feasible:
            assert name.startswith("seed/"), name
            continue
        n, proj, _ = sep_module._character_fit(snapped_coords(inst))
        neg = [INDEX_POS[idx_neg(k)] for k in INDEX_ORDER]
        eta = {
            s: (n[s] * proj[s] + n[neg[s]] * np.conj(proj[neg[s]])) / (n[s] ** 2 + n[neg[s]] ** 2)
            for s in range(1, 9)
            if n[s] > 0 or n[neg[s]] > 0
        }
        expected = exact_vertices(eta)
        gaps = np.abs(np.array(dec.vertices)[:, None] - np.array(expected)[None]).max(axis=2)
        assert gaps.min(axis=1).max() <= 1e-12, name
        assert gaps.min(axis=0).max() <= 1e-12, name
    for w in PAIR_REPS:
        for t in np.logspace(-14, -4, 41):
            if t != 1e-9:  # at the cut itself rounding decides
                above = 0 if w == (1, 0) else 1
                assert counts[f"seed/one-pair+{w}@{t:.2e}"] == (27 if t < 1e-9 else above), (w, t)


def test_closed_form_rank_matches_kronecker_svd(params, monkeypatch):
    """The pairs the engine leaves free are those of the snapped Kronecker
    system's null directions: the nullspace handed to the vertex
    enumeration (reached for every instance with the residual bound
    lifted) is orthonormal and spans the Kronecker SVD's null space."""
    nullspaces = []
    polytope = sep_module._polytope_vertices
    monkeypatch.setattr(
        sep_module, "_polytope_vertices", lambda p0, n: nullspaces.append(n) or polytope(p0, n)
    )
    monkeypatch.setattr(sep_module, "RESIDUAL_TOL", np.inf)
    for name, inst in reference_corpus(params):
        ka, _, _ = kronecker_system(snapped(inst))
        _, ksv, vh = np.linalg.svd(ka, full_matrices=False)
        krank = int(np.sum(ksv > 1e-9 * ksv[0]))
        sep_feasible(inst)
        null = nullspaces.pop()
        assert null.shape[1] == 9 - krank, name
        np.testing.assert_allclose(
            null.T @ null, np.eye(9 - krank), rtol=0, atol=1e-14, err_msg=name
        )
        knull = vh[krank:].T
        np.testing.assert_allclose(
            null @ null.T, knull @ knull.T, rtol=0, atol=1e-10, err_msg=name
        )


def criterion_4_instances(per_class=50):
    """Criterion 4's instances: disjoint, confined, tiling and dense targets,
    each from the seed or, when confined, from its confined candidate."""
    rng = np.random.default_rng(44)
    out = []
    for kind in ("disjoint", "confined", "tiling", "dense"):
        for _ in range(per_class):
            state = random_state(kind, rng)
            target = gram(state)
            initial = seed_gram()
            if kind == "confined":
                initial = next(
                    g for label, g in candidate_initial_grams(target)
                    if label.startswith("confined-")
                )
            out.append(gram_instance(state.seed, initial, target))
    return out


@pytest.mark.parametrize("weight", [1.0, 2.5])
def test_vertex_trivial_matches_matrix_route(params, monkeypatch, weight):
    """Each vertex's triviality by the matrix route, the standard-form
    comparison of the initial triple it induces (depolarize, then
    trace-normalize) with the target, is the engine's verdict for the pair.
    Vertices sum to one, so the weight 2.5 puts every vertex off the simplex
    to check the trace normalization as well.  Identity instances add
    trivial vertices of targets with nonzero coordinates."""
    polytope = sep_module._polytope_vertices
    monkeypatch.setattr(
        sep_module, "_polytope_vertices", lambda p0, n: [weight * v for v in polytope(p0, n)]
    )
    instances = [inst for _, inst in reference_corpus(params)] + criterion_4_instances()
    instances += [gram_instance(i.seed, i.target_gram, i.target_gram) for i in instances[::10]]
    seen = set()
    for inst in instances:
        dec = sep_feasible(inst)
        induced = (induced_initial(inst.target_gram, v) for v in dec.vertices)
        expected = tuple(standard_forms_close(i, inst.target_gram) for i in induced)
        assert expected == (not dec.nontrivial,) * len(dec.vertices)
        seen |= set(expected)
        if len(dec.vertices) > 1:
            seen.add("several")
    assert seen == {True, False, "several"}


def test_every_vertex_induces_the_masked_source(params):
    """Coordinate (l, 0, 0) of the SEP condition reads ``g1_l = h1_l eta_l``,
    and likewise for each party, so every vertex depolarizes the masked
    target into the masked source, party by party.  Triviality is then a
    property of the pair: the engine calls a feasible conversion nontrivial
    exactly when the masked tables are not LU-equivalent (``gauge_gap`` to
    ``STD_COMPARE_ATOL``).  Identity instances add trivial conversions of
    targets with nonzero coordinates."""
    instances = [inst for _, inst in reference_corpus(params)] + criterion_4_instances()
    instances += [gram_instance(i.seed, i.target_gram, i.target_gram) for i in instances[::10]]
    seen = set()
    for inst in instances:
        dec = sep_feasible(inst)
        source, target = snapped_coords(inst)
        masked_target = snapped(inst).target_gram
        for v in dec.vertices:
            induced = induced_initial(masked_target, v).coords
            np.testing.assert_allclose(induced, source, rtol=0, atol=1e-12)
        trivial = gauge_gap(source, target) <= STD_COMPARE_ATOL
        assert dec.nontrivial == (dec.feasible and not trivial)
        if dec.feasible:
            seen.add(dec.nontrivial)
            if len(dec.vertices) > 1:
                seen.add("several")
    assert seen == {True, False, "several"}


def test_verdict_is_invariant_under_a_common_symmetry_conjugation(params):
    """Conjugating source and target by the same ``S_k`` on every party
    maps one instance to an equivalent one: the verdict tuple is kept."""
    for name, inst in reference_corpus(params):
        base = verdict(sep_feasible(inst))
        for k in INDEX_ORDER[1:]:
            s = PAULIS[k]
            source, target = (
                gram_triple(*(dagger(s) @ m @ s for m in gt.mats))
                for gt in (inst.source_gram, inst.target_gram)
            )
            moved = sep_feasible(gram_instance(inst.seed, source, target))
            assert verdict(moved) == base, (name, k)
