import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qutritlocc.pauli import BASIS, INDEX_ORDER, PAULIS, kron3
from qutritlocc.seeds import (
    AUDIT_PROJ_TOL,
    GENERIC_THRESHOLD,
    SeedParams,
    build_seed,
    check_generic,
    probe_states,
    symmetry_audit,
    verify_symmetries,
    _cubic_stabilizers,
    _exclusion_polynomials,
    _hessian_table,
    _pauli_match,
)
from qutritlocc.generate import random_seed_params

# amplitude slots of the seed vector in the |ijk> -> 9i+3j+k indexing
A_SLOTS = (0, 13, 26)
B_SLOTS = (5, 19, 15)
C_SLOTS = (7, 21, 11)

amplitudes = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=5.0, allow_nan=False, allow_infinity=False
)


def test_amplitude_placement():
    p = SeedParams(2, 3, 5)
    np.testing.assert_allclose(p.as_array(), np.array([2, 3, 5]) / np.sqrt(38), rtol=0, atol=1e-15)
    v = build_seed(p)
    for i in A_SLOTS:
        assert v[i] == p.a
    for i in B_SLOTS:
        assert v[i] == p.b
    for i in C_SLOTS:
        assert v[i] == p.c
    rest = set(range(27)) - set(A_SLOTS) - set(B_SLOTS) - set(C_SLOTS)
    assert all(v[i] == 0 for i in rest)


def test_degenerate_placements():
    np.testing.assert_allclose(np.nonzero(build_seed(SeedParams(1, 0, 0)))[0], A_SLOTS)
    np.testing.assert_allclose(
        np.nonzero(build_seed(SeedParams(0, 1, 0)))[0], sorted(B_SLOTS)
    )


@given(a=amplitudes, b=amplitudes, c=amplitudes)
def test_norm_squared(a, b, c):
    """The seed vector's squared norm is 3 (|a|^2 + |b|^2 + |c|^2), which is
    3 for the unit-norm triple a seed holds."""
    assume(a or b or c)
    p = SeedParams(a, b, c)
    expected = 3 * float(np.sum(np.abs(p.as_array()) ** 2))
    assert abs(expected - 3.0) <= 1e-12
    assert abs(np.linalg.norm(build_seed(p)) ** 2 - expected) <= 1e-12


def test_canonical_gauge():
    p = SeedParams(2j, 3, 5)
    assert abs(np.linalg.norm(p.as_array()) - 1.0) <= 1e-12
    assert p.a.imag == pytest.approx(0.0, abs=1e-12) and p.a.real > 0
    np.testing.assert_allclose(p.as_array(), np.array([2, -3j, -5j]) / np.sqrt(38), atol=1e-15)
    # idempotent, bit for bit
    assert SeedParams(*p.as_array()) == p
    # zero leading entry: gauge fixed on the first nonzero one
    q = SeedParams(0, 1j, 1)
    assert q.a == 0
    assert abs(q.b.imag) <= 1e-12 and q.b.real > 0


def test_a_triple_at_the_float_limit_is_canonicalized():
    """Amplitudes whose moduli overflow a float still give their ray's seed."""
    big = SeedParams(1.7e308 + 1.7e308j, 1e308, 3e307j)
    expected = SeedParams(1.7 + 1.7j, 1, 0.3j).as_array()
    np.testing.assert_allclose(big.as_array(), expected, rtol=0, atol=1e-15)


def test_canonical_rejects_zero():
    with pytest.raises(ValueError, match="must not all vanish"):
        SeedParams(0, 0, 0)


def test_exclusion_list_size():
    polys = _exclusion_polynomials(0.3 + 0.1j, 0.5, 0.7 - 0.2j)
    assert len(polys) == 22
    names = [name for name, _, _ in polys]
    assert len(set(names)) == 22
    assert all(deg >= 1 for _, _, deg in polys)


def test_generic_example_seed():
    report = check_generic(SeedParams(2, 3, 5))
    assert report.generic
    assert report.violations == ()
    assert report.margin > GENERIC_THRESHOLD


def test_vanishing_amplitude_is_excluded():
    report = check_generic(SeedParams(0, 1, 1))
    assert not report.generic
    assert any(name == "a" for name, _ in report.violations)


def test_equal_amplitudes_are_excluded():
    """a = b lands on the ninth-power coincidence locus."""
    report = check_generic(SeedParams(1, 1, 2))
    assert not report.generic
    assert any("a^9" in name or "b^9" in name for name, _ in report.violations)
    report = check_generic(SeedParams(1, 1, 1))
    assert not report.generic


@pytest.mark.parametrize(
    "seed",
    [
        SeedParams(np.nan, 1, 0.5),
        SeedParams(1, complex(0.5, np.nan), 0.5),
        SeedParams(1, 0.5, np.inf),
    ],
    ids=["nan", "complex-nan", "inf"],
)
def test_non_finite_parameters_are_not_generic(seed):
    report = check_generic(seed)
    assert not report.generic
    assert report.violations
    assert report.margin == 0.0


def test_scale_invariance_of_margin():
    small = check_generic(SeedParams(0.02, 0.03, 0.05))
    canon = check_generic(SeedParams(2, 3, 5))
    assert small.generic == canon.generic
    assert small.margin == pytest.approx(canon.margin, rel=1e-9)


def test_verify_symmetries(params):
    assert verify_symmetries(params) <= 1e-10


def test_single_party_shift_is_not_a_symmetry():
    v = build_seed(SeedParams(2, 3, 5))
    s = PAULIS[(1, 0)]
    moved = kron3(s, np.eye(3), np.eye(3)) @ v
    assert np.linalg.norm(moved - v) / np.linalg.norm(v) > 0.5


def test_probes_annihilate_seed():
    for triple in [(2, 3, 5), (1 + 1j, 0.4, 2 - 0.3j), (1, 1, 1), (0, 1, 2)]:
        params = SeedParams(*triple)
        t = build_seed(params).reshape(3, 3, 3)
        out = np.einsum("ijk,xjk->ix", probe_states(params).conj(), t)
        np.testing.assert_allclose(out, np.zeros((9, 3)), atol=1e-12)


def test_hessian_table_is_a_group():
    """The table holds 216 distinct projective classes, the first nine the
    Paulis in ``INDEX_ORDER``; every product of two elements is, up to
    phase, an element; every element conjugates each Pauli into a phase
    times a Pauli; and the label maps ``k -> l`` they induce are 24
    distinct permutations, the order of SL(2, 3)."""
    table = _hessian_table()
    flat = table.reshape(216, 9)
    assert table.shape == (216, 3, 3)
    overlap = np.abs(flat.conj() @ flat.T)
    np.testing.assert_allclose(np.diag(overlap), 1.0, rtol=0, atol=1e-12)
    assert np.all(overlap[~np.eye(216, dtype=bool)] <= 1 / np.sqrt(3) + 1e-12)
    np.testing.assert_allclose(table[:9] * np.sqrt(3), BASIS, rtol=0, atol=1e-15)

    products = np.sqrt(3) * (table[:, None] @ table[None]).reshape(-1, 9)
    best = np.abs(products @ flat.conj().T).max(axis=1)
    np.testing.assert_allclose(best, 1.0, rtol=0, atol=1e-12)

    unitary = np.sqrt(3) * table
    conjugated = unitary[:, None] @ BASIS[None] @ unitary.conj().transpose(0, 2, 1)[:, None]
    hits = np.abs(np.einsum("nkij,lij->nkl", conjugated, BASIS.conj())) / 3
    assert np.all(np.isclose(hits, 0, atol=1e-12) | np.isclose(hits, 1, atol=1e-12))
    assert np.all(hits.sum(axis=2) > 1 - 1e-12)
    permutations = {tuple(row) for row in hits.argmax(axis=2).tolist()}
    assert len(permutations) == 24
    assert all(sorted(p) == list(range(9)) for p in permutations)


def _table_part(n_nonzero):
    table = _hessian_table()
    return table[np.count_nonzero(np.abs(table) > 1e-12, axis=(1, 2)) == n_nonzero]


def test_monomial_candidates():
    """54 table elements are monomial: one entry of modulus ``1 / sqrt(3)``
    in each row and column, and every Pauli is one of them, once."""
    mats = _table_part(3)
    assert mats.shape == (54, 3, 3)
    for m in mats:
        support = np.abs(m) > 1e-12
        assert support.sum(axis=0).tolist() == [1, 1, 1]
        assert support.sum(axis=1).tolist() == [1, 1, 1]
        np.testing.assert_allclose(np.abs(m[support]), 1 / np.sqrt(3), atol=1e-12)
    for k in INDEX_ORDER:
        s = PAULIS[k]
        hits = [
            m
            for m in mats
            if abs(np.vdot(s, m)) / (np.linalg.norm(s) * np.linalg.norm(m)) > 1 - 1e-12
        ]
        assert len(hits) == 1


def test_dense_candidates():
    """The other 162 table elements are dense, every entry of modulus
    ``1 / 3``, and distinct as projective classes."""
    mats = _table_part(9)
    assert mats.shape == (162, 3, 3)
    np.testing.assert_allclose(np.abs(mats), 1 / 3, atol=1e-12)
    flat = (mats / mats[:, :1, :1]).reshape(162, 9).round(9)
    assert len({tuple(row) for row in flat}) == 162


@pytest.mark.parametrize("seed", range(5))
def test_cubic_stabilizers_match_determinant_reference(seed):
    """The cubic stabilizers read from the coefficient action are the
    elements ``g`` for which ``det(sum_j (g^T x)_j M_j)`` is one multiple
    of ``det(sum_j x_j M_j)`` at twelve random points, for the slices
    ``M_j`` of party 1 and of party 2; a generic seed has 18 at each."""
    params = random_seed_params(np.random.default_rng(seed))
    psi = build_seed(params)
    t = (psi / np.linalg.norm(psi)).reshape(3, 3, 3)
    rng = np.random.default_rng(100 + seed)
    x = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    table = _hessian_table()
    for slices, found in zip((t.transpose(1, 0, 2), t.transpose(2, 0, 1)), _cubic_stabilizers(t)):
        cubic = np.linalg.det(np.einsum("pj,jik->pik", x, slices))
        moved = np.linalg.det(np.einsum("gpj,jik->gpik", x @ table, slices))
        ratio = moved / cubic
        spread = np.abs(ratio - ratio[:, :1]).max(axis=1) / np.abs(ratio).max(axis=1)
        assert sorted(found.tolist()) == np.flatnonzero(spread <= 1e-9).tolist()
        assert len(found) == 18
        assert np.sort(spread)[18] > 1e-3


def test_audit_is_clean_on_generic_seed(params):
    report = symmetry_audit(params)
    assert report.clean
    assert report.n_candidates == 216
    assert report.stabilizer_sizes == (18, 18)
    assert report.n_pairs == 18 * 18
    assert len(report.survivors) == 9
    assert report.surplus == ()
    assert {r.pauli for r in report.survivors} == set(INDEX_ORDER)
    assert report.max_full_residual <= 1e-8
    for r in report.survivors:
        assert r.projection_residual <= 1e-8
        assert r.b_label == r.c_label == f"hessian:{INDEX_ORDER.index(r.pauli)}"


def _label_index(label):
    return int(label.removeprefix("hessian:"))


def _screened(report):
    return {
        (_label_index(r.b_label), _label_index(r.c_label)): r.projection_residual
        for r in report.survivors + report.surplus
    }


@pytest.mark.parametrize("proj_tol", [AUDIT_PROJ_TOL, 0.05])
def test_audit_screen_matches_einsum_reference(params, proj_tol):
    """On the stabilizer pairs, the audit passes exactly the pairs whose
    residual from the direct three-``einsum`` contraction over the full
    grid is within ``proj_tol``, with that residual.  At the loose
    tolerance 45 stabilizer pairs pass, of the full grid's 432."""
    psi = build_seed(params)
    s1, s2 = _cubic_stabilizers((psi / np.linalg.norm(psi)).reshape(3, 3, 3))
    resid = _full_grid_residuals(params).max(axis=2)
    expected = {(b, c) for b in s1.tolist() for c in s2.tolist() if resid[b, c] <= proj_tol}
    screened = _screened(symmetry_audit(params, proj_tol=proj_tol))
    assert set(screened) == expected
    assert len(expected) == (9 if proj_tol == AUDIT_PROJ_TOL else 45)
    assert np.count_nonzero(resid <= proj_tol) == (9 if proj_tol == AUDIT_PROJ_TOL else 432)
    for (b, c), r in screened.items():
        assert abs(r - resid[b, c]) <= 1e-12


def test_audit_refuses_non_generic():
    with pytest.raises(ValueError, match="generic"):
        symmetry_audit(SeedParams(1, 1, 2))


@pytest.mark.parametrize("scale", [1e200, 1e160, 1e-200])
def test_seed_functions_are_scale_safe(scale):
    """A seed built from a far-scaled triple is the same seed as at unit
    scale, with the same genericity, symmetry check and audit."""
    params = random_seed_params(np.random.default_rng(3))
    scaled = SeedParams(params.a * scale, params.b * scale, params.c * scale)
    report = check_generic(scaled)
    assert report.generic
    assert report.margin == pytest.approx(check_generic(params).margin, rel=1e-12)
    assert verify_symmetries(scaled) <= 1e-10
    np.testing.assert_allclose(scaled.as_array(), params.as_array(), rtol=0, atol=1e-12)
    audit = symmetry_audit(scaled)
    assert audit.clean and len(audit.survivors) == 9


@pytest.mark.parametrize("scale", [1.5, 0.7, 1e200, 1e-200])
def test_audit_screen_does_not_depend_on_the_seed_scale(params, scale):
    """A loose screen passes the same pairs, with the same residuals, for
    every representative of one ray: the probes are built from the
    unit-normalized triple."""
    scaled = SeedParams(params.a * scale, params.b * scale, params.c * scale)
    base = symmetry_audit(params, proj_tol=0.05)
    audit = symmetry_audit(scaled, proj_tol=0.05)
    assert audit.stabilizer_sizes == base.stabilizer_sizes
    for got, ref in ((audit.survivors, base.survivors), (audit.surplus, base.surplus)):
        assert [(r.b_label, r.c_label, r.pauli) for r in got] == [
            (r.b_label, r.c_label, r.pauli) for r in ref
        ]
        for g, r in zip(got, ref):
            assert abs(g.projection_residual - r.projection_residual) <= 1e-12


def test_verify_symmetries_rejects_non_finite_parameters():
    with pytest.raises(ValueError, match="finite"):
        verify_symmetries(SeedParams(np.nan, 1, 0.5))


@pytest.mark.parametrize("proj_tol", [np.nan, -1.0, np.inf])
def test_audit_rejects_bad_projection_tolerance(params, proj_tol):
    with pytest.raises(ValueError, match="proj_tol"):
        symmetry_audit(params, proj_tol=proj_tol)


def _full_grid_residuals(params):
    """Residual of every pair of table elements under each probe, shape
    (216, 216, 9), from the direct three-``einsum`` contraction."""
    psi = build_seed(params)
    t = (psi / np.linalg.norm(psi)).reshape(3, 3, 3)
    probes = probe_states(params).conj()
    unit = _hessian_table()
    k0 = np.einsum("cuv,xsv->cuxs", unit, t)
    k1 = np.einsum("iru,cuxs->icrxs", probes, k0)
    return np.linalg.norm(np.einsum("brs,icrxs->bcix", unit, k1), axis=3)


def _assert_full_grid_survivors(params, report):
    """The audit screens exactly the pairs of the full 46,656-pair grid
    whose nine-probe residual is within the default ``proj_tol``."""
    resid = _full_grid_residuals(params).max(axis=2)
    assert set(_screened(report)) == set(zip(*np.nonzero(resid <= AUDIT_PROJ_TOL)))


@settings(max_examples=3)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_audit_survivors_match_full_grid_reference(seed):
    params = random_seed_params(np.random.default_rng(seed))
    report = symmetry_audit(params)
    assert report.clean and report.stabilizer_sizes == (18, 18)
    _assert_full_grid_survivors(params, report)


def seed_with_t_cubed(t_cubed, b=1.0, c=0.5 + 0.3j):
    """A seed whose cubic parameter ``t = -(a^3+b^3+c^3)/(abc)`` has the given
    cube: ``a`` is a root of ``a^3 + t b c a + b^3 + c^3``."""
    t = complex(t_cubed) ** (1 / 3)
    return SeedParams(np.roots([1, 0, t * b * c, b**3 + c**3])[0], b, c)


@pytest.mark.parametrize(
    "t_cubed, size",
    [(216, 54), (-270 - 162 * np.sqrt(3), 36), (-270 + 162 * np.sqrt(3), 36)],
    ids=["j=0", "j=1728-plus", "j=1728-minus"],
)
def test_special_j_seeds_have_larger_stabilizers(t_cubed, size):
    """At j = 0 (``t^3 = 216``) and j = 1728 (``t^3 = -270 -+ 162 sqrt(3)``)
    the genericity screen admits the seed, each slice cubic has 54 or 36
    automorphisms, and the audit is still clean, with the full grid's
    survivors."""
    params = seed_with_t_cubed(t_cubed)
    a, b, c = params.as_array()
    assert abs((-(a**3 + b**3 + c**3) / (a * b * c)) ** 3 - t_cubed) <= 1e-9 * abs(t_cubed)
    assert check_generic(params).generic
    report = symmetry_audit(params)
    assert report.stabilizer_sizes == (size, size)
    assert report.clean and len(report.survivors) == 9
    _assert_full_grid_survivors(params, report)


def _loop_pauli_match(m):
    """The per-operator definition: the first ``S_k`` whose normalized overlap
    with ``m``, after dividing ``m`` by its largest |entry|, reaches 1 - 1e-8."""
    top = np.abs(m).max()
    if top == 0:
        return None
    u = m / top
    for k in INDEX_ORDER:
        if abs(np.vdot(PAULIS[k], u)) / (np.sqrt(3.0) * np.linalg.norm(u)) >= 1.0 - 1e-8:
            return k
    return None


def test_stacked_pauli_match_agrees_with_operator_loop(rng):
    phases = np.exp(2j * np.pi * rng.random((9, 3)))
    scaled_paulis = [
        PAULIS[k] * phase * scale
        for k, row in zip(INDEX_ORDER, phases)
        for phase, scale in zip(row, (1.0, 1e200, 1e-200))
    ]
    candidates = _hessian_table()
    noise = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    near = [PAULIS[(1, 1)] + 1e-3 * noise[0], PAULIS[(2, 1)] + 1e-10 * noise[1]]
    mats = np.array([np.zeros((3, 3)), *scaled_paulis, *candidates, *near], dtype=complex)

    matched = _pauli_match(mats)
    assert matched == [_loop_pauli_match(m) for m in mats]
    assert matched[0] is None
    assert matched[1:28] == [k for k in INDEX_ORDER for _ in range(3)]
    assert sorted(k for k in matched[28:244] if k is not None) == sorted(INDEX_ORDER)
    assert matched[244:] == [None, (2, 1)]
