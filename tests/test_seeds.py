import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qutritlocc.pauli import INDEX_ORDER, PAULIS, kron3
from qutritlocc.seeds import (
    AUDIT_PROJ_TOL,
    AUDIT_SCREEN_MARGIN,
    GENERIC_THRESHOLD,
    SeedParams,
    build_seed,
    check_generic,
    dense_candidates,
    monomial_candidates,
    probe_states,
    symmetry_audit,
    verify_symmetries,
    _all_candidates,
    _exclusion_polynomials,
    _pauli_match,
    _probe0_form,
    _screen_candidates,
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


def test_monomial_candidates():
    mats = monomial_candidates()
    assert mats.shape == (54, 3, 3)
    for m in mats:
        assert np.count_nonzero(m) == 3
        assert np.count_nonzero(m, axis=0).tolist() == [1, 1, 1]
        assert np.count_nonzero(m, axis=1).tolist() == [1, 1, 1]
        entries = m[np.nonzero(m)]
        np.testing.assert_allclose(np.abs(entries), 1.0, atol=1e-12)
    # every Pauli operator appears projectively exactly once
    for k in INDEX_ORDER:
        s = PAULIS[k]
        hits = [
            m
            for m in mats
            if abs(np.vdot(s, m)) / (np.linalg.norm(s) * np.linalg.norm(m)) > 1 - 1e-12
        ]
        assert len(hits) == 1


def test_dense_candidates():
    mats = dense_candidates()
    assert mats.shape == (162, 3, 3)
    assert np.all(np.abs(mats) > 0.999)
    # distinct as projective classes (top-left entry is 1 in all of them)
    flat = mats.reshape(162, 9).round(9)
    assert len({tuple(row) for row in flat}) == 162


def test_audit_is_clean_on_generic_seed(params):
    report = symmetry_audit(params)
    assert report.clean
    assert report.n_candidates == 216
    assert report.n_pairs == 216**2
    assert len(report.survivors) == 9
    assert report.surplus == ()
    assert {r.pauli for r in report.survivors} == set(INDEX_ORDER)
    assert report.max_full_residual <= 1e-8
    for r in report.survivors:
        assert r.projection_residual <= 1e-8
        assert r.b_label.startswith("monomial:")


@pytest.mark.parametrize("proj_tol", [AUDIT_PROJ_TOL, 0.05])
def test_audit_screen_matches_einsum_reference(params, proj_tol):
    """The per-probe matrix products give the residuals of the direct
    three-``einsum`` contraction, and the same survivor set.  The loose
    tolerance lets 432 pairs with residuals up to ~0.05 through."""
    report = symmetry_audit(params, proj_tol=proj_tol)
    psi = build_seed(params)
    t = (psi / np.linalg.norm(psi)).reshape(3, 3, 3)
    probes = probe_states(params).conj()
    mats, labels = _all_candidates()
    unit = mats / np.linalg.norm(mats.reshape(len(mats), 9), axis=1)[:, None, None]
    k0 = np.einsum("cuv,xsv->cuxs", unit, t)
    k1 = np.einsum("iru,cuxs->icrxs", probes, k0)
    res = np.einsum("brs,icrxs->bcix", unit, k1)
    resid = np.max(np.linalg.norm(res, axis=3), axis=2)

    index = {label: i for i, label in enumerate(labels)}
    records = report.survivors + report.surplus
    screened = {(index[r.b_label], index[r.c_label]) for r in records}
    assert screened == set(zip(*np.nonzero(resid <= proj_tol)))
    for r in records:
        ref = resid[index[r.b_label], index[r.c_label]]
        assert abs(r.projection_residual - ref) <= 1e-12


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
    assert audit.n_live_pairs == base.n_live_pairs
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
    """Residual of every pair under each probe, shape (216, 216, 9), from the
    direct three-``einsum`` contraction."""
    psi = build_seed(params)
    t = (psi / np.linalg.norm(psi)).reshape(3, 3, 3)
    probes = probe_states(params).conj()
    mats, _ = _all_candidates()
    unit = mats / np.linalg.norm(mats.reshape(len(mats), 9), axis=1)[:, None, None]
    k0 = np.einsum("cuv,xsv->cuxs", unit, t)
    k1 = np.einsum("iru,cuxs->icrxs", probes, k0)
    return np.linalg.norm(np.einsum("brs,icrxs->bcix", unit, k1), axis=3)


@pytest.mark.parametrize("seed", range(5))
def test_quadratic_form_is_the_reference_probe_0_residual_squared(seed):
    """The screen's quadratic form gives every pair's squared probe-0
    residual of the direct contraction, to a hundredth of its rounding
    margin, on all 46,656 pairs."""
    params = random_seed_params(np.random.default_rng(seed))
    psi = build_seed(params)
    t = (psi / np.linalg.norm(psi)).reshape(3, 3, 3)
    unit, b_form = _screen_candidates()
    k0 = np.einsum("cuv,xsv->csux", unit, t)
    squares = b_form @ _probe0_form(k0, probe_states(params).conj()[0])
    reference = _full_grid_residuals(params)[:, :, 0] ** 2
    assert squares.shape == reference.shape == (216, 216)
    assert np.abs(squares - reference).max() <= AUDIT_SCREEN_MARGIN / 100


@settings(max_examples=3)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_two_stage_screen_matches_full_grid_reference(seed):
    """At every tolerance, the probe-0 screen passes exactly the pairs whose
    probe-0 residual is within ``proj_tol``, and the screened pairs and their
    residuals are those of the full grid.  Besides fixed tolerances, the cut
    is put into each gap between consecutive distinct probe-0 residuals
    (their squares wider apart than the screen's margin) that has at most
    3600 pairs below it: halfway across, and just below the pairs above it,
    within the margin of their squared residual, where only the recheck by
    the direct residual keeps them dead."""
    params = random_seed_params(np.random.default_rng(seed))
    per_probe = _full_grid_residuals(params)
    resid = per_probe.max(axis=2)
    _, labels = _all_candidates()
    index = {label: i for i, label in enumerate(labels)}
    probe0 = np.sort(per_probe[:, :, 0], axis=None)
    wide = np.flatnonzero(np.diff(probe0**2) > AUDIT_SCREEN_MARGIN)
    wide = wide[wide < 3600]
    assert len(wide) >= 3
    above = probe0[wide + 1]
    cuts = [*(probe0[wide] + above) / 2, *np.sqrt(above**2 - AUDIT_SCREEN_MARGIN / 2)]
    for proj_tol in (AUDIT_PROJ_TOL, 0.05, 0.5, *cuts):
        report = symmetry_audit(params, proj_tol=proj_tol)
        assert report.n_live_pairs == np.count_nonzero(per_probe[:, :, 0] <= proj_tol)
        records = report.survivors + report.surplus
        screened = {(index[r.b_label], index[r.c_label]) for r in records}
        assert screened == set(zip(*np.nonzero(resid <= proj_tol)))
        for r in records:
            ref = resid[index[r.b_label], index[r.c_label]]
            assert abs(r.projection_residual - ref) <= 1e-12


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
    candidates, _ = _all_candidates()
    noise = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    near = [PAULIS[(1, 1)] + 1e-3 * noise[0], PAULIS[(2, 1)] + 1e-10 * noise[1]]
    mats = np.array([np.zeros((3, 3)), *scaled_paulis, *candidates, *near], dtype=complex)

    matched = _pauli_match(mats)
    assert matched == [_loop_pauli_match(m) for m in mats]
    assert matched[0] is None
    assert matched[1:28] == [k for k in INDEX_ORDER for _ in range(3)]
    assert sorted(k for k in matched[28:244] if k is not None) == sorted(INDEX_ORDER)
    assert matched[244:] == [None, (2, 1)]
