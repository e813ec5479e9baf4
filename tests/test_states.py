import itertools

import numpy as np
import pytest

from qutritlocc import states
from qutritlocc.classify import classify, support_pattern
from qutritlocc.generate import KINDS, random_state
from qutritlocc.pauli import (
    CONJ_TABLE,
    COORD_ORDER,
    INDEX_ORDER,
    PAIR_REPS,
    PAULIS,
    ZERO_TOL,
    dagger,
    idx_neg,
    pair_rep,
    pauli_coords,
)
from qutritlocc.seeds import SeedParams, build_seed
from qutritlocc.sep import sep_instance
from qutritlocc.states import (
    STD_COMPARE_ATOL,
    STD_SUPPORT_TOL,
    STD_WINDOW_SNAP,
    GenericState,
    GramTriple,
    SeedMismatchError,
    assemble,
    gram,
    gram_triple,
    lu_equivalent,
    permute_state,
    permute_vector,
    positive_factor,
    ray_distance,
    seed_gram,
    span_factor,
    standard_form,
    standardize_coords,
)

from helpers import pair_mat

RT_ATOL = 1e-12


def random_factors(rng, n=3):
    return tuple(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(n))


def random_unitaries(rng, n=3):
    out = []
    for _ in range(n):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        out.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return tuple(out)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_rejects_non_generic_seed():
    with pytest.raises(ValueError, match="generic"):
        GenericState(SeedParams(1, 1, 2), (np.eye(3),) * 3)


def test_rejects_singular_factor(params):
    with pytest.raises(ValueError, match="singular"):
        GenericState(params, (np.diag([1.0, 1.0, 0.0]), np.eye(3), np.eye(3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_factor(params, bad):
    g = np.eye(3, dtype=complex)
    g[0, 1] = bad
    with pytest.raises(ValueError, match="factor 0 is not finite"):
        GenericState(params, (g, np.eye(3), np.eye(3)))


@pytest.mark.parametrize("bad", [-np.inf, complex(0, np.nan), complex(np.inf, 1.0)])
def test_non_finite_factor_is_named_before_the_invertibility_test(params, bad):
    """A non-finite entry is reported as such, for the factor that holds it,
    and not as a singular factor, even when the other factors are fine."""
    g = np.diag([2.0, 3.0, 5.0]).astype(complex)
    g[2, 0] = bad
    with pytest.raises(ValueError, match="factor 2 is not finite") as excinfo:
        GenericState(params, (np.eye(3), np.eye(3), g))
    assert "singular" not in str(excinfo.value)


#: One bad factor of each kind, with the reason ``GenericState`` gives.
BAD_FACTORS = {
    "short": (np.eye(3)[:2], "must be 3x3, got (2, 3)"),
    "flat": (np.ones(9), "must be 3x3, got (9,)"),
    "stacked": (np.eye(3)[None], "must be 3x3, got (1, 3, 3)"),
    "nan": (np.diag([1.0, np.nan, 1.0]), "is not finite"),
    "inf": (np.full((3, 3), np.inf), "is not finite"),
    "nan-imag": (np.eye(3) + complex(0, np.nan), "is not finite"),
    "singular": (np.ones((3, 3)), "is numerically singular"),
    "zero": (np.zeros((3, 3)), "is numerically singular"),
    "tiny-singular": (1e-200 * np.diag([1.0, 1.0, 1e-12]), "is numerically singular"),
}


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("bad", sorted(BAD_FACTORS))
def test_one_bad_factor_is_named_with_its_reason(params, rng, index, bad):
    """Whichever factor is bad, and however, the message names that factor
    and the one reason, and no floating-point warning is raised."""
    factors = [rng.normal(size=(3, 3)) + 3 * np.eye(3) for _ in range(3)]
    factors[index], reason = BAD_FACTORS[bad]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        with pytest.raises(ValueError) as err:
            GenericState(params, tuple(factors))
    assert str(err.value) == f"factor {index} {reason}"


def test_states_compare_by_identity(params, rng):
    """Equality is identity, so membership tests and hashing work; whether
    two states are the same up to local unitaries is lu_equivalent's."""
    factors = random_factors(rng)
    s, t = GenericState(params, factors), GenericState(params, factors)
    assert s == s and s != t
    assert s in [t, s] and t not in [s]
    assert len({s, t, s}) == 2 and hash(s) == hash(s)
    assert lu_equivalent(s, t)


@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_scaled_factor_builds_with_the_same_gram(params, rng, c):
    """States are rays: a factor scaled far out of the range where its
    Gram's entries are representable still gives the same Gram triple."""
    factors = random_factors(rng)
    scaled = GenericState(params, (c * factors[0],) + factors[1:])
    plain = gram(GenericState(params, factors))
    for m, ref in zip(gram(scaled).mats, plain.mats):
        np.testing.assert_allclose(m, ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gram(scaled).coords, plain.coords, rtol=0, atol=1e-12)


def test_rejects_bad_shape(params):
    with pytest.raises(ValueError, match="3x3"):
        GenericState(params, (np.eye(2), np.eye(3), np.eye(3)))


def test_assemble_identity_is_seed(params):
    s = GenericState(params, (np.eye(3),) * 3)
    np.testing.assert_allclose(assemble(s), build_seed(params), atol=0)


def test_assemble_pauli_triple_is_seed(params):
    for k in INDEX_ORDER:
        s = GenericState(params, (PAULIS[k],) * 3)
        np.testing.assert_allclose(assemble(s), build_seed(params), atol=RT_ATOL)


def test_assemble_scales_rowwise():
    p = SeedParams(2, 3, 5)
    s = GenericState(p, (np.diag([1.0, 2.0, 3.0]), np.eye(3), np.eye(3)))
    v = assemble(s)
    base = build_seed(p)
    # first-party factor scales each amplitude by 1 + (leading index)
    for idx, factor in {0: 1, 13: 2, 26: 3, 5: 1, 19: 3, 15: 2, 7: 1, 21: 3, 11: 2}.items():
        assert v[idx] == pytest.approx(base[idx] * factor)


# ---------------------------------------------------------------------------
# Gram factors
# ---------------------------------------------------------------------------


def test_gram_of_identity_factors(params):
    gt = gram(GenericState(params, (np.eye(3),) * 3))
    for m in gt.mats:
        np.testing.assert_allclose(m, np.eye(3) / 3, atol=RT_ATOL)
    np.testing.assert_allclose(gt.coords, np.zeros((3, 8)), atol=RT_ATOL)


def test_gram_of_unitary_factors(params, rng):
    gt = gram(GenericState(params, random_unitaries(rng)))
    for m in gt.mats:
        np.testing.assert_allclose(m, np.eye(3) / 3, atol=1e-12)


def test_gram_diagonal_example(params):
    gt = gram(GenericState(params, (np.diag([1, 1, np.sqrt(2)]), np.eye(3), np.eye(3))))
    np.testing.assert_allclose(gt.mats[0], np.diag([0.25, 0.25, 0.5]), atol=RT_ATOL)


def test_gram_coords_match_mats(params, rng):
    gt = gram(GenericState(params, random_factors(rng)))
    for party in range(3):
        g0, g = pauli_coords(gt.mats[party])
        assert abs(g0 - 1 / 3) <= 1e-12
        np.testing.assert_allclose(gt.coords[party], g, atol=1e-12)


def assert_same_triple(kept, fresh):
    for m, ref in zip(kept.mats, fresh.mats):
        assert m.tobytes() == ref.tobytes()
    assert kept.coords.tobytes() == fresh.coords.tobytes()


def test_gram_is_kept_read_only(params, rng):
    st = GenericState(params, random_factors(rng))
    gt = gram(st)
    assert gram(st) is gt
    for m in gt.mats:
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        gt.coords[0, 0] = 0.0


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
@pytest.mark.parametrize("kind", KINDS)
def test_kept_gram_matches_a_fresh_states(rng, kind, scale):
    """After every query that reads it, the kept triple is bit for bit the
    triple of a new state built from the same factors."""
    drawn = random_state(kind, rng)
    st = GenericState(drawn.seed, tuple(scale * g for g in drawn.factors))
    other = GenericState(st.seed, random_factors(rng))
    classify(st)
    standard_form(st)
    lu_equivalent(st, other)
    sep_instance(other, st)
    assert_same_triple(gram(st), gram(GenericState(st.seed, st.factors)))


@pytest.mark.parametrize("perm", [(1, 2, 0), (0, 2, 1), (2, 1, 0)])
def test_permuted_state_gets_its_own_gram(params, rng, perm):
    st = GenericState(params, random_factors(rng))
    gt = gram(st)
    moved = permute_state(st, perm)
    assert gram(moved) is not gt
    assert_same_triple(gram(moved), gram(GenericState(moved.seed, moved.factors)))
    for i, p in enumerate(perm):
        np.testing.assert_allclose(gram(moved).mats[i], gt.mats[p], rtol=0, atol=1e-15)
        np.testing.assert_allclose(gram(moved).coords[i], gt.coords[p], rtol=0, atol=1e-15)


def test_queries_on_one_state_build_its_gram_once(params, rng, monkeypatch):
    built = []

    def counting(*mats):
        built.append(len(mats))
        return gram_triple(*mats)

    target = GenericState(params, random_factors(rng))
    source = GenericState(params, random_factors(rng))
    gram(source)
    monkeypatch.setattr(states, "gram_triple", counting)
    classify(target)
    standard_form(target)
    lu_equivalent(target, source)
    sep_instance(source, target)
    assert built == [3]


def test_seed_gram():
    gt = seed_gram()
    for m in gt.mats:
        np.testing.assert_allclose(m, np.eye(3) / 3, atol=0)


def test_gram_triple_normalizes():
    gt = gram_triple(2 * np.eye(3), np.diag([1.0, 2.0, 3.0]), np.eye(3))
    for m in gt.mats:
        assert np.trace(m).real == pytest.approx(1.0)


def test_gram_triple_rejects_non_hermitian():
    bad = np.eye(3) + 0.1j * PAULIS[(1, 0)]
    with pytest.raises(ValueError, match="Hermitian"):
        GramTriple((bad / np.trace(bad), np.eye(3) / 3, np.eye(3) / 3))


GRAM_SCALES = [1.0, 1e200, 1e-200]


def positive_gram(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ dagger(a) + 0.3 * np.eye(3)
    return m / np.trace(m).real


def with_skew_part(rng, m, relative):
    """``m`` plus a skew-Hermitian part of Frobenius norm ``relative ||m||``."""
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    skew = b - dagger(b)
    return m + relative * np.linalg.norm(m) / np.linalg.norm(skew) * skew


@pytest.mark.parametrize("scale", GRAM_SCALES)
@pytest.mark.parametrize("party", [0, 2])
def test_gram_triple_rejects_skew_part(rng, scale, party):
    """A relative skew-Hermitian part of 1e-6 is far above ZERO_TOL at any scale."""
    mats = [positive_gram(rng) for _ in range(3)]
    mats[party] = scale * with_skew_part(rng, mats[party], 1e-6)
    with pytest.raises(ValueError, match=f"Gram {party} is not Hermitian"):
        gram_triple(*mats)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_gram_triple_tests_hermiticity_at_the_given_scale(rng, scale):
    """Built directly, a triple tests Hermiticity on its matrices as given,
    before their traces: a relative skew part of 1e-6 is rejected at any
    scale, and a Hermitian matrix passes on to the trace check."""
    unit = positive_gram(rng)
    skewed = scale * with_skew_part(rng, positive_gram(rng), 1e-6)
    herm = scale * with_skew_part(rng, positive_gram(rng), 0.1 * ZERO_TOL)
    with pytest.raises(ValueError, match="Gram 1 is not Hermitian"):
        GramTriple((unit, skewed, unit))
    with pytest.raises(ValueError, match="Gram 1 is not trace-normalized"):
        GramTriple((unit, herm, unit))


@pytest.mark.parametrize("scale", GRAM_SCALES)
def test_gram_triple_accepts_hermitian_within_tolerance(rng, scale):
    mats = [scale * with_skew_part(rng, positive_gram(rng), 0.1 * ZERO_TOL) for _ in range(3)]
    gt = gram_triple(*mats)
    for m, c in zip(gt.mats, gt.coords):
        assert np.trace(m).real == pytest.approx(1.0)
        np.testing.assert_allclose(c, pauli_coords(m)[1], atol=1e-15)


def test_gram_triple_coords_come_from_its_matrices(rng):
    """A triple derives its coordinates from its matrices, so it cannot hold
    coordinates that disagree with them: classify and sep_feasible read the
    coordinates, the oracle reads the matrices."""
    third = np.eye(3, dtype=complex) / 3
    coords = np.zeros((3, 8), dtype=complex)
    coords[0, :2] = 0.1
    with pytest.raises(TypeError):
        GramTriple((third, third, third), coords)
    mats = np.array([positive_gram(rng) for _ in range(3)])
    gt = GramTriple(tuple(mats))
    np.testing.assert_array_equal(gt.coords, pauli_coords(mats)[1])
    assert not gt.coords.flags.writeable


@pytest.mark.parametrize("scale", GRAM_SCALES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)])
@pytest.mark.parametrize("entry", [(1, 1), (0, 2)])
def test_gram_triple_rejects_non_finite(rng, scale, bad, entry):
    m = scale * positive_gram(rng)
    m[entry] = bad
    with pytest.raises(ValueError, match="Gram 1"):
        gram_triple(np.eye(3), m, np.eye(3))


@pytest.mark.parametrize("scale", GRAM_SCALES)
def test_gram_triple_rejects_non_positive_trace(rng, scale):
    for m in (-positive_gram(rng), np.diag([1.0, -1.0, 0.0]), np.zeros((3, 3))):
        with pytest.raises(ValueError, match="Gram 0 has non-positive trace"):
            gram_triple(scale * m, np.eye(3), np.eye(3))


# ---------------------------------------------------------------------------
# factor extraction
# ---------------------------------------------------------------------------


def test_positive_factor_identity():
    np.testing.assert_allclose(positive_factor(np.eye(3) / 3), np.eye(3) / np.sqrt(3), atol=RT_ATOL)


def test_positive_factor_diagonal():
    g = positive_factor(np.diag([0.25, 0.25, 0.5]))
    np.testing.assert_allclose(g, np.diag([0.5, 0.5, 1 / np.sqrt(2)]), atol=RT_ATOL)


def test_positive_factor_properties(rng):
    for _ in range(10):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = a @ dagger(a) + 0.05 * np.eye(3)
        g = positive_factor(m)
        np.testing.assert_allclose(g, dagger(g), atol=1e-12)
        assert np.linalg.eigvalsh(g).min() > 0
        np.testing.assert_allclose(dagger(g) @ g, m, atol=1e-12)
        np.testing.assert_allclose(g @ m, m @ g, atol=1e-11)


def test_positive_factor_rejects_indefinite():
    with pytest.raises(ValueError):
        positive_factor(np.diag([-0.1, 0.5, 0.6]))


def test_span_factor_identity():
    np.testing.assert_allclose(span_factor(np.eye(3) / 3, (1, 0)), np.eye(3) / np.sqrt(3), atol=RT_ATOL)


@pytest.mark.parametrize("w", [(1, 0), (0, 1), (1, 1), (1, 2)])
def test_span_factor_stays_in_span(w):
    m = np.eye(3) / 3 + 0.1 * (PAULIS[w] + dagger(PAULIS[w]))
    g = span_factor(m, w)
    np.testing.assert_allclose(dagger(g) @ g, m, atol=RT_ATOL)
    _, coords = pauli_coords(g)
    for pos, k in enumerate(COORD_ORDER):
        if k not in (w, idx_neg(w)):
            assert abs(coords[pos]) <= 1e-12


def test_span_factor_diagonal_for_phase_span():
    m = np.eye(3) / 3 + 0.05 * (PAULIS[(0, 1)] + dagger(PAULIS[(0, 1)]))
    g = span_factor(m, (0, 1))
    np.testing.assert_allclose(g, np.diag(np.diag(g)), atol=1e-12)


def test_span_factor_rejects_zero_direction():
    with pytest.raises(ValueError):
        span_factor(np.eye(3) / 3, (0, 0))


def test_span_factor_rejects_support_violation():
    m = np.eye(3) / 3 + 0.1 * (PAULIS[(1, 0)] + dagger(PAULIS[(1, 0)]))
    with pytest.raises(ValueError):
        span_factor(m, (0, 1))


def span_factor_by_eigenbasis(m, w):
    """The eigenbasis route to the span factor: diagonalize a Hermitian
    combination of ``S_w`` and ``S_wᴴ`` whose spectrum is nondegenerate
    (the pi/9 offset keeps its three cosines apart), keep the diagonal of
    ``m`` in that basis and take its entrywise root."""
    s = PAULIS[w]
    theta = np.angle((s @ s @ s)[0, 0]) / 3.0 + np.pi / 9.0
    _, u = np.linalg.eigh(np.exp(-1j * theta) * s + np.exp(1j * theta) * dagger(s))
    vals = np.diag(dagger(u) @ m @ u).real
    return (u * np.sqrt(vals)) @ dagger(u)


@pytest.mark.parametrize("w", COORD_ORDER)
@pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100, 1e200, 1e-200])
def test_span_factor_matches_eigenbasis_route(rng, w, scale):
    # |z| from exactly 0 through the near-degenerate 1e-12..1e-9 up to 0.15,
    # below the 1/6 at which I/3 + z S_w + conj(z) S_wᴴ stops being positive
    sizes = np.concatenate(
        ([0.0], 10.0 ** rng.uniform(-12, -9, 20), 10.0 ** rng.uniform(-9, np.log10(0.15), 40))
    )
    for size in sizes:
        z = size * np.exp(2j * np.pi * rng.uniform())
        m = scale * (np.eye(3) / 3 + z * PAULIS[w] + np.conj(z) * dagger(PAULIS[w]))
        g, ref = span_factor(m, w), span_factor_by_eigenbasis(m, w)
        assert np.linalg.norm(g - ref) <= 1e-14 * np.linalg.norm(ref), size
        commutator = g @ PAULIS[w] - PAULIS[w] @ g
        assert np.linalg.norm(commutator) <= 1e-14 * np.linalg.norm(g), size


@pytest.mark.parametrize(
    "m, w",
    [
        (np.eye(3) / 3 + 1e-6 * (PAULIS[(1, 1)] + dagger(PAULIS[(1, 1)])), (1, 0)),
        (1e200 * (np.eye(3) / 3 + 0.1 * (PAULIS[(1, 0)] + dagger(PAULIS[(1, 0)]))), (0, 1)),
        (1e-200 * (np.eye(3) / 3 + 0.1 * (PAULIS[(1, 0)] + dagger(PAULIS[(1, 0)]))), (0, 1)),
        (np.eye(3) / 3 + 0.05 * PAULIS[(0, 1)] + 0.02 * PAULIS[(0, 2)], (0, 1)),
        (np.eye(3) / 3 + 0.01j * np.eye(3), (1, 2)),
        (np.eye(3) / 3 + 0.5 * (PAULIS[(2, 1)] + dagger(PAULIS[(2, 1)])), (2, 1)),
    ],
    ids=[
        "slightly-off-span",
        "off-span-at-1e200",
        "off-span-at-1e-200",
        "non-hermitian-in-span",
        "non-hermitian-identity",
        "indefinite",
    ],
)
def test_span_factor_rejects(m, w):
    with pytest.raises(ValueError):
        span_factor(m, w)


@pytest.mark.parametrize("w", [(1, 0), (0, 1)])
@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_span_factor_refuses_a_rounding_level_trace(w, scale):
    """``S_(0,1) + S_(0,2)`` is traceless up to rounding (4.4e-16 +
    8.9e-16j).  It is refused for that trace, in or off the span, rather
    than with an off-span modulus of order 1e15 from dividing by it.  A
    non-finite matrix keeps its own refusal."""
    m = scale * (PAULIS[(0, 1)] + PAULIS[(0, 2)])
    with pytest.raises(ValueError, match="at the rounding of its norm"):
        span_factor(m, w)
    with pytest.raises(ValueError, match="not Hermitian"):
        span_factor(scale * np.diag([np.inf, 1.0, 1.0]), w)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-14, 1e-40, 1e-100, 1e100])
def test_span_factor_cut_is_scale_free(scale):
    """A matrix confined to the (1, 0) span is refused for the (0, 1) span
    at every scale, and a (0, 1)-confined one gets its factor, which
    scales as the root of the matrix."""
    off = np.eye(3) / 3 + 0.1 * (PAULIS[(1, 0)] + dagger(PAULIS[(1, 0)]))
    with pytest.raises(ValueError, match="not confined"):
        span_factor(scale * off, (0, 1))
    m = np.eye(3) / 3 + 0.1 * (PAULIS[(0, 1)] + dagger(PAULIS[(0, 1)]))
    np.testing.assert_allclose(
        span_factor(scale * m, (0, 1)), np.sqrt(scale) * span_factor(m, (0, 1)), rtol=1e-14
    )


@pytest.mark.parametrize("eps", [2.5e-10, 3e-10, 3.3e-10, 3.4e-10, 1e-9])
@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_span_factor_confines_where_the_classifier_does(eps, scale):
    """A matrix on one pair with a second pair of size ``eps`` near the
    support cut ``ZERO_TOL / 3`` gets a span factor for a direction exactly
    when :func:`support_pattern` puts its party inside that direction's
    pair: the two read one zero rule."""
    for w, v in itertools.permutations(PAIR_REPS, 2):
        m = scale * (pair_mat(w, 0.1) + eps * (PAULIS[v] + dagger(PAULIS[v])))
        support = support_pattern(gram_triple(m, m, m)).pairs[0]
        for d in COORD_ORDER:
            confined = support <= {pair_rep(d)}
            try:
                span_factor(m, d)
            except ValueError as exc:
                assert not confined and "not confined" in str(exc), (w, v, d)
            else:
                assert confined, (w, v, d)


# ---------------------------------------------------------------------------
# standard form and LU equivalence
# ---------------------------------------------------------------------------


def assert_same_standard_form(first, second):
    """The two gauge-fixed coordinate tables agree entrywise to
    ``STD_COMPARE_ATOL``; their gauges may differ, since a gauge depends on
    the gauge of the input."""
    assert first.seed == second.seed
    np.testing.assert_allclose(first.coords, second.coords, rtol=0, atol=STD_COMPARE_ATOL)


def test_standard_form_of_seed_state(seed_state):
    sf = standard_form(seed_state)
    np.testing.assert_allclose(sf.coords, np.zeros((3, 8)), atol=1e-12)
    assert sf.gauge == (0, 0)


def test_standard_form_idempotent(params, rng):
    """Rebuilding a state from its own standard form changes nothing."""
    st = GenericState(params, random_factors(rng))
    sf = standard_form(st)
    from qutritlocc.pauli import from_coords

    rebuilt_factors = tuple(
        positive_factor(from_coords(1 / 3, sf.coords[i])) for i in range(3)
    )
    again = standard_form(GenericState(params, rebuilt_factors))
    assert_same_standard_form(sf, again)


def window_gauges(coords):
    """Positions in ``INDEX_ORDER`` of the gauges whose variant puts the
    first supported entry, and the first supported entry off its negation
    line, in the phase window, found by scanning the flat table."""
    flat = coords.ravel()
    support = [pos for pos in range(24) if abs(flat[pos]) > STD_SUPPORT_TOL]
    fixers = support[:1]
    if support:
        k = COORD_ORDER[support[0] % 8]
        fixers += [pos for pos in support if COORD_ORDER[pos % 8] not in (k, idx_neg(k))][:1]
    return [
        g
        for g in range(9)
        if all(
            (np.angle(flat[p] * CONJ_TABLE[1 + p % 8, g]) + STD_WINDOW_SNAP) % (2 * np.pi)
            < 2 * np.pi / 3
            for p in fixers
        )
    ]


def test_gauge_pick_is_the_first_window_gauge_on_degenerate_supports():
    """Tables with whole coordinate lines zeroed, exactly or below the
    support cut, leave several gauges in the window.  The pick is the
    first of them, and every other one gives a table within twice the
    support cut of it, so no comparison depends on the pick."""
    rng = np.random.default_rng(19)
    several = 0
    for _ in range(2800):
        coords = 0.1 * (rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8)))
        for party, ln in zip(*np.nonzero(rng.random((3, 4)) < 0.75)):
            level = rng.choice([0.0, 1e-13, 3e-11])
            coords[party, 2 * ln : 2 * ln + 2] *= level
        table, gauge = standardize_coords(coords)
        gauges = window_gauges(coords)
        assert gauge == INDEX_ORDER[gauges[0]]
        assert np.array_equal(table, coords * CONJ_TABLE[1:, gauges[0]])
        for g in gauges[1:]:
            assert np.abs(coords * CONJ_TABLE[1:, g] - table).max() <= 2 * STD_SUPPORT_TOL
        several += len(gauges) > 1
    assert several >= 300


def test_standard_form_unitary_dressing_invariance(params, rng):
    mats = random_factors(rng)
    st = GenericState(params, mats)
    us = random_unitaries(rng)
    dressed = GenericState(params, tuple(u @ m for u, m in zip(us, mats)))
    assert_same_standard_form(standard_form(st), standard_form(dressed))


def test_standard_form_symmetry_conjugation_invariance(params, rng):
    mats = random_factors(rng)
    st = GenericState(params, mats)
    for k in INDEX_ORDER:
        conj = GenericState(params, tuple(m @ PAULIS[k] for m in mats))
        assert_same_standard_form(standard_form(st), standard_form(conj))


def test_standard_form_rescale_invariance(params, rng):
    mats = random_factors(rng)
    st = GenericState(params, mats)
    scaled = GenericState(params, (2.7 * mats[0], mats[1], 0.3 * mats[2]))
    assert_same_standard_form(standard_form(st), standard_form(scaled))


def test_lu_equivalent_positive_and_negative(params, rng):
    mats = random_factors(rng)
    st = GenericState(params, mats)
    assert lu_equivalent(st, st)
    us = random_unitaries(rng)
    assert lu_equivalent(st, GenericState(params, tuple(u @ m for u, m in zip(us, mats))))
    stretched = GenericState(params, (np.diag([1.0, 1.0, 2.0]) @ mats[0], mats[1], mats[2]))
    assert not lu_equivalent(st, stretched)


def test_lu_equivalent_rejects_seed_mismatch(params, rng):
    other = SeedParams(2, 3, 5)
    s1 = GenericState(params, random_factors(rng))
    s2 = GenericState(other, random_factors(rng))
    with pytest.raises(SeedMismatchError):
        lu_equivalent(s1, s2)


# ---------------------------------------------------------------------------
# party permutations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("perm", [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)])
def test_permute_state_matches_vector_permutation(params, rng, perm):
    st = GenericState(params, random_factors(rng))
    np.testing.assert_allclose(
        assemble(permute_state(st, perm)),
        permute_vector(assemble(st), perm),
        atol=1e-12,
    )


def test_transposition_swaps_bc(params, rng):
    st = GenericState(params, random_factors(rng))
    sw = permute_state(st, (0, 2, 1))
    assert sw.seed.b == pytest.approx(st.seed.c)
    assert sw.seed.c == pytest.approx(st.seed.b)
    cyc = permute_state(st, (1, 2, 0))
    assert cyc.seed.close_to(st.seed)


# ---------------------------------------------------------------------------
# ray distance
# ---------------------------------------------------------------------------


def test_ray_distance_phase_invariant(rng):
    v = rng.normal(size=27) + 1j * rng.normal(size=27)
    assert ray_distance(v, np.exp(1.3j) * v) <= 1e-12
    assert ray_distance(v, 4.2 * v) <= 1e-12


def test_ray_distance_orthogonal():
    u = np.zeros(27, dtype=complex)
    v = np.zeros(27, dtype=complex)
    u[0] = 1.0
    v[1] = 1.0
    assert ray_distance(u, v) == pytest.approx(np.sqrt(2))


def test_ray_distance_keeps_small_digits():
    # a 1e-9 orthogonal kick must come back as 1e-9, not sqrt-amplified noise
    u = np.zeros(27, dtype=complex)
    u[0] = 1.0
    v = u.copy()
    v[1] = 1e-9
    assert ray_distance(u, v) == pytest.approx(1e-9, rel=1e-6)
