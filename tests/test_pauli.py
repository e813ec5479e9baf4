import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qutritlocc.pauli import (
    CONJ_TABLE,
    COORD_ORDER,
    INDEX_ORDER,
    INDEX_POS,
    OMEGA,
    PAIR_REPS,
    PAULIS,
    ZERO_TOL,
    X,
    Z,
    _apply_local,
    dagger,
    from_coords,
    idx_add,
    idx_neg,
    is_hermitian,
    is_invertible,
    kron3,
    pair_rep,
    pauli_coords,
    pauli_matrix,
    scaled_into_range,
)

ATOL = 1e-12

# positions of the negation partner of each COORD_ORDER entry
COORD_POS_NEG = tuple(pos + 1 if pos % 2 == 0 else pos - 1 for pos in range(8))


def table_phase(k, l):
    """Entry (k, l) of CONJ_TABLE, by group index."""
    return complex(CONJ_TABLE[INDEX_POS[k], INDEX_POS[l]])


finite_reals = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
real_3x3 = arrays(np.float64, (3, 3), elements=finite_reals)
scales = st.sampled_from([1.0, 1e-200, 1e200])


def ulps(m, n):
    """``n`` rounding errors at the scale of ``m`` (at least the smallest
    normal number: dividing a subnormal entry by 3 may round it to zero)."""
    return n * np.finfo(float).eps * np.abs(m).max() + np.finfo(float).tiny


def per_trace_coords(m):
    """The definition: ``tr(S_kᴴ m)/3`` for every k in INDEX_ORDER."""
    return np.array([np.trace(dagger(PAULIS[k]) @ m) / 3.0 for k in INDEX_ORDER])


def test_canonical_index_order():
    # The fixed enumeration everything else keys on: zero index first,
    # then negation partners adjacent.
    assert INDEX_ORDER == (
        (0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 2), (2, 1), (1, 2),
    )
    assert COORD_ORDER == INDEX_ORDER[1:]
    for pos in range(0, 8, 2):
        assert COORD_ORDER[pos + 1] == idx_neg(COORD_ORDER[pos])
    assert PAIR_REPS == ((1, 0), (0, 1), (1, 1), (1, 2))
    assert {pair_rep(k) for k in COORD_ORDER} == set(PAIR_REPS)


def test_index_arithmetic():
    assert idx_add((1, 2), (2, 2)) == (0, 1)
    assert idx_neg((0, 0)) == (0, 0)
    assert idx_neg((1, 2)) == (2, 1)
    assert pair_rep((2, 0)) == (1, 0)
    assert pair_rep((2, 2)) == (1, 1)


def test_generator_matrices():
    np.testing.assert_allclose(
        X, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex), atol=0
    )
    np.testing.assert_allclose(Z, np.diag([1.0, OMEGA, OMEGA**2]), atol=ATOL)
    # X shifts |j> -> |j-1 mod 3>
    e1 = np.zeros(3, dtype=complex)
    e1[1] = 1.0
    np.testing.assert_allclose(X @ e1, [1, 0, 0], atol=0)


def test_pauli_matrix_powers():
    np.testing.assert_allclose(pauli_matrix((0, 0)), np.eye(3), atol=0)
    for k1, k2 in INDEX_ORDER:
        expected = np.linalg.matrix_power(X, k1) @ np.linalg.matrix_power(Z, k2)
        np.testing.assert_allclose(pauli_matrix((k1, k2)), expected, atol=ATOL)


def test_commutation():
    np.testing.assert_allclose(X @ Z, OMEGA * (Z @ X), atol=ATOL)


def test_orthogonality():
    for k in INDEX_ORDER:
        for l in INDEX_ORDER:
            ip = np.trace(dagger(PAULIS[k]) @ PAULIS[l])
            expected = 3.0 if k == l else 0.0
            assert abs(ip - expected) <= ATOL


def test_conj_phase_values():
    for k in INDEX_ORDER:
        assert abs(table_phase(k, (0, 0)) - 1.0) <= ATOL
    assert abs(table_phase((1, 0), (0, 1)) - OMEGA) <= ATOL
    assert abs(table_phase((0, 1), (1, 0)) - OMEGA**2) <= ATOL


def test_conj_phase_defining_identity():
    """Entry (k, l) of the read-only CONJ_TABLE is the phase picked up by
    S_k under conjugation by S_l."""
    assert not CONJ_TABLE.flags.writeable
    for i, k in enumerate(INDEX_ORDER):
        for j, l in enumerate(INDEX_ORDER):
            lhs = dagger(PAULIS[l]) @ PAULIS[k] @ PAULIS[l]
            np.testing.assert_allclose(lhs, CONJ_TABLE[i, j] * PAULIS[k], atol=ATOL)


def test_conj_phase_additivity():
    for l, m, k in itertools.product(INDEX_ORDER, repeat=3):
        got = table_phase(l, k) * table_phase(m, k)
        assert abs(got - table_phase(idx_add(l, m), k)) <= ATOL


def test_conj_phase_exponent_formula():
    # The phase is omega^(k1*l2 - k2*l1), the symplectic form on Z_3^2.
    for k in INDEX_ORDER:
        for l in INDEX_ORDER:
            e = (k[0] * l[1] - k[1] * l[0]) % 3
            assert abs(table_phase(k, l) - OMEGA**e) <= ATOL


def test_coords_of_identity():
    g0, g = pauli_coords(np.eye(3) / 3)
    assert abs(g0 - 1 / 3) <= ATOL
    np.testing.assert_allclose(g, np.zeros(8), atol=ATOL)


def test_coords_of_shift_span():
    m = np.eye(3) / 3 + 0.1 * (PAULIS[(1, 0)] + PAULIS[(2, 0)])
    g0, g = pauli_coords(m)
    assert abs(g0 - 1 / 3) <= ATOL
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[1] = 0.1
    np.testing.assert_allclose(g, expected, atol=ATOL)


def test_coords_hermitian_pairing(rng):
    """Hermitian matrices have coordinates tied across negation partners."""
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a + dagger(a)
    _, g = pauli_coords(m)
    for pos, k in enumerate(COORD_ORDER):
        npos = COORD_POS_NEG[pos]
        got = g[pos]
        # the phase c with S_{-k}^dag = c S_k
        phase = np.trace(dagger(PAULIS[k]) @ dagger(PAULIS[idx_neg(k)])) / 3
        expected = np.conj(g[npos]) * phase
        assert abs(got - expected) <= 1e-10


@settings(max_examples=60)
@given(re=real_3x3, im=real_3x3, scale=scales)
def test_coords_round_trip(re, im, scale):
    m = scale * (re + 1j * im)
    tol = ulps(m, 16)
    g0, g = pauli_coords(m)
    np.testing.assert_allclose(from_coords(g0, g), m, rtol=0, atol=tol)
    c0, c = pauli_coords(from_coords(g0, g))
    np.testing.assert_allclose(c, g, rtol=0, atol=tol)
    assert abs(c0 - g0) <= tol


@settings(max_examples=60)
@given(re=real_3x3, im=real_3x3, scale=scales)
def test_coords_match_per_trace_definition(re, im, scale):
    m = scale * (re + 1j * im)
    g0, g = pauli_coords(m)
    assert isinstance(g0, complex)
    tol = ulps(m, 4)
    np.testing.assert_allclose(np.concatenate(([g0], g)), per_trace_coords(m), rtol=0, atol=tol)
    # a stack gives each matrix's own coordinates
    g0s, gs = pauli_coords(np.stack([m.T, m]))
    assert g0s[1] == g0 and np.array_equal(gs[1], g)
    np.testing.assert_allclose(gs[0], per_trace_coords(m.T)[1:], rtol=0, atol=tol)


@settings(max_examples=60)
@given(re=real_3x3, im=real_3x3, skew=st.sampled_from([0.0, 1e-11, 1e-7, 1.0]))
def test_is_hermitian_of_a_stack_is_per_matrix(re, im, skew):
    """A stack gets each matrix's own verdict, whatever the scales and the
    entries of the others, and a matrix's verdict is the same at every scale."""
    a = re + 1j * im
    herm, anti = a + dagger(a), skew * (a - dagger(a))
    m = herm + anti
    ratio = np.linalg.norm(2 * anti) / max(np.linalg.norm(m), 1e-300)
    assume(abs(ratio / ZERO_TOL - 1.0) > 1e-6)  # at the cut, rounding decides
    bad = m.copy()
    bad[0, 1] = np.nan
    stack = np.stack([1e200 * m, m, 1e-200 * m, bad, np.zeros((3, 3))])
    verdicts = is_hermitian(stack)
    assert verdicts.shape == (5,)
    assert list(verdicts) == [is_hermitian(x) for x in stack]
    assert list(verdicts) == [bool(ratio <= ZERO_TOL)] * 3 + [False, True]


def per_matrix_invertible(m):
    """The one-matrix rule: ``|det|`` against ``ZERO_TOL (||m||^2 / 3)^1.5``
    on the matrix rescaled into range."""
    m = scaled_into_range(m)
    norm2 = abs(np.vdot(m, m))
    return bool(np.isfinite(norm2) and abs(np.linalg.det(m)) > ZERO_TOL * (norm2 / 3.0) ** 1.5)


@settings(max_examples=60)
@given(re=real_3x3, im=real_3x3, shrink=st.sampled_from([1.0, 1e-4, 1e-9, 1e-14]))
def test_is_invertible_of_a_stack_is_per_matrix(re, im, shrink):
    """A stack gets each matrix's own verdict, the one-matrix rule's,
    whatever the scales and the entries of the others, and a matrix's
    verdict is the same at scales 1 and 1e+-200.  Singular, zero and
    non-finite members are never invertible."""
    m = re + 1j * im
    m[2] = shrink * m[2] + m[0] + m[1]  # shrink -> 0 makes m singular
    norm2 = abs(np.vdot(m, m))
    ratio = abs(np.linalg.det(m)) / max((norm2 / 3.0) ** 1.5, 1e-300)
    assume(abs(ratio / ZERO_TOL - 1.0) > 1e-6)  # at the cut, rounding decides
    singular = np.stack([m[0], m[1], m[0] - m[1]])
    members = [1e200 * m, m, 1e-200 * m, singular, 1e200 * singular, np.zeros((3, 3))]
    for bad in (np.nan, np.inf, -np.inf):
        odd = m.copy()
        odd[1, 2] = bad
        members.append(odd)
    stack = np.stack(members)
    with np.errstate(divide="raise", over="raise", invalid="raise"):  # no warning
        verdicts = is_invertible(stack)
    assert verdicts.shape == (len(members),)
    assert list(verdicts) == [per_matrix_invertible(x) for x in stack]
    assert list(verdicts) == [bool(norm2 > 0 and ratio > ZERO_TOL)] * 3 + [False] * 6
    grid = is_invertible(stack.reshape(3, 3, 3, 3))
    assert grid.tolist() == np.reshape(verdicts, (3, 3)).tolist()


def test_kron3_diagonal():
    a, b, c = np.diag([1.0, 2, 3]), np.diag([1.0, 1, 1]), np.diag([2.0, 1, 1])
    k = kron3(a, b, c)
    assert k.shape == (27, 27)
    np.testing.assert_allclose(np.diag(k)[:3], [2, 1, 1], atol=0)
    np.testing.assert_allclose(np.diag(k)[9:12], [4, 2, 2], atol=0)


def test_kron3_is_bit_identical_to_nested_kron(rng):
    """Real and complex factors at scales 1, 1e150 and 1e+-200 (where the
    products overflow and underflow), strided views, nested lists and
    stacks ``(n, 3, 3)``, where each slice is the product of its own
    three factors."""
    def draw():
        m = rng.normal(size=(3, 3))
        return m + 1j * rng.normal(size=(3, 3)) if rng.integers(2) else m

    big = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    cases = [
        [draw() * scale for scale in rng.choice([1.0, 1e150, 1e200, 1e-200], size=3)]
        for _ in range(400)
    ]
    cases.append([big[::2, ::2], big[1::2, ::2].T, big.real[:3, 3:]])
    cases.append([m.tolist() for m in cases[0]])
    cases.append([PAULIS[(1, 2)], np.eye(3), np.diag([1.0, 2.0, 3.0]).tolist()])
    with np.errstate(all="ignore"):
        for a, b, c in cases:
            got, ref = kron3(a, b, c), np.kron(np.kron(a, b), c)
            assert got.dtype == ref.dtype and got.shape == (27, 27)
            assert got.tobytes() == ref.tobytes()
        stacks = [np.array(factors) for factors in zip(*cases[:400])]
        got = kron3(*stacks)
        assert got.shape == (400, 27, 27)
        for a, b, c, slice_ in zip(*stacks, got):
            assert slice_.tobytes() == np.kron(np.kron(a, b), c).tobytes()


def test_apply_local_identity(rng):
    v = rng.normal(size=(2, 3, 3, 3)) + 1j * rng.normal(size=(2, 3, 3, 3))
    got = _apply_local(np.broadcast_to(np.eye(3), (1, 3, 3, 3)), v)
    np.testing.assert_allclose(got, v, atol=0)


def test_apply_local_matches_kron3(rng):
    """Each vector under each outcome's operator, outcomes varying fastest."""
    ops = rng.normal(size=(4, 3, 3, 3)) + 1j * rng.normal(size=(4, 3, 3, 3))
    v = rng.normal(size=(2, 27)) + 1j * rng.normal(size=(2, 27))
    got = _apply_local(ops, v.reshape(2, 3, 3, 3)).reshape(2, 4, 27)
    for n, o in itertools.product(range(2), range(4)):
        np.testing.assert_allclose(got[n, o], kron3(*ops[o]) @ v[n], atol=1e-12)


def test_predicates():
    assert is_hermitian(np.eye(3))
    assert not is_hermitian(np.eye(3) + 0.001j * np.diag([0, 1, 0]) @ X)
    assert is_invertible(np.diag([1e-3, 1.0, 1.0]))
    assert not is_invertible(np.diag([0.0, 1.0, 1.0]))


SCALES = [1e120, 1e-120, 1e150, 1e-150, 1e200, 1e-200, 1e300, 1e-300]


@pytest.mark.parametrize("c", SCALES)
def test_is_invertible_is_scale_invariant(rng, c):
    """States are rays: scaling a factor must not change whether it is
    invertible, even where det and the Frobenius norm over- or underflow."""
    dense = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for m in (dense, np.diag([1e-3, 1.0, 1.0]), np.diag([0.0, 1.0, 1.0])):
        assert is_invertible(c * m) == is_invertible(m)
    assert is_invertible(c * dense)


@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_hermitian_and_positive_definite_are_scale_invariant(c):
    """At 1e200 the Frobenius norms overflow and the check would read
    ``inf <= inf``; at 1e-200 they underflow to 0 <= 0.  Either way a
    non-Hermitian matrix must stay non-Hermitian."""
    skew = np.array([[1.0, 2.0], [0.0, 1.0]])
    lopsided = np.array([[1.0, 0.5], [0.0, 1.0]])
    herm = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
    indefinite = np.diag([-0.1, 1.0, 2.0])
    assert not is_hermitian(c * skew)
    assert not is_hermitian(c * lopsided)
    assert is_hermitian(c * herm)
    assert is_hermitian(c * indefinite)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_matrix_is_not_hermitian(bad):
    m = np.eye(3, dtype=complex)
    m[1, 1] = bad
    assert not is_hermitian(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_matrix_is_not_invertible(bad):
    m = np.eye(3, dtype=complex)
    m[1, 2] = bad
    assert not is_invertible(m)
