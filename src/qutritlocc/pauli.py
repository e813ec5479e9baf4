"""Generalized Pauli (Weyl-Heisenberg) algebra for a single qutrit.

The nine displacement operators ``S_k = X^k1 Z^k2`` with ``k = (k1, k2)``
ranging over Z3 x Z3 form an orthogonal basis of the 3x3 complex matrices
(``tr(S_k^dag S_l) = 3 delta_kl``) and, applied to all three parties at
once, the full local symmetry group of the generic three-qutrit seed
states.  The one phase relation the package needs, the conjugation phase
``S_l^dag S_k S_l = c S_k``, is computed numerically from the matrices at
import time into :data:`CONJ_TABLE` and checked against its defining
identity, together with the orthogonality of the basis; nothing is
hard-coded.
"""

from __future__ import annotations

import math

import numpy as np

OMEGA = np.exp(2j * np.pi / 3)

#: Canonical enumeration of Z3 x Z3 used for every 9-component object in the
#: package (probability vectors, depolarization spectra, vertex labels).
#: The zero index comes first; the remaining eight positions keep negation
#: partners adjacent: positions (1,2), (3,4), (5,6), (7,8) are the pairs
#: {k, -k} for k = (1,0), (0,1), (1,1), (2,1) respectively.
INDEX_ORDER: tuple[tuple[int, int], ...] = (
    (0, 0),
    (1, 0), (2, 0),
    (0, 1), (0, 2),
    (1, 1), (2, 2),
    (2, 1), (1, 2),
)

#: The eight nonzero indices, in the order used for coordinate vectors.
COORD_ORDER: tuple[tuple[int, int], ...] = INDEX_ORDER[1:]

INDEX_POS = {k: i for i, k in enumerate(INDEX_ORDER)}

#: One representative per negation pair {k, -k} of the nonzero indices.
PAIR_REPS: tuple[tuple[int, int], ...] = ((1, 0), (0, 1), (1, 1), (1, 2))


def idx_add(k: tuple[int, int], l: tuple[int, int]) -> tuple[int, int]:
    """Add two group indices modulo 3."""
    return ((k[0] + l[0]) % 3, (k[1] + l[1]) % 3)


def idx_neg(k: tuple[int, int]) -> tuple[int, int]:
    """Negate a group index modulo 3."""
    return ((-k[0]) % 3, (-k[1]) % 3)


def pair_rep(k: tuple[int, int]) -> tuple[int, int]:
    """Canonical representative of the negation pair {k, -k} (k nonzero)."""
    if k == (0, 0):
        raise ValueError("the zero index has no negation pair")
    return k if k in PAIR_REPS else idx_neg(k)


# The two generators.  X is the cyclic shift with X|j> = |j-1 mod 3>,
# Z multiplies |j> by omega^j.
X = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
Z = np.diag([1.0 + 0j, OMEGA, OMEGA**2])


def pauli_matrix(k: tuple[int, int]) -> np.ndarray:
    """The displacement operator ``X^k1 Z^k2`` as a fresh 3x3 array."""
    m = np.linalg.matrix_power(X, k[0] % 3) @ np.linalg.matrix_power(Z, k[1] % 3)
    return np.ascontiguousarray(m)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


#: Cache of all nine operators, keyed by index.  Read-only arrays.
PAULIS: dict[tuple[int, int], np.ndarray] = {
    k: _frozen(pauli_matrix(k)) for k in INDEX_ORDER
}


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def frob(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def _conj_table() -> np.ndarray:
    """``conj[k, l]``: the phase c with ``S_l^dag S_k S_l = c S_k``."""
    conj = np.zeros((9, 9), dtype=complex)
    for i, k in enumerate(INDEX_ORDER):
        sk = PAULIS[k]
        for j, l in enumerate(INDEX_ORDER):
            sl = PAULIS[l]
            conj[i, j] = np.trace(dagger(sk) @ dagger(sl) @ sk @ sl) / 3.0
    return _frozen(conj)


#: The conjugation phases as a read-only 9x9 table over INDEX_ORDER:
#: ``CONJ_TABLE[i, j]`` is the phase c with ``S_l^dag S_k S_l = c S_k`` for
#: ``k = INDEX_ORDER[i]``, ``l = INDEX_ORDER[j]``, always a cube root of
#: unity.  Row l is the character ``k -> phase(l, k)`` of Z3 x Z3, so
#: ``CONJ_TABLE @ p`` is the depolarization spectrum of a distribution p:
#: depolarizing by p multiplies displacement coordinate l by its entry l.
CONJ_TABLE = _conj_table()


def _check_tables() -> None:
    """Assert the conjugation identity and the orthogonality of the basis
    (import-time)."""
    for i, k in enumerate(INDEX_ORDER):
        sk = PAULIS[k]
        for j, l in enumerate(INDEX_ORDER):
            sl = PAULIS[l]
            r = np.linalg.norm(dagger(sl) @ sk @ sl - CONJ_TABLE[i, j] * sk)
            if r > 1e-12:
                raise RuntimeError(f"conjugation phase identity failed for {k},{l}: {r}")
            g = np.trace(dagger(sk) @ sl) / 3.0
            want = 1.0 if i == j else 0.0
            if abs(g - want) > 1e-12:
                raise RuntimeError(f"orthogonality failed for {k},{l}: {g}")


_check_tables()


# ---------------------------------------------------------------------------
# Matrix predicates
# ---------------------------------------------------------------------------

#: The package's zero tolerance: relative cut for Hermiticity,
#: invertibility and positivity of factors, the default support cut of the
#: structural classifier and the default residual bound of the SEP decision.
ZERO_TOL = 1e-9


def is_hermitian(m: np.ndarray) -> bool:
    """Whether ``||m - mᴴ|| <= ZERO_TOL ||m||`` (Frobenius), scale-invariantly
    like :func:`is_invertible`.  Non-finite matrices are not Hermitian."""
    m = scaled_into_range(m)
    norm2 = abs(np.vdot(m, m))
    if not math.isfinite(norm2):
        return False
    skew = m - dagger(m)
    return bool(abs(np.vdot(skew, skew)) <= ZERO_TOL**2 * norm2)


def scaled_into_range(m: np.ndarray) -> np.ndarray:
    """``m``, or ``m`` rescaled exactly when its scale is extreme.

    When the squared Frobenius norm of ``m`` lies outside [1e-150, 1e150],
    products of three entries such as ``det m`` or the entries of ``mᴴm``
    could over- or underflow; ``m`` is then multiplied by the power of two
    that puts its largest |entry| in [0.5, 1).  Scaling by a power of two
    is exact, so the result carries ``m``'s own digits.  A zero or
    non-finite ``m`` is returned unscaled.
    """
    m = np.asarray(m)
    if 1e-150 <= abs(np.vdot(m, m)) <= 1e150:
        return m
    m = np.ascontiguousarray(m, dtype=complex)
    exponent = math.frexp(np.abs(m).max())[1]
    return np.ldexp(m.view(float), -exponent).view(complex)


def is_invertible(m: np.ndarray) -> bool:
    """Whether ``|det m|`` clears the zero tolerance at the matrix's scale.

    The test is scale-invariant, as states are rays: it runs on
    :func:`scaled_into_range` of ``m``, which gives the verdict of ``m``
    itself at any scale.  Non-finite matrices are not invertible.
    """
    m = scaled_into_range(m)
    norm2 = abs(np.vdot(m, m))
    if not math.isfinite(norm2):
        return False
    return bool(abs(np.linalg.det(m)) > ZERO_TOL * (norm2 / 3.0) ** 1.5)


# ---------------------------------------------------------------------------
# Coordinates in the displacement basis
# ---------------------------------------------------------------------------

def pauli_coords(m: np.ndarray) -> tuple[complex, np.ndarray]:
    """Expand a 3x3 matrix in the displacement basis.

    Returns ``(g0, g)`` with ``g0 = tr(m)/3`` and ``g`` the eight
    coefficients ``tr(S_k^dag m)/3`` for nonzero ``k`` in coordinate order,
    so that ``m = g0 I + sum_k g[k] S_k``.
    """
    g0 = complex(np.trace(m) / 3.0)
    g = np.array([np.trace(dagger(PAULIS[k]) @ m) / 3.0 for k in COORD_ORDER])
    return g0, g


def from_coords(g0: complex, g: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pauli_coords`."""
    m = g0 * np.eye(3, dtype=complex)
    for i, k in enumerate(COORD_ORDER):
        m = m + g[i] * PAULIS[k]
    return m


# ---------------------------------------------------------------------------
# Three-party helpers
# ---------------------------------------------------------------------------

def kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Kronecker product of three 3x3 matrices (27x27)."""
    return np.kron(np.kron(a, b), c)


def apply3(a: np.ndarray, b: np.ndarray, c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply ``a (x) b (x) c`` to a 27-component vector without forming kron3."""
    t = v.reshape(3, 3, 3)
    out = np.einsum("ai,bj,ck,ijk->abc", a, b, c, t)
    return out.reshape(27)
