"""Generalized Pauli (Weyl-Heisenberg) algebra for a single qutrit.

The nine displacement operators ``S_k = X^k1 Z^k2`` with ``k = (k1, k2)``
ranging over Z3 x Z3 form an orthogonal basis of the 3x3 complex matrices
(``tr(S_k^dag S_l) = 3 delta_kl``) and, applied to all three parties at
once, the full local symmetry group of the generic three-qutrit seed
states.  The one phase relation the package needs, the conjugation phase
``S_l^dag S_k S_l = c S_k``, is computed numerically from the matrices at
import time into :data:`CONJ_TABLE` and checked against its defining
identity, together with the orthogonality of the basis; nothing is
hard-coded.  Coordinates in the basis are contractions with the stacked
operators :data:`BASIS`.
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
    return np.linalg.matrix_power(X, k[0] % 3) @ np.linalg.matrix_power(Z, k[1] % 3)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


#: The nine operators stacked in INDEX_ORDER, shape (9, 3, 3), read-only.
BASIS = _frozen(np.array([pauli_matrix(k) for k in INDEX_ORDER]))

#: The same operators keyed by index: read-only views into BASIS.
PAULIS: dict[tuple[int, int], np.ndarray] = dict(zip(INDEX_ORDER, BASIS))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _coords(m: np.ndarray) -> np.ndarray:
    """The nine ``tr(S_k^dag m)/3`` of each matrix of a stack ``(..., 3, 3)``.

    Summing over rows, then columns, adds the terms in the order of
    ``np.trace(S_k^dag @ m)``, so the coefficients are the per-trace ones."""
    return (BASIS.conj() * np.asarray(m)[..., None, :, :]).sum(axis=-2).sum(axis=-1) / 3.0


def _conj_table() -> np.ndarray:
    """``conj[k, l] = tr(S_k^dag S_l^dag S_k S_l)/3``: the phase c with
    ``S_l^dag S_k S_l = c S_k``."""
    dag = BASIS.conj().transpose(0, 2, 1)
    products = dag[:, None] @ dag @ BASIS[:, None] @ BASIS
    return _frozen(np.trace(products, axis1=-2, axis2=-1) / 3.0)


#: The conjugation phases as a read-only 9x9 table over INDEX_ORDER:
#: ``CONJ_TABLE[i, j]`` is the phase c with ``S_l^dag S_k S_l = c S_k`` for
#: ``k = INDEX_ORDER[i]``, ``l = INDEX_ORDER[j]``, always a cube root of
#: unity.  Row l is the character ``k -> phase(l, k)`` of Z3 x Z3, so
#: ``CONJ_TABLE @ p`` is the depolarization spectrum of a distribution p:
#: depolarizing by p multiplies displacement coordinate l by its entry l.
CONJ_TABLE = _conj_table()


#: Largest error the import-time check of the tables allows.
TABLE_CHECK_TOL = 1e-12


def _check_tables() -> None:
    """Assert the conjugation identity and the orthogonality of the basis
    (import-time)."""
    conjugated = BASIS.conj().transpose(0, 2, 1) @ BASIS[:, None] @ BASIS  # [k, l]: S_lᴴ S_k S_l
    phase = np.linalg.norm(conjugated - CONJ_TABLE[..., None, None] * BASIS[:, None], axis=(2, 3))
    overlap = np.abs(_coords(BASIS) - np.eye(9))
    for name, err in (("conjugation phase identity", phase), ("orthogonality", overlap)):
        i, j = np.unravel_index(np.argmax(err), err.shape)
        if err[i, j] > TABLE_CHECK_TOL:
            raise RuntimeError(f"{name} failed for {INDEX_ORDER[i]},{INDEX_ORDER[j]}: {err[i, j]}")


_check_tables()


# ---------------------------------------------------------------------------
# Matrix predicates
# ---------------------------------------------------------------------------

#: The package's zero tolerance: relative cut for Hermiticity,
#: invertibility and positivity of factors, the default support cut of the
#: structural classifier and the default residual bound of the SEP decision.
ZERO_TOL = 1e-9

#: Floor on the scale that multiplies a relative cut, so the cut stays
#: positive, and a product of norms stays nonzero, for a zero matrix.
NORM_FLOOR = 1e-300

#: Squared Frobenius norms inside ``[SAFE_NORM2_MIN, SAFE_NORM2_MAX]`` keep
#: products of three entries clear of over- and underflow.
SAFE_NORM2_MIN, SAFE_NORM2_MAX = 1e-150, 1e150


def is_hermitian(m: np.ndarray) -> bool | np.ndarray:
    """Whether ``||m - mᴴ|| <= ZERO_TOL ||m||`` (Frobenius), for one matrix
    or for each matrix of a stack ``(..., n, n)``.

    Each nonzero matrix is divided by its largest |entry| first, so the test
    is scale-invariant like :func:`is_invertible`; a non-finite matrix turns
    to NaN there and is not Hermitian."""
    m = np.asarray(m)
    with np.errstate(invalid="ignore"):
        u = m / np.maximum(np.abs(m).max(axis=(-2, -1), keepdims=True), np.finfo(float).tiny)
    skew = u - np.swapaxes(u, -2, -1).conj()
    norm2 = lambda a: (a * a.conj()).real.sum(axis=(-2, -1))
    verdict = norm2(skew) <= ZERO_TOL**2 * norm2(u)
    return verdict if verdict.ndim else bool(verdict)


def scaled_into_range(m: np.ndarray) -> np.ndarray:
    """``m``, or ``m`` rescaled exactly when its scale is extreme.

    When the squared Frobenius norm of ``m`` lies outside
    [:data:`SAFE_NORM2_MIN`, :data:`SAFE_NORM2_MAX`] (1e-150 and 1e150),
    products of three entries such as ``det m`` or the entries of ``mᴴm``
    could over- or underflow; ``m`` is then multiplied by the power of two
    that puts its largest |entry| in [0.5, 1).  Scaling by a power of two
    is exact, so the result carries ``m``'s own digits.  A zero or
    non-finite ``m`` is returned unscaled.
    """
    m = np.asarray(m)
    if SAFE_NORM2_MIN <= abs(np.vdot(m, m)) <= SAFE_NORM2_MAX:
        return m
    m = np.ascontiguousarray(m, dtype=complex)
    exponent = math.frexp(np.abs(m).max())[1]
    return np.ldexp(m.view(float), -exponent).view(complex)


def is_invertible(m: np.ndarray) -> bool | np.ndarray:
    """Whether ``|det m|`` clears the zero tolerance at the matrix's scale,
    for one matrix or for each matrix of a stack ``(..., n, n)``.

    The test is scale-invariant, as states are rays: a matrix whose squared
    Frobenius norm is extreme runs on its :func:`scaled_into_range`, which
    gives the verdict of the matrix itself at any scale.  The whole stack
    takes one ``det`` call.  Non-finite matrices are not invertible.
    """
    m = np.asarray(m, dtype=complex)
    stack = np.array(m.reshape(-1, *m.shape[-2:]))  # a copy, rescaled in place
    norm2 = _norm2(stack)
    extreme = [i for i, n in enumerate(norm2) if not SAFE_NORM2_MIN <= n <= SAFE_NORM2_MAX]
    for i in extreme:
        stack[i] = scaled_into_range(stack[i])
    if extreme:
        norm2 = _norm2(stack)
    finite = list(map(math.isfinite, norm2))
    if not all(finite):  # keep NaN out of det, which would warn
        stack[~np.array(finite)] = 0.0
    det = np.linalg.det(stack).tolist()
    verdict = [ok and abs(d) > ZERO_TOL * (n / 3.0) ** 1.5 for ok, d, n in zip(finite, det, norm2)]
    return np.array(verdict, dtype=bool).reshape(m.shape[:-2]) if m.ndim > 2 else verdict[0]


def _norm2(stack: np.ndarray) -> list[float]:
    """Squared Frobenius norm of each matrix of a contiguous complex stack
    ``(k, n, n)``; ``einsum`` overflows to ``inf`` without a warning."""
    parts = stack.view(float)
    return np.einsum("kij,kij->k", parts, parts).tolist()


# ---------------------------------------------------------------------------
# Coordinates in the displacement basis
# ---------------------------------------------------------------------------

def pauli_coords(m: np.ndarray) -> tuple[complex | np.ndarray, np.ndarray]:
    """Expand a 3x3 matrix, or a stack ``(..., 3, 3)`` of them, in the
    displacement basis.

    Returns ``(g0, g)`` with ``g0 = tr(m)/3`` and ``g`` the eight
    coefficients ``tr(S_k^dag m)/3`` for nonzero ``k`` in coordinate order,
    so that ``m = g0 I + sum_k g[k] S_k``.  For a stack, ``g0`` and ``g``
    hold one entry and one row per matrix.
    """
    c = _coords(m)
    if c.ndim == 1:
        return complex(c[0]), c[1:]
    return c[..., 0], c[..., 1:]


def from_coords(g0: complex, g: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pauli_coords` for one matrix: ``g0 I + sum_k g_k S_k``,
    added up in coordinate order."""
    return (np.concatenate(([g0], g))[:, None, None] * BASIS).sum(axis=0)


#: Largest possible magnitude of a trace-normalized Gram coordinate; the
#: support threshold is relative to this natural scale.
_COORD_SCALE = 1.0 / 3.0


def support_mask(coords: np.ndarray, tol: float = ZERO_TOL) -> np.ndarray:
    """Which trace-normalized coordinates of rows ``(..., 8)`` in
    :data:`COORD_ORDER` (negation partners at positions 2j and 2j+1) are
    in the support at tolerance ``tol``.  This is the package's one rule
    for a zero coordinate, read by the classifier, the SEP engine and
    :func:`~qutritlocc.states.span_factor`.

    The verdict is one per negation pair: the larger partner's
    modulus is above the cut ``tol / 3`` and the smaller's above a tenth of
    it.  Hermiticity ties the partner moduli together, so a straddle within
    a decade is noise and is rescued; one far below is inconsistent data.

    Raises ``ValueError`` unless ``tol`` is finite and positive: a NaN or
    infinite cut would empty every support, and a cut of 0 would keep
    every coordinate."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"the support cut {tol!r} is not a finite positive number")
    cut = tol * _COORD_SCALE
    mags = np.abs(coords)
    m1, m2 = mags[..., 0::2], mags[..., 1::2]
    keep = (np.maximum(m1, m2) > cut) & (np.minimum(m1, m2) > cut / 10.0)
    return np.repeat(keep, 2, axis=-1)


# ---------------------------------------------------------------------------
# Three-party helpers
# ---------------------------------------------------------------------------

def kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Kronecker product of three 3x3 matrices (27x27), or of each triple
    of stacks ``(..., 3, 3)`` broadcast together (``(..., 27, 27)``).

    Two broadcast products, ``(a (x) b) (x) c``: each entry is the same
    two multiplications as in ``np.kron(np.kron(a, b), c)``, so each
    result is bit-identical to it."""
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    ab = a[..., :, None, :, None] * b[..., None, :, None, :]
    ab = ab.reshape(*ab.shape[:-4], 9, 9)
    abc = ab[..., :, None, :, None] * c[..., None, :, None, :]
    return abc.reshape(*abc.shape[:-4], 27, 27)


def _apply_local(ops: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Every vector ``(n, 3, 3, 3)`` under every outcome's local operator
    ``ops[o, 0] (x) ops[o, 1] (x) ops[o, 2]``, one stacked product per
    party; the result ``(n * o, 3, 3, 3)`` runs over outcomes fastest."""
    n, o = len(vectors), len(ops)
    x = vectors[:, None] @ ops[None, :, None, 2].swapaxes(-1, -2)
    x = ops[None, :, None, 1] @ x
    return (ops[None, :, 0] @ x.reshape(n, o, 3, 9)).reshape(n * o, 3, 3, 3)
