"""Gram matrices and factors that several test modules build."""

import numpy as np

from qutritlocc.pauli import PAULIS, dagger


def pair_mat(w, z=0.08):
    """Positive unit-trace matrix supported on the negation pair of w."""
    return np.eye(3) / 3 + z * (PAULIS[w] + dagger(PAULIS[w]))


def two_pair_mat(w1, w2, z=0.05):
    return (
        np.eye(3) / 3
        + z * (PAULIS[w1] + dagger(PAULIS[w1]))
        + z * (PAULIS[w2] + dagger(PAULIS[w2]))
    )


def dense_mat(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ dagger(a) + 0.3 * np.eye(3)
    return m / np.trace(m)


def dense_factor(rng):
    return rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
