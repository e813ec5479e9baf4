"""The gauge-orbit comparison against the standard-form route it replaces.

``lu_equivalent`` compares one Gram coordinate table with the nine gauge
variants of the other (``gauge_gap``), and ``sep_feasible``'s
``nontrivial`` does the same with the instance's two masked tables.  The
route before them gauge-fixed both tables with ``standardize_coords`` and
compared the fixed tables entrywise; for the engine it is taken here per
vertex, on the initial triple each vertex induces, as an independent
reference.  Both routes run on every generator kind under the invariances
of the comparison, and must give the same verdict.  Where they cannot,
the fixed route splits a pair that lies in one orbit to within the
tolerance: at the edge of the phase window or of the support cut.  Those
pairs are built explicitly below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritlocc.generate import KINDS, random_state, random_unitary
from qutritlocc.pauli import CONJ_TABLE, INDEX_ORDER, PAULIS, from_coords
from qutritlocc.sep import candidate_initial_grams, gram_instance, induced_initial, sep_feasible
from qutritlocc.states import (
    STD_COMPARE_ATOL,
    STD_SUPPORT_TOL,
    STD_WINDOW_SNAP,
    GenericState,
    gauge_gap,
    gram,
    gram_triple,
    lu_equivalent,
    permute_state,
    positive_factor,
    standardize_coords,
)


def fixed_gap(a, b):
    """The standard-form route: the largest entrywise gap between the two
    gauge-fixed tables."""
    return float(np.max(np.abs(standardize_coords(a)[0] - standardize_coords(b)[0])))


def same_by_fixed_route(a, b):
    return fixed_gap(a, b) <= STD_COMPARE_ATOL


def transforms(rng):
    """Each invariance of LU-equivalence as a map of states: the nine
    common symmetry conjugations, a unitary dressing, the party
    relabelings, and factor scales of 1e+-200."""
    out = {f"conj-{k}": (lambda s, k=k: _factors(s, lambda g: g @ PAULIS[k])) for k in INDEX_ORDER}
    us = [random_unitary(rng) for _ in range(3)]
    out["dress"] = lambda s: GenericState(s.seed, tuple(u @ g for u, g in zip(us, s.factors)))
    for perm in ((1, 2, 0), (0, 2, 1)):
        out[f"permute-{perm}"] = lambda s, perm=perm: permute_state(s, perm)
    for scale in (1e200, 1e-200):
        out[f"scale-{scale:g}"] = lambda s, scale=scale: _factors(s, lambda g: scale * g)
    return out


def _factors(state, f):
    return GenericState(state.seed, tuple(f(g) for g in state.factors))


def instances(target):
    """The target from each of its candidate initials, from an initial its
    own asymmetric depolarization induces, and from itself."""
    gt = gram(target)
    initials = [g for _, g in candidate_initial_grams(gt)]
    initials.append(induced_initial(gt, np.random.default_rng(0).dirichlet(np.ones(9))))
    initials.append(gt)
    return [gram_instance(target.seed, initial, gt) for initial in initials]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=6)
@given(draw=st.integers(0, 2**32 - 1))
def test_orbit_comparison_matches_the_standard_form_route(kind, draw):
    rng = np.random.default_rng(draw)
    state = random_state(kind, rng)
    other = random_state(KINDS[draw % len(KINDS)], rng, state.seed)
    base = lu_equivalent(state, other)
    assert base == same_by_fixed_route(gram(state).coords, gram(other).coords)
    for name, t in transforms(rng).items():
        moved, moved_other = t(state), t(other)
        relabeled = name.startswith("permute")
        if not relabeled:
            # the moved state is the same state up to LU and scale
            assert lu_equivalent(state, moved), name
            assert same_by_fixed_route(gram(state).coords, gram(moved).coords), name
        a, b = gram(moved).coords, gram(moved_other).coords
        assert lu_equivalent(moved, moved_other) == same_by_fixed_route(a, b) == base, name
        assert lu_equivalent(moved, t(_factors(state, lambda g: random_unitary(rng) @ g))), name
        for inst in instances(moved):
            dec = sep_feasible(inst)
            target = inst.target_gram.coords
            trivial = [
                same_by_fixed_route(induced_initial(inst.target_gram, v).coords, target)
                for v in dec.vertices
            ]
            assert dec.nontrivial == (not all(trivial)), name


def party_gram(coords):
    """A Gram triple whose party 0 carries the coordinates ``{position:
    value}`` (positions in the coordinate order, their negation partners
    set by Hermiticity) and whose other parties are ``I/3``."""
    c = np.zeros(8, dtype=complex)
    for position, value in coords.items():
        c[position] = 2 * value  # halved by the Hermitian part below
    m = from_coords(1 / 3, c)
    return gram_triple((m + m.conj().T) / 2, np.eye(3) / 3, np.eye(3) / 3)


#: Coordinate pairs on S_(0,1) and S_(1,1), which fix the gauge of party 0.
FIXING_PAIRS = {2: 0.05 * np.exp(0.3j), 4: 0.04 * np.exp(1.1j)}


def split_pairs():
    """Pairs that lie in one gauge orbit to within the tolerance but that
    the standard form fixes in different gauges, by name."""
    # one coordinate pair on S_(1,0), S_(2,0), its argument 5e-11 either
    # side of the window's lower edge -STD_WINDOW_SNAP
    edge, delta = -STD_WINDOW_SNAP, 5e-11
    return {
        "window-edge": (
            party_gram({0: 0.05 * np.exp(1j * (edge - delta))}),
            party_gram({0: 0.05 * np.exp(1j * (edge + delta))}),
        ),
        # a pair of modulus three times the support cut on S_(1,0), first
        # in the coordinate order, takes over the first fixing entry, and
        # at argument pi its window selects another gauge
        "support-edge": (
            party_gram(FIXING_PAIRS),
            party_gram({**FIXING_PAIRS, 0: -3 * STD_SUPPORT_TOL}),
        ),
    }


@pytest.mark.parametrize("name", ["window-edge", "support-edge"])
def test_split_pairs_are_one_orbit(params, name):
    """The standard form splits each pair, the orbit comparison does not:
    ``lu_equivalent`` calls the states equivalent, and the conversion from
    one to the other is feasible and trivial.  The standard-form route
    calls both pairs inequivalent, and the window-edge conversion
    nontrivial."""
    ga, gb = split_pairs()[name]
    assert standardize_coords(ga.coords)[1] != standardize_coords(gb.coords)[1]
    assert fixed_gap(ga.coords, gb.coords) > 1e6 * STD_COMPARE_ATOL
    assert gauge_gap(ga.coords, gb.coords) <= STD_COMPARE_ATOL
    states = [GenericState(params, tuple(positive_factor(m) for m in g.mats)) for g in (ga, gb)]
    assert lu_equivalent(*states) and lu_equivalent(*states[::-1])
    for source, target in ((ga, gb), (gb, ga)):
        dec = sep_feasible(gram_instance(params, source, target))
        assert dec.feasible and not dec.nontrivial


@pytest.mark.xfail(
    strict=True,
    reason="STD_COMPARE_ATOL exceeds the support cut ZERO_TOL/3, so LU-equivalent "
    "states can differ in support (ROADMAP item 14)",
)
def test_lu_equivalent_states_convert_separably(params):
    """States 5e-10 apart on S_(1,0) are one orbit to ``lu_equivalent``, so
    each converts into the other by a local unitary, which is separable.
    The pair on S_(1,0) is above the SEP engine's support cut in one state
    and absent from the other, and ``sep_feasible`` refuses both ways."""
    ga, gb = party_gram(FIXING_PAIRS), party_gram({**FIXING_PAIRS, 0: -5e-10})
    states = [GenericState(params, tuple(positive_factor(m) for m in g.mats)) for g in (ga, gb)]
    assert lu_equivalent(*states)
    decisions = [sep_feasible(gram_instance(params, s, t)) for s, t in ((ga, gb), (gb, ga))]
    assert all(dec.feasible for dec in decisions), [(d.reason, d.residual) for d in decisions]


def test_gauge_gap_is_one_orbit_distance():
    """Per table of a stack, the smallest largest-entry gap to the other
    table over the nine gauges: zero on every gauge variant, symmetric in
    its two tables, and never above the gap of the fixed forms."""
    rng = np.random.default_rng(22)
    tables = 0.1 * (rng.normal(size=(40, 3, 8)) + 1j * rng.normal(size=(40, 3, 8)))
    target = tables[0]
    variants = target * CONJ_TABLE[1:].T[:, None, :]
    np.testing.assert_allclose(gauge_gap(variants, target), 0.0, atol=1e-15)
    gaps = gauge_gap(tables, target)
    assert gaps.shape == (40,)
    reverse = [gauge_gap(target, t) for t in tables]
    np.testing.assert_allclose(gaps, reverse, rtol=1e-12)
    brute = [
        min(np.max(np.abs(t * CONJ_TABLE[1:, g] - target)) for g in range(9))
        for t in tables
    ]
    assert np.array_equal(gaps, brute)
    assert all(g <= fixed_gap(t, target) + 1e-15 for g, t in zip(gaps, tables))
    assert np.isnan(gauge_gap(np.full((3, 8), np.nan), target))
