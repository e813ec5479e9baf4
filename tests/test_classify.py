import itertools

import numpy as np
import pytest

from qutritlocc.classify import (
    CaseMatch,
    classify,
    classify_gram,
    support_pattern,
)
from qutritlocc.generate import KINDS, random_state
from qutritlocc.pauli import COORD_ORDER, from_coords, idx_neg, pair_rep, support_mask
from qutritlocc.states import (
    GenericState,
    gram,
    gram_triple,
    permute_state,
    seed_gram,
)

from helpers import dense_mat, pair_mat, two_pair_mat

ALL_PAIRS = {(1, 0), (0, 1), (1, 1), (1, 2)}


eye3 = np.eye(3) / 3


# ---------------------------------------------------------------------------
# support extraction
# ---------------------------------------------------------------------------


def test_empty_supports_for_seed():
    pattern = support_pattern(seed_gram())
    assert all(not p for p in pattern.pairs)
    assert pattern.warnings == ()


def test_single_pair_support():
    gt = gram_triple(pair_mat((1, 0)), eye3, eye3)
    pattern = support_pattern(gt)
    assert pattern.pairs[0] == {(1, 0)}
    assert pattern.pairs[1] == frozenset()


def test_dense_support(rng):
    gt = gram_triple(dense_mat(rng), dense_mat(rng), dense_mat(rng))
    pattern = support_pattern(gt)
    for party in range(3):
        assert pattern.pairs[party] == ALL_PAIRS


def test_supports_negation_closed(rng):
    """The support mask keeps a coordinate exactly when it keeps its
    negation partner, so each party's pairs name its whole support."""
    for _ in range(10):
        gt = gram_triple(dense_mat(rng), pair_mat((1, 1)), two_pair_mat((1, 0), (0, 1)))
        mask = support_mask(gt.coords)
        for row, pairs in zip(mask, support_pattern(gt).pairs):
            sup = {k for k, keep in zip(COORD_ORDER, row) if keep}
            assert {idx_neg(k) for k in sup} == sup
            assert {pair_rep(k) for k in sup} == pairs


def test_near_threshold_warning():
    # a coordinate inside (cut/10, cut] is flagged rather than silently dropped
    gt = gram_triple(pair_mat((1, 0), z=1e-10), eye3, eye3)
    pattern = support_pattern(gt, tol=1e-9)
    assert any("near the support threshold" in w for w in pattern.warnings)


def straddling_triple(partners):
    """Party 0's Gram with the negation pair at coordinate positions 0, 1
    set to ``partners`` (a Hermitian matrix within tolerance); the other
    parties at I/3."""
    row = np.zeros(8, dtype=complex)
    row[:2] = partners
    return gram_triple(*(from_coords(1 / 3, r) for r in (row, 0 * row, 0 * row)))


def test_straddling_partner_included_with_warning():
    # one partner above the cut (tol/3), one below but within a decade ->
    # both included, warning attached
    pattern = support_pattern(straddling_triple((3.5e-10, 3.2e-10)), tol=1e-9)
    assert pattern.pairs[0] == {(1, 0)}
    assert any("straddles" in w and "included" in w for w in pattern.warnings)


def test_straddling_partner_excluded_when_tiny():
    pattern = support_pattern(straddling_triple((5e-11, 1e-13)), tol=1e-10)
    assert pattern.pairs[0] == frozenset()
    assert any("straddles" in w and "excluded" in w for w in pattern.warnings)


# ---------------------------------------------------------------------------
# the structural cases
# ---------------------------------------------------------------------------


def test_seed_classification():
    cls = classify_gram(seed_gram())
    assert not cls.sep_reachable
    assert not cls.locc_reachable
    assert not cls.sep_only
    assert cls.locc_convertible  # the seed converts onward
    assert cls.in_mes
    assert not cls.isolated
    assert not cls.support_tiling


def test_disjoint_single_pairs():
    """One pair against one disjoint pair with a trivial third party."""
    gt = gram_triple(pair_mat((1, 0)), pair_mat((0, 1)), eye3)
    cls = classify_gram(gt)
    assert cls.sep_reachable
    assert CaseMatch("disjoint", (0, 1, 2), None) in cls.sep_cases
    # a single off-pair party also satisfies the confined shape, so this
    # state is locc-reachable too (and hence not sep-only)
    assert cls.locc_reachable
    assert not cls.sep_only
    assert not cls.in_mes
    assert cls.locc_convertible
    assert not cls.support_tiling


def test_confined_classification(rng):
    w = (1, 1)
    gt = gram_triple(dense_mat(rng), pair_mat(w), pair_mat(w))
    cls = classify_gram(gt)
    assert cls.sep_reachable
    assert cls.locc_reachable
    assert any(m.kind == "confined" and m.pair == w and m.parties == (0, 1, 2) for m in cls.locc_cases)
    assert not cls.sep_only
    assert not cls.in_mes
    assert cls.locc_convertible
    assert not cls.isolated
    assert not cls.support_tiling


def test_tiling_classification():
    gt = gram_triple(two_pair_mat((1, 0), (0, 1)), two_pair_mat((1, 1), (1, 2)), eye3)
    cls = classify_gram(gt)
    assert cls.support_tiling
    assert cls.sep_reachable
    assert not cls.locc_reachable
    assert cls.sep_only
    assert cls.in_mes
    assert not cls.locc_convertible
    assert cls.isolated  # unreachable and unconvertible by local protocols


def test_tiling_needs_full_cover():
    # only 3 of the 4 pairs covered: still disjoint-reachable, not a tiling
    gt = gram_triple(two_pair_mat((1, 0), (0, 1)), pair_mat((1, 1)), eye3)
    cls = classify_gram(gt)
    assert not cls.support_tiling
    assert cls.sep_reachable


def test_all_parties_confined_same_pair():
    """Nontrivial factors all on one pair: an MES member that converts."""
    w = (0, 1)
    gt = gram_triple(pair_mat(w, 0.05), pair_mat(w, 0.09), pair_mat(w, 0.12))
    cls = classify_gram(gt)
    assert not cls.sep_reachable
    assert not cls.locc_reachable
    assert cls.in_mes
    assert cls.locc_convertible
    assert not cls.isolated


def test_dense_is_isolated(rng):
    gt = gram_triple(dense_mat(rng), dense_mat(rng), dense_mat(rng))
    cls = classify_gram(gt)
    assert not cls.sep_reachable
    assert not cls.locc_reachable
    assert not cls.locc_convertible
    assert cls.in_mes
    assert cls.isolated


def test_lattice_invariants(rng):
    for _ in range(25):
        mats = []
        for _party in range(3):
            kind = rng.integers(0, 4)
            if kind == 0:
                mats.append(eye3.copy())
            elif kind == 1:
                w = [(1, 0), (0, 1), (1, 1), (1, 2)][rng.integers(0, 4)]
                mats.append(pair_mat(w, 0.02 + 0.1 * rng.random()))
            elif kind == 2:
                reps = [(1, 0), (0, 1), (1, 1), (1, 2)]
                i, j = rng.choice(4, size=2, replace=False)
                mats.append(two_pair_mat(reps[i], reps[j]))
            else:
                mats.append(dense_mat(rng))
        cls = classify_gram(gram_triple(*mats))
        if cls.locc_reachable:
            assert cls.sep_reachable
        assert cls.sep_only == (cls.sep_reachable and not cls.locc_reachable)
        assert cls.in_mes == (not cls.locc_reachable)
        assert cls.isolated == (cls.in_mes and not cls.locc_convertible)
        pairs = [match.pair for match in cls.locc_cases]
        assert len(set(pairs)) == len(pairs)


def test_permutation_robustness(rng):
    """Classification flags ignore the labeling of the parties."""
    mats = [dense_mat(rng), pair_mat((1, 1)), pair_mat((1, 1))]
    base = classify_gram(gram_triple(*mats))
    for perm in [(1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]:
        shuffled = classify_gram(gram_triple(*(mats[i] for i in perm)))
        for field in ("sep_reachable", "locc_reachable", "locc_convertible",
                      "support_tiling", "sep_only", "in_mes", "isolated"):
            assert getattr(shuffled, field) == getattr(base, field)


@pytest.mark.parametrize("kind", KINDS)
def test_classify_follows_party_permutation(params, rng, kind):
    """Relabeling the parties of a state relabels its support pairs the
    same way and leaves all seven flags unchanged."""
    for _ in range(3):
        state = random_state(kind, rng, params)
        base = classify(state)
        for perm in itertools.permutations(range(3)):
            moved = classify(permute_state(state, perm))
            assert moved.pattern.pairs == tuple(base.pattern.pairs[p] for p in perm)
            for field in ("sep_reachable", "locc_reachable", "locc_convertible",
                          "support_tiling", "sep_only", "in_mes", "isolated"):
                assert getattr(moved, field) == getattr(base, field), (perm, field)


def test_detectors_report_structure(rng):
    cls = classify_gram(gram_triple(dense_mat(rng), pair_mat((1, 2)), eye3))
    sep = cls.sep_cases
    locc = cls.locc_cases
    conv = cls.convert_cases
    assert all(m.kind == "confined" for m in locc)
    assert set(locc) <= set(sep)
    # the free party measures in the conversion step
    assert any(m.parties[0] == 0 and m.pair == (1, 2) for m in conv)


def test_classify_accepts_state(params, rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    st = GenericState(params, (a + 4 * np.eye(3), np.eye(3), np.eye(3)))
    cls = classify(st)
    assert classify_gram(gram(st)).sep_reachable == cls.sep_reachable
    assert isinstance(cls.warnings, tuple)
