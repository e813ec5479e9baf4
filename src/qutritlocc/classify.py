"""Structural classification: reachability and convertibility of states.

All decisions are read off the support pattern of the Gram coordinates:
which displacement-basis coordinates of each party's Gram matrix are
nonzero, organized by negation pairs {k, -k}.  A party whose support is
empty carries a Gram proportional to the identity; a party whose support
sits inside a single negation pair is "confined" to that pair.

The decision rules, scanned over party relabelings:

* separably reachable   - one party trivial and the other two with
  disjoint supports (not both empty), or two parties confined to a common
  pair with the third not confined to it;
* locally reachable     - two parties confined to a common pair (possibly
  trivial), the third not confined to it;
* locally convertible   - two parties confined to a common pair, the
  third arbitrary;
* support tiling        - one party trivial and the other two holding two
  disjoint negation pairs each, covering all four pairs: such states are
  separably reachable but locally unreachable, and the only separable
  route is from the bare seed with the uniform distribution.

Membership in the maximally entangled set (MES) is the negation of local
reachability; isolation adds non-convertibility.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .pauli import _COORD_SCALE, COORD_ORDER, PAIR_REPS, ZERO_TOL, pair_rep, support_mask
from .states import GenericState, GramTriple, gram

Pair = tuple[int, int]


@dataclass(frozen=True)
class SupportPattern:
    """Thresholded coordinate supports of a Gram triple.

    ``pairs`` holds, per party, the representatives of the negation pairs
    in the support (a support is negation-closed, so the pairs determine
    it).  Coordinates within a decade of the threshold, or negation
    partners disagreeing about the threshold, produce warnings.
    """

    pairs: tuple[frozenset[Pair], frozenset[Pair], frozenset[Pair]]
    warnings: tuple[str, ...]


def support_pattern(gt: GramTriple, tol: float = ZERO_TOL) -> SupportPattern:
    """Extract the support pattern of a Gram triple at tolerance ``tol``:
    the supports of :func:`support_mask`, with a warning for every pair
    that straddles the cut and every coordinate within a decade below it."""
    cut = tol * _COORD_SCALE
    mags = np.abs(gt.coords).tolist()
    mask = support_mask(gt.coords, tol).tolist()
    warnings: list[str] = []
    for party in range(3):
        for pos in range(0, 8, 2):
            m1, m2 = mags[party][pos], mags[party][pos + 1]
            if (m1 > cut) != (m2 > cut):
                warnings.append(
                    f"party {party}: negation pair {COORD_ORDER[pos]} straddles the support "
                    f"threshold ({m1:.2e}, {m2:.2e}); "
                    + ("included" if mask[party][pos] else "excluded")
                )
            for m in (m1, m2):
                if cut / 10.0 < m <= cut:
                    warnings.append(
                        f"party {party}: coordinate near the support threshold ({m:.2e})"
                    )
    pairs = tuple(
        frozenset(pair_rep(k) for k, keep in zip(COORD_ORDER, row) if keep) for row in mask
    )
    return SupportPattern(pairs, tuple(warnings))


@dataclass(frozen=True)
class CaseMatch:
    """One structural match, with the party ordering that produced it.

    For ``kind == "disjoint"`` the parties are (support, support, trivial)
    and ``pair`` is None; for ``kind == "confined"`` they are (free,
    confined, confined) and ``pair`` is the common negation pair.
    """

    kind: str
    parties: tuple[int, int, int]
    pair: Pair | None


@dataclass(frozen=True)
class Classification:
    """Full structural verdict for one state."""

    pattern: SupportPattern
    sep_reachable: bool
    sep_cases: tuple[CaseMatch, ...]
    locc_reachable: bool
    locc_cases: tuple[CaseMatch, ...]
    locc_convertible: bool
    convert_cases: tuple[CaseMatch, ...]
    support_tiling: bool
    sep_only: bool
    in_mes: bool
    isolated: bool

    @property
    def warnings(self) -> tuple[str, ...]:
        return self.pattern.warnings


def classify_gram(gt: GramTriple, tol: float = ZERO_TOL) -> Classification:
    """Classify a Gram triple structurally (see the module docstring).

    One scan over party relabelings collects every match.  A disjoint
    match lists its support parties in increasing order; a confined match
    lists the free party, then the confined parties in increasing order.
    ``convert_cases`` holds every confined match; those whose free party is
    not itself confined to the pair certify reachability and appear in
    ``sep_cases`` and ``locc_cases`` as well.
    """
    pattern = support_pattern(gt, tol)
    sep_cases: list[CaseMatch] = []
    locc_cases: list[CaseMatch] = []
    convert_cases: list[CaseMatch] = []
    support_tiling = False
    for i, j, k in itertools.permutations(range(3)):
        pi, pj, pk = pattern.pairs[i], pattern.pairs[j], pattern.pairs[k]
        if i < j and not pk and (pi or pj) and not (pi & pj):
            sep_cases.append(CaseMatch("disjoint", (i, j, k), None))
            support_tiling |= len(pi) == len(pj) == 2
        if j < k:
            for w in PAIR_REPS:
                if pj <= {w} and pk <= {w}:
                    match = CaseMatch("confined", (i, j, k), w)
                    convert_cases.append(match)
                    if not pi <= {w}:
                        sep_cases.append(match)
                        locc_cases.append(match)
    sep_reachable = bool(sep_cases)
    locc_reachable = bool(locc_cases)
    locc_convertible = bool(convert_cases)
    in_mes = not locc_reachable
    return Classification(
        pattern=pattern,
        sep_reachable=sep_reachable,
        sep_cases=tuple(sep_cases),
        locc_reachable=locc_reachable,
        locc_cases=tuple(locc_cases),
        locc_convertible=locc_convertible,
        convert_cases=tuple(convert_cases),
        support_tiling=support_tiling,
        sep_only=sep_reachable and not locc_reachable,
        in_mes=in_mes,
        isolated=in_mes and not locc_convertible,
    )


def classify(state: GenericState, tol: float = ZERO_TOL) -> Classification:
    """Classify a state via the Gram triple of its factors."""
    return classify_gram(gram(state), tol)
