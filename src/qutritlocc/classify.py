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

from .config import resolve_tol
from .pauli import COORD_ORDER, PAIR_REPS, pair_rep
from .states import GenericState, GramTriple, gram

#: Largest possible magnitude of a trace-normalized Gram coordinate; the
#: support threshold is relative to this natural scale.
_COORD_SCALE = 1.0 / 3.0

Pair = tuple[int, int]


@dataclass(frozen=True)
class SupportPattern:
    """Thresholded coordinate supports of a Gram triple.

    ``supports`` holds the nonzero indices per party (negation-closed);
    ``pairs`` the corresponding negation-pair representatives.  Coordinates
    within a decade of the threshold, or negation partners disagreeing
    about the threshold, produce warnings.
    """

    supports: tuple[frozenset[Pair], frozenset[Pair], frozenset[Pair]]
    pairs: tuple[frozenset[Pair], frozenset[Pair], frozenset[Pair]]
    warnings: tuple[str, ...]


def support_pattern(gt: GramTriple, tol: float | None = None) -> SupportPattern:
    """Extract the support pattern of a Gram triple at tolerance ``tol``."""
    t = resolve_tol(tol)
    cut = t * _COORD_SCALE
    mags = np.abs(gt.coords)
    supports = []
    pairs = []
    warnings: list[str] = []
    for party in range(3):
        sup: set[Pair] = set()
        for pos in range(0, 8, 2):
            k = COORD_ORDER[pos]
            m1, m2 = mags[party, pos], mags[party, pos + 1]
            passed = (m1 > cut, m2 > cut)
            if passed[0] != passed[1]:
                # Hermiticity ties the partner magnitudes together, so a
                # straddle means one sits within noise of the cut.  Rescue
                # the pair when the failing partner is within a decade of
                # it; a partner far below signals inconsistent data.
                if min(m1, m2) > cut / 10.0:
                    sup.update((k, COORD_ORDER[pos + 1]))
                    warnings.append(
                        f"party {party}: negation pair {k} straddles the support "
                        f"threshold ({m1:.2e}, {m2:.2e}); included"
                    )
                else:
                    warnings.append(
                        f"party {party}: negation pair {k} straddles the support "
                        f"threshold ({m1:.2e}, {m2:.2e}); excluded"
                    )
            elif passed[0]:
                sup.update((k, COORD_ORDER[pos + 1]))
            for m in (m1, m2):
                if cut / 10.0 < m <= cut:
                    warnings.append(
                        f"party {party}: coordinate near the support threshold ({m:.2e})"
                    )
        supports.append(frozenset(sup))
        pairs.append(frozenset(pair_rep(k) for k in sup))
    return SupportPattern(tuple(supports), tuple(pairs), tuple(warnings))


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


def _confined(pairs: frozenset[Pair], w: Pair) -> bool:
    return pairs <= {w}


def detect_sep_cases(pattern: SupportPattern) -> tuple[CaseMatch, ...]:
    """All structural matches that certify separable reachability."""
    out: list[CaseMatch] = []
    seen: set[tuple] = set()
    for i, j, k in itertools.permutations(range(3)):
        pi, pj, pk = pattern.pairs[i], pattern.pairs[j], pattern.pairs[k]
        if not pk and (pi or pj) and not (pi & pj):
            key = ("disjoint", frozenset((i, j)), k)
            if key not in seen:
                seen.add(key)
                a, b = sorted((i, j))
                out.append(CaseMatch("disjoint", (a, b, k), None))
        for w in PAIR_REPS:
            if _confined(pj, w) and _confined(pk, w) and not _confined(pi, w):
                key = ("confined", i, frozenset((j, k)), w)
                if key not in seen:
                    seen.add(key)
                    a, b = sorted((j, k))
                    out.append(CaseMatch("confined", (i, a, b), w))
    return tuple(out)


def detect_locc_cases(pattern: SupportPattern) -> tuple[CaseMatch, ...]:
    """Structural matches certifying local (LOCC) reachability.

    Identical to the confined separable case: two parties confined to one
    common negation pair (a trivial party is confined to every pair), the
    remaining party not confined to it.
    """
    return tuple(m for m in detect_sep_cases(pattern) if m.kind == "confined")


def convert_witnesses(pattern: SupportPattern) -> tuple[CaseMatch, ...]:
    """Structural witnesses of local one-step convertibility.

    Two parties confined to a common negation pair; the remaining party is
    unrestricted and is the one that measures in the conversion step.
    """
    out: list[CaseMatch] = []
    seen: set[tuple] = set()
    for i, j, k in itertools.permutations(range(3)):
        for w in PAIR_REPS:
            if _confined(pattern.pairs[j], w) and _confined(pattern.pairs[k], w):
                key = (i, frozenset((j, k)), w)
                if key not in seen:
                    seen.add(key)
                    a, b = sorted((j, k))
                    out.append(CaseMatch("confined", (i, a, b), w))
    return tuple(out)


def is_sep_reachable(gt: GramTriple, tol: float | None = None) -> bool:
    """Whether some LU-inequivalent state of the class maps to this Gram
    triple under a separable transformation."""
    return bool(detect_sep_cases(support_pattern(gt, tol)))


def is_locc_reachable(gt: GramTriple, tol: float | None = None) -> bool:
    """Whether some LU-inequivalent state of the class reaches this Gram
    triple by a local protocol."""
    return bool(detect_locc_cases(support_pattern(gt, tol)))


def is_locc_convertible(gt: GramTriple, tol: float | None = None) -> bool:
    """Whether this Gram triple admits a local transformation to some
    LU-inequivalent state of the class."""
    return bool(convert_witnesses(support_pattern(gt, tol)))


def _tiles(pattern: SupportPattern) -> bool:
    for i, j, k in itertools.permutations(range(3)):
        pi, pj, pk = pattern.pairs[i], pattern.pairs[j], pattern.pairs[k]
        if not pk and len(pi) == 2 and len(pj) == 2 and not (pi & pj):
            return True
    return False


def is_support_tiling(gt: GramTriple, tol: float | None = None) -> bool:
    """Whether the supports tile the nonzero indices two pairs + two pairs
    with one trivial party (separably reachable only from the seed)."""
    return _tiles(support_pattern(gt, tol))


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


def classify_gram(gt: GramTriple, tol: float | None = None) -> Classification:
    """Classify a Gram triple structurally (see the module docstring)."""
    pattern = support_pattern(gt, tol)
    sep_cases = detect_sep_cases(pattern)
    locc_cases = tuple(m for m in sep_cases if m.kind == "confined")
    convert_cases = convert_witnesses(pattern)
    sep_reachable = bool(sep_cases)
    locc_reachable = bool(locc_cases)
    locc_convertible = bool(convert_cases)
    in_mes = not locc_reachable
    return Classification(
        pattern=pattern,
        sep_reachable=sep_reachable,
        sep_cases=sep_cases,
        locc_reachable=locc_reachable,
        locc_cases=locc_cases,
        locc_convertible=locc_convertible,
        convert_cases=convert_cases,
        support_tiling=_tiles(pattern),
        sep_only=sep_reachable and not locc_reachable,
        in_mes=in_mes,
        isolated=in_mes and not locc_convertible,
    )


def classify(state: GenericState, tol: float | None = None) -> Classification:
    """Classify a state via the Gram triple of its factors."""
    return classify_gram(gram(state), tol)
