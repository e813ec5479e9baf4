"""JSON persistence for states and protocols.

The on-disk format is deliberately dumb: schema version ``"1"``, complex
numbers as two-element ``[re, im]`` arrays, matrices as row-major nested
lists.  Parsing is strict — anything malformed, a non-finite number
included, raises :class:`SchemaError` naming the offending field's path.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .protocols import KrausElement, KrausSet, LoccProtocol, LoccRound
from .seeds import SeedParams
from .states import GenericState

SCHEMA_VERSION = "1"


class SchemaError(ValueError):
    """A state file failed validation; ``path`` points at the bad field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _num(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _mat(m: np.ndarray) -> list[list[list[float]]]:
    return np.ascontiguousarray(m, dtype=complex).view(float).reshape(3, 3, 2).tolist()


def seed_to_json(seed: SeedParams) -> dict[str, Any]:
    return {"a": _num(seed.a), "b": _num(seed.b), "c": _num(seed.c)}


def state_to_json(
    state: GenericState, metadata: dict[str, Any] | None = None
) -> dict[str, Any]:
    out: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed_to_json(state.seed),
        "g": [_mat(f) for f in state.factors],
    }
    if metadata is not None:
        out["metadata"] = metadata
    return out


def protocol_to_json(obj: KrausSet | LoccProtocol) -> dict[str, Any]:
    common = {
        "schema_version": SCHEMA_VERSION,
        "construction": obj.construction,
        "notes": list(obj.notes),
        "initial": state_to_json(obj.initial),
        "target": state_to_json(obj.target),
    }
    if isinstance(obj, KrausSet):
        return {
            **common,
            "kind": "kraus",
            "elements": [
                {"label": list(el.label), "factors": [_mat(f) for f in el.factors]}
                for el in obj.elements
            ],
        }
    if isinstance(obj, LoccProtocol):
        rounds = []
        for rnd in obj.rounds:
            outcomes = []
            for (label, op), corr in zip(rnd.povm, rnd.corrections):
                outcomes.append(
                    {
                        "label": list(label),
                        "operator": _mat(op),
                        "corrections": [
                            {"party": party, "unitary": _mat(u)} for party, u in corr
                        ],
                    }
                )
            rounds.append({"party": rnd.party, "outcomes": outcomes})
        return {**common, "kind": "locc", "rounds": rounds}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _get(obj: dict, path: str, key: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing field")
    return obj[key]


def _field(obj: dict, path: str, key: str, parse) -> Any:
    """The field ``obj[key]`` read by ``parse(value, path)`` at its own path."""
    return parse(_get(obj, path, key), f"{path}.{key}")


#: ``size`` of a list field that may have any length but zero.
_NONEMPTY = range(1, sys.maxsize)


def _list(obj: dict, path: str, key: str, expected: str, size=None) -> list:
    """The list field ``obj[key]``, with a length in ``size`` when that is
    given; otherwise ``SchemaError`` at ``{path}.{key}`` saying ``expected``."""
    value = _get(obj, path, key)
    if not isinstance(value, list) or size is not None and len(value) not in size:
        raise SchemaError(f"{path}.{key}", expected)
    return value


#: Why an entry that is not a ``[re, im]`` pair of numbers is refused.
_NOT_A_PAIR = "expected a [re, im] pair of numbers"

#: Where each entry of a matrix sits, relative to the matrix's path.
_CELLS = tuple(f"[{i}][{j}]" for i in range(3) for j in range(3))

#: Where each amplitude of a seed sits, relative to the seed's path.
_AMPLITUDES = (".a", ".b", ".c")


def _is_number_type(t: type) -> bool:
    """Whether values of type ``t`` may be a part of an entry: a float or an
    int, but not a bool."""
    return issubclass(t, (float, int)) and not issubclass(t, bool)


def _entry_fault(z: Any) -> str | None:
    """Why the entry ``z`` is refused, or ``None`` when it is a ``[re, im]``
    pair of finite numbers.  A shape or type fault comes first, then an
    integer that overflows a float, then a non-finite part."""
    if not isinstance(z, (list, tuple)) or len(z) != 2 or not all(
        _is_number_type(type(x)) for x in z
    ):
        return _NOT_A_PAIR
    try:
        finite = [math.isfinite(x) for x in z]
    except OverflowError:
        return "non-finite number: an integer overflows a float"
    return None if all(finite) else f"non-finite number {z!r} is not allowed"


class _Entries:
    """The complex entries of one document, gathered in one walk and
    converted at once.

    The walk hands over each matrix, checked where it is met for three
    rows of three entries, and each seed's three amplitudes as one row,
    with their paths.  :meth:`decode` then converts every entry in one
    typed float array.  Only when that fails are the entries scanned in
    document order, and the first that :func:`_entry_fault` refuses
    raises :class:`SchemaError` at its path.
    """

    def __init__(self) -> None:
        self.rows: list[list] = []
        self.names: list[tuple[str, tuple[str, ...]]] = []

    def _add(self, rows: list, path: str, places: tuple[str, ...]) -> int:
        start = 3 * len(self.rows)  # every row holds three entries
        self.rows.extend(rows)
        self.names.append((path, places))
        return start

    def matrix(self, value: Any, path: str) -> int:
        """Gather a 3x3 matrix; return the index of its first entry."""
        if not isinstance(value, list) or len(value) != 3:
            raise SchemaError(path, "expected a 3x3 matrix as three rows")
        for i, row in enumerate(value):
            if not isinstance(row, list) or len(row) != 3:
                raise SchemaError(f"{path}[{i}]", "expected a row of three entries")
        return self._add(value, path, _CELLS)

    def seed(self, obj: Any, path: str) -> int:
        """Gather a seed's amplitudes; return the index of the first."""
        return self._add([[_get(obj, path, key) for key in "abc"]], path, _AMPLITUDES)

    def decode(self) -> np.ndarray:
        """Every entry, in the order gathered, as one complex array."""
        pairs = list(chain.from_iterable(self.rows))
        sequences = all(issubclass(t, (list, tuple)) for t in set(map(type, pairs)))
        if sequences and set(map(len, pairs)) == {2}:
            parts = list(chain.from_iterable(pairs))
            if all(map(_is_number_type, set(map(type, parts)))):
                try:
                    values = np.array(parts, dtype=float)
                except OverflowError:
                    pass
                else:
                    if np.isfinite(values).all():
                        return values.view(complex)
        # the tests above accept exactly the entries _entry_fault accepts, so
        # a document that fails them has a first entry to name
        paths = (path + place for path, places in self.names for place in places)
        faults = ((path, _entry_fault(z)) for path, z in zip(paths, pairs))
        raise SchemaError(*next(fault for fault in faults if fault[1] is not None))


def _parse_label(value: Any, path: str) -> tuple[int, int]:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in value)
        or not all(0 <= x <= 2 for x in value)
    ):
        raise SchemaError(path, "expected a label [k1, k2] with entries in 0..2")
    return (value[0], value[1])


def _parse_party(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= 2:
        raise SchemaError(path, "expected 0, 1 or 2")
    return value


def _parse_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {type(value).__name__}")
    return value


def _check_version(obj: dict, path: str) -> None:
    version = _get(obj, path, "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"{path}.schema_version", f"unsupported version {version!r}"
        )


def _seed(z: np.ndarray, start: int, path: str) -> SeedParams:
    """The seed whose amplitudes start at ``z[start]``."""
    try:
        return SeedParams(*z[start : start + 3])
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _matrix_at(z: np.ndarray, start: int) -> np.ndarray:
    return z[start : start + 9].reshape(3, 3)


def seed_from_json(obj: Any, path: str = "$") -> SeedParams:
    entries = _Entries()
    start = entries.seed(obj, path)
    return _seed(entries.decode(), start, path)


def _read_state(obj: Any, path: str, entries: _Entries) -> tuple[int, int]:
    """Walk a state document, gathering its seed and its three factors;
    return where each starts."""
    _check_version(obj, path)
    seed = entries.seed(_get(obj, path, "seed"), f"{path}.seed")
    g = _list(obj, path, "g", "expected three factor matrices", (3,))
    factors = [entries.matrix(f, f"{path}.g[{i}]") for i, f in enumerate(g)]
    metadata = obj.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise SchemaError(f"{path}.metadata", "expected an object")
    return seed, factors[0]  # the three factors are gathered one after another


def _state(
    z: np.ndarray, starts: tuple[int, int], path: str, seed: SeedParams | None = None
) -> GenericState:
    """The state read by :func:`_read_state`: its seed is ``seed`` when
    that is given (the same amplitudes, already parsed), else parsed."""
    if seed is None:
        seed = _seed(z, starts[0], f"{path}.seed")
    factors = z[starts[1] : starts[1] + 27].reshape(3, 3, 3)
    try:
        return GenericState(seed=seed, factors=tuple(factors))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def state_from_json(obj: Any, path: str = "$") -> GenericState:
    entries = _Entries()
    starts = _read_state(obj, path, entries)
    return _state(entries.decode(), starts, path)


def _read_outcome(out: Any, path: str, party: int, entries: _Entries):
    """One outcome of a round that ``party`` measures: its label, where its
    operator starts, and its corrections' parties and starts."""
    label = _field(out, path, "label", _parse_label)
    op = entries.matrix(_get(out, path, "operator"), f"{path}.operator")
    corrections = []
    for m, c in enumerate(_list(out, path, "corrections", "expected a list")):
        c_path = f"{path}.corrections[{m}]"
        c_party = _field(c, c_path, "party", _parse_party)
        if c_party == party:
            raise SchemaError(f"{c_path}.party", "expected one of the other two parties")
        if c_party in (p for p, _ in corrections):
            raise SchemaError(f"{c_path}.party", f"party {c_party} is listed twice")
        unitary = entries.matrix(_get(c, c_path, "unitary"), f"{c_path}.unitary")
        corrections.append((c_party, unitary))
    return label, op, corrections


def protocol_from_json(obj: Any, path: str = "$") -> KrausSet | LoccProtocol:
    """A protocol document, walked once: its fields are checked as they are
    met, then every entry is converted at once (:class:`_Entries`).  When
    the target's seed has the initial's amplitudes bit for bit, the two
    states share one parsed seed."""
    _check_version(obj, path)
    kind = _get(obj, path, "kind")
    notes = _list(obj, path, "notes", "expected a list of strings")
    entries = _Entries()
    initial = _read_state(_get(obj, path, "initial"), f"{path}.initial", entries)
    target = _read_state(_get(obj, path, "target"), f"{path}.target", entries)
    construction = _field(obj, path, "construction", _parse_str)
    notes = tuple(_parse_str(n, f"{path}.notes[{i}]") for i, n in enumerate(notes))
    if kind == "kraus":
        elements = []
        listed = _list(obj, path, "elements", "expected a nonempty list", _NONEMPTY)
        for i, el in enumerate(listed):
            el_path = f"{path}.elements[{i}]"
            factors = _list(el, el_path, "factors", "expected three factors", (3,))
            label = _field(el, el_path, "label", _parse_label)
            mats = [entries.matrix(f, f"{el_path}.factors[{j}]") for j, f in enumerate(factors)]
            elements.append((label, mats))
    elif kind == "locc":
        rounds = []
        for i, rnd in enumerate(_list(obj, path, "rounds", "expected a nonempty list", _NONEMPTY)):
            rnd_path = f"{path}.rounds[{i}]"
            party = _field(rnd, rnd_path, "party", _parse_party)
            outcomes = _list(rnd, rnd_path, "outcomes", "expected a nonempty list", _NONEMPTY)
            rounds.append(
                (party, [_read_outcome(o, f"{rnd_path}.outcomes[{j}]", party, entries)
                         for j, o in enumerate(outcomes)])
            )
    else:
        raise SchemaError(f"{path}.kind", f"expected 'kraus' or 'locc', got {kind!r}")
    z = entries.decode()
    first = _state(z, initial, f"{path}.initial")
    same = z[initial[0] : initial[0] + 3].tobytes() == z[target[0] : target[0] + 3].tobytes()
    common = {
        "initial": first,
        "target": _state(z, target, f"{path}.target", first.seed if same else None),
        "construction": construction,
        "notes": notes,
    }
    if kind == "kraus":
        return KrausSet(
            elements=tuple(
                KrausElement(label=label, factors=tuple(_matrix_at(z, m) for m in mats))
                for label, mats in elements
            ),
            **common,
        )
    return LoccProtocol(
        rounds=tuple(
            LoccRound(
                party=party,
                povm=tuple((label, _matrix_at(z, op)) for label, op, _ in outcomes),
                corrections=tuple(
                    tuple((c, _matrix_at(z, u)) for c, u in corr) for _, _, corr in outcomes
                ),
            )
            for party, outcomes in rounds
        ),
        **common,
    )


# ---------------------------------------------------------------------------
# File round trips
# ---------------------------------------------------------------------------

def save_state(
    path: str | Path, state: GenericState, metadata: dict[str, Any] | None = None
) -> None:
    Path(path).write_text(json.dumps(state_to_json(state, metadata), indent=2) + "\n")


def load_state(path: str | Path) -> GenericState:
    return state_from_json(read_json(path))


def save_protocol(path: str | Path, obj: KrausSet | LoccProtocol) -> None:
    Path(path).write_text(json.dumps(protocol_to_json(obj), indent=2) + "\n")


def load_protocol(path: str | Path) -> KrausSet | LoccProtocol:
    return protocol_from_json(read_json(path))


def _reject_constant(literal: str) -> float:
    raise SchemaError("$", f"non-finite number {literal} is not allowed")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not np.isfinite(value):
        _reject_constant(literal)
    return value


def read_json(path: str | Path) -> Any:
    """Parse a JSON file; ``NaN``, ``Infinity`` and overflowing numbers are
    rejected, since no field of the format may hold a non-finite value."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError("$", f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(
            text, parse_constant=_reject_constant, parse_float=_finite_float
        )
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
