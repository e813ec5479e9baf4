"""JSON persistence for states and protocols.

The on-disk format is deliberately dumb: schema version ``"1"``, complex
numbers as two-element ``[re, im]`` arrays, matrices as row-major nested
lists.  Parsing is strict — anything malformed, a non-finite number
included, raises :class:`SchemaError` naming the offending field's path.
"""

from __future__ import annotations

import cmath
import json
import sys
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


class _EntryError(ValueError):
    """A complex entry is malformed; the caller adds the entry's path."""


def _complex(value: Any) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise _EntryError("expected a [re, im] pair of numbers")
    re, im = value
    if not (
        (isinstance(re, float) or isinstance(re, int) and not isinstance(re, bool))
        and (isinstance(im, float) or isinstance(im, int) and not isinstance(im, bool))
    ):
        raise _EntryError("expected a [re, im] pair of numbers")
    try:
        z = complex(re, im)
    except OverflowError as exc:
        raise _EntryError("non-finite number: an integer overflows a float") from exc
    if not cmath.isfinite(z):
        raise _EntryError(f"non-finite number {value!r} is not allowed")
    return z


def _parse_num(value: Any, path: str) -> complex:
    try:
        return _complex(value)
    except _EntryError as exc:
        raise SchemaError(path, str(exc)) from exc


def _parse_mat(value: Any, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != 3:
        raise SchemaError(path, "expected a 3x3 matrix as three rows")
    entries = []
    try:
        for i, row in enumerate(value):
            if not isinstance(row, list) or len(row) != 3:
                raise SchemaError(f"{path}[{i}]", "expected a row of three entries")
            for j, z in enumerate(row):
                entries.append(_complex(z))
    except _EntryError as exc:
        raise SchemaError(f"{path}[{i}][{j}]", str(exc)) from exc
    return np.array(entries, dtype=complex).reshape(3, 3)


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


def seed_from_json(obj: Any, path: str = "$") -> SeedParams:
    abc = [_field(obj, path, key, _parse_num) for key in "abc"]
    try:
        return SeedParams(*abc)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def state_from_json(obj: Any, path: str = "$") -> GenericState:
    _check_version(obj, path)
    seed = _field(obj, path, "seed", seed_from_json)
    g = _list(obj, path, "g", "expected three factor matrices", (3,))
    factors = tuple(_parse_mat(f, f"{path}.g[{i}]") for i, f in enumerate(g))
    metadata = obj.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise SchemaError(f"{path}.metadata", "expected an object")
    try:
        return GenericState(seed=seed, factors=factors)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _outcome(out: Any, path: str, party: int):
    """One outcome of a round that ``party`` measures: its POVM entry
    ``(label, operator)`` and its corrections."""
    label = _field(out, path, "label", _parse_label)
    op = _field(out, path, "operator", _parse_mat)
    corrections = []
    for m, c in enumerate(_list(out, path, "corrections", "expected a list")):
        c_path = f"{path}.corrections[{m}]"
        c_party = _field(c, c_path, "party", _parse_party)
        if c_party == party:
            raise SchemaError(f"{c_path}.party", "expected one of the other two parties")
        if c_party in (p for p, _ in corrections):
            raise SchemaError(f"{c_path}.party", f"party {c_party} is listed twice")
        corrections.append((c_party, _field(c, c_path, "unitary", _parse_mat)))
    return (label, op), tuple(corrections)


def protocol_from_json(obj: Any, path: str = "$") -> KrausSet | LoccProtocol:
    _check_version(obj, path)
    kind = _get(obj, path, "kind")
    notes = _list(obj, path, "notes", "expected a list of strings")
    common = {
        "initial": _field(obj, path, "initial", state_from_json),
        "target": _field(obj, path, "target", state_from_json),
        "construction": _field(obj, path, "construction", _parse_str),
        "notes": tuple(_parse_str(n, f"{path}.notes[{i}]") for i, n in enumerate(notes)),
    }
    if kind == "kraus":
        listed = _list(obj, path, "elements", "expected a nonempty list", _NONEMPTY)
        elements = []
        for i, el in enumerate(listed):
            el_path = f"{path}.elements[{i}]"
            factors = _list(el, el_path, "factors", "expected three factors", (3,))
            label = _field(el, el_path, "label", _parse_label)
            mats = (_parse_mat(f, f"{el_path}.factors[{j}]") for j, f in enumerate(factors))
            elements.append(KrausElement(label=label, factors=tuple(mats)))
        return KrausSet(elements=tuple(elements), **common)
    if kind == "locc":
        rounds = []
        for i, rnd in enumerate(_list(obj, path, "rounds", "expected a nonempty list", _NONEMPTY)):
            rnd_path = f"{path}.rounds[{i}]"
            party = _field(rnd, rnd_path, "party", _parse_party)
            outcomes = _list(rnd, rnd_path, "outcomes", "expected a nonempty list", _NONEMPTY)
            povm, corrections = zip(
                *(_outcome(o, f"{rnd_path}.outcomes[{j}]", party) for j, o in enumerate(outcomes))
            )
            rounds.append(LoccRound(party=party, povm=povm, corrections=corrections))
        return LoccProtocol(rounds=tuple(rounds), **common)
    raise SchemaError(f"{path}.kind", f"expected 'kraus' or 'locc', got {kind!r}")


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
