"""JSON persistence for states and protocols.

The on-disk format is deliberately dumb: schema version ``"1"``, complex
numbers as two-element ``[re, im]`` arrays, matrices as row-major nested
lists.  Parsing is strict — anything malformed, a non-finite number
included, raises :class:`SchemaError` naming the offending field's path.
"""

from __future__ import annotations

import cmath
import json
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


def _check_version(obj: dict, path: str) -> None:
    version = _get(obj, path, "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"{path}.schema_version", f"unsupported version {version!r}"
        )


def seed_from_json(obj: Any, path: str = "$") -> SeedParams:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    return SeedParams(
        a=_parse_num(_get(obj, path, "a"), f"{path}.a"),
        b=_parse_num(_get(obj, path, "b"), f"{path}.b"),
        c=_parse_num(_get(obj, path, "c"), f"{path}.c"),
    )


def state_from_json(obj: Any, path: str = "$") -> GenericState:
    _check_version(obj, path)
    seed = seed_from_json(_get(obj, path, "seed"), f"{path}.seed")
    factors_obj = _get(obj, path, "g")
    if not isinstance(factors_obj, list) or len(factors_obj) != 3:
        raise SchemaError(f"{path}.g", "expected three factor matrices")
    factors = tuple(
        _parse_mat(f, f"{path}.g[{i}]") for i, f in enumerate(factors_obj)
    )
    metadata = obj.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise SchemaError(f"{path}.metadata", "expected an object")
    try:
        return GenericState(seed=seed, factors=factors)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def protocol_from_json(obj: Any, path: str = "$") -> KrausSet | LoccProtocol:
    _check_version(obj, path)
    kind = _get(obj, path, "kind")
    common = {
        "initial": state_from_json(_get(obj, path, "initial"), f"{path}.initial"),
        "target": state_from_json(_get(obj, path, "target"), f"{path}.target"),
        "construction": _get(obj, path, "construction"),
        "notes": tuple(_get(obj, path, "notes")),
    }
    if kind == "kraus":
        elements_obj = _get(obj, path, "elements")
        if not isinstance(elements_obj, list) or not elements_obj:
            raise SchemaError(f"{path}.elements", "expected a nonempty list")
        elements = []
        for i, el in enumerate(elements_obj):
            el_path = f"{path}.elements[{i}]"
            factors_obj = _get(el, el_path, "factors")
            if not isinstance(factors_obj, list) or len(factors_obj) != 3:
                raise SchemaError(f"{el_path}.factors", "expected three factors")
            elements.append(
                KrausElement(
                    label=_parse_label(_get(el, el_path, "label"), f"{el_path}.label"),
                    factors=tuple(
                        _parse_mat(f, f"{el_path}.factors[{j}]")
                        for j, f in enumerate(factors_obj)
                    ),
                )
            )
        return KrausSet(elements=tuple(elements), **common)
    if kind == "locc":
        rounds_obj = _get(obj, path, "rounds")
        if not isinstance(rounds_obj, list) or not rounds_obj:
            raise SchemaError(f"{path}.rounds", "expected a nonempty list")
        rounds = []
        for i, rnd in enumerate(rounds_obj):
            rnd_path = f"{path}.rounds[{i}]"
            party = _get(rnd, rnd_path, "party")
            if party not in (0, 1, 2):
                raise SchemaError(f"{rnd_path}.party", "expected 0, 1 or 2")
            outcomes_obj = _get(rnd, rnd_path, "outcomes")
            if not isinstance(outcomes_obj, list) or not outcomes_obj:
                raise SchemaError(f"{rnd_path}.outcomes", "expected a nonempty list")
            povm = []
            corrections = []
            for j, out in enumerate(outcomes_obj):
                out_path = f"{rnd_path}.outcomes[{j}]"
                label = _parse_label(_get(out, out_path, "label"), f"{out_path}.label")
                op = _parse_mat(_get(out, out_path, "operator"), f"{out_path}.operator")
                corr_obj = _get(out, out_path, "corrections")
                if not isinstance(corr_obj, list):
                    raise SchemaError(f"{out_path}.corrections", "expected a list")
                corr = []
                for m, c in enumerate(corr_obj):
                    c_path = f"{out_path}.corrections[{m}]"
                    c_party = _get(c, c_path, "party")
                    if c_party not in (0, 1, 2) or c_party == party:
                        raise SchemaError(
                            f"{c_path}.party", "expected one of the other two parties"
                        )
                    corr.append(
                        (c_party, _parse_mat(_get(c, c_path, "unitary"), f"{c_path}.unitary"))
                    )
                povm.append((label, op))
                corrections.append(tuple(corr))
            rounds.append(
                LoccRound(party=party, povm=tuple(povm), corrections=tuple(corrections))
            )
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
