"""The one rule that maps records to JSON and back.

Writing: ``to_json`` turns a record into plain JSON values. Reading:
``from_tagged`` builds a law or distribution from its ``{tag: name,
"params": {...}}`` document, whose params are exactly the class's dataclass
fields, and ``number`` is the rule every numeric parameter is read by.
"""

from __future__ import annotations

import math
import sys
from dataclasses import fields, is_dataclass

from .errors import ConfigError

__all__ = ["to_json", "fields_json", "from_tagged", "number"]


def to_json(value):
    """A record as a JSON document.

    An object with its own ``to_json_dict`` or ``to_json`` writes itself. A
    dataclass is written field by field in declaration order, a NamedTuple
    through ``_asdict``; dict keys become strings, tuples become lists, and
    an infinite float becomes the marker ``"inf"`` or ``"-inf"``, so no
    document holds a bare ``Infinity``.
    """
    for method in ("to_json_dict", "to_json"):
        if hasattr(value, method):
            return getattr(value, method)()
    if is_dataclass(value):
        return fields_json(value)
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {str(k): to_json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def fields_json(record) -> dict:
    """A dataclass's fields as a JSON object, in declaration order."""
    return {f.name: to_json(getattr(record, f.name)) for f in fields(record)}


def number(value, name: str) -> float:
    """``value`` as a float; anything but a finite JSON number is a ConfigError.

    A bool, a string, NaN and +-inf are refused, so a parameter never
    reaches a law's sampler as something ``float()`` happened to accept.
    """
    # NaN fails the comparison, and so does an integer past the float range
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def from_tagged(doc, tag: str, classes: dict, what: str, nested):
    """Build ``classes[doc[tag]]`` from a ``{tag: name, "params": {...}}`` document.

    The params must be exactly the class's dataclass fields. A field
    annotated ``Distribution`` is read by ``nested``; every other field by
    ``number``. The class's own domain checks raise as they do.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} document must be an object, got {type(doc).__name__}")
    extra = set(doc) - {tag, "params"}
    if extra:
        raise ConfigError(f"unknown {what} fields: {sorted(extra)}")
    name = doc.get(tag)
    if not isinstance(name, str) or name not in classes:
        raise ConfigError(f"unknown {what} {tag}: {name!r}")
    cls = classes[name]
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{what} params must be an object")
    expected = fields(cls)
    if set(params) != {f.name for f in expected}:
        raise ConfigError(
            f"{what} {tag} {name!r} needs params {sorted(f.name for f in expected)}, got {sorted(params)}")
    return cls(**{
        f.name: nested(params[f.name]) if f.type == "Distribution"
        else number(params[f.name], f"{name} param {f.name!r}")
        for f in expected
    })
