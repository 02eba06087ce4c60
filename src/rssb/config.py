"""One codec between the config dataclasses and plain JSON data.

``to_dict`` is ``dataclasses.asdict``; ``from_dict`` inverts it by
walking the fields of the target class.  A nested dataclass recurses,
and an absent one is built from ``{}``.  ``tuple[float, float]`` takes
exactly two numbers and a bare ``tuple`` any number of them; ``float``
takes any finite number, ``int`` an integral one and ``str`` a string.
Absent fields take the dataclass default, so defaults are stated on the
dataclasses alone.  Unknown keys and bad values raise ValueError naming
the dotted path of the key; the dataclasses then validate themselves.
"""

import dataclasses
import sys
import typing

to_dict = dataclasses.asdict


def _convert(tp, value, key):
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, key)
    if tp is str:
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a string, got {value!r}")
        return value
    if tp in (float, int):
        # False for NaN, infinity and an integer too large for a float.
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):
            raise ValueError(f"{key} must be a finite number, got {value!r}")
        if tp is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return tp(value)
    types = typing.get_args(tp)  # a tuple type; bare ``tuple`` has no args
    if (not isinstance(value, (list, tuple))
            or types and len(value) != len(types)):
        count = f"{len(types)} numbers" if types else "numbers"
        raise ValueError(f"{key} must be a list of {count}, got {value!r}")
    types = types or (float,) * len(value)
    return tuple(_convert(t, v, f"{key}[{i}]")
                 for i, (t, v) in enumerate(zip(types, value)))


def from_dict(cls, data, path=""):
    """Build a ``cls`` from plain JSON data; ``path`` names it in errors."""
    if not isinstance(data, dict):
        raise ValueError(f"{path or cls.__name__} must be an object, "
                         f"got {data!r}")
    prefix = f"{path}." if path else ""
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"unknown field {prefix}{unknown[0]}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields:
        if f.name in data or dataclasses.is_dataclass(hints[f.name]):
            kwargs[f.name] = _convert(hints[f.name], data.get(f.name, {}),
                                      prefix + f.name)
        elif f.default is dataclasses.MISSING:
            raise ValueError(f"missing required field {prefix}{f.name}")
    return cls(**kwargs)
