"""labrisk: cancer risk assessment from routine laboratory panels.

VAE-based risk ensembles with likelihood-ratio reporting, Shapley
explanations, and comorbidity analysis, driven by a calibrated synthetic
EHR cohort generator.
"""

import dataclasses
import functools
import json
import types
import typing

__version__ = "0.1.0"

# The error boundary: files from outside the program are read by read_bytes
# (JSON Lines by ioutil.read_records_jsonl) and decoded by the helpers below,
# whose errors are LabriskErrors naming the file and field.


class LabriskError(ValueError):
    """Malformed input from outside the program; the CLI exits 3 on it."""


def read_bytes(path) -> bytes:
    """The bytes of the file at `path`, or LabriskError naming the path."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise LabriskError(f"{path}: cannot read ({e})") from None


def parse_json(data: bytes, where):
    """The UTF-8 JSON document `data`, or LabriskError naming `where`."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise LabriskError(f"{where}: cannot read JSON ({e})") from None


def decode_fields(doc, where: str, decoders: dict, optional=()) -> dict:
    """{name: decoders[name](doc[name])} over the JSON object `doc`, absent
    `optional` names left out; LabriskError names `where` and the bad
    field."""
    if not isinstance(doc, dict):
        raise LabriskError(
            f"{where}: not a JSON object ({type(doc).__name__})")
    out = {}
    for name, decode in decoders.items():
        if name not in doc and name not in optional:
            raise LabriskError(f"{where}: missing field {name!r}")
        try:
            if name in doc:
                out[name] = decode(doc[name])
        except LabriskError:
            raise  # the decoder's own error, which names the field
        except (KeyError, TypeError, ValueError, AttributeError,
                OverflowError) as e:
            raise LabriskError(f"{where}: field {name!r}: {e!r}") from None
    return out


@functools.cache
def _hint(hint):
    """(hint is a dataclass, its origin, its args, the JSON types a value of
    it may have) of a field annotation, worked out once per annotation."""
    origin = typing.get_origin(hint) or hint
    return (dataclasses.is_dataclass(hint), origin, typing.get_args(hint),
            {float: (int, float), tuple: (list, tuple),
             frozenset: (list, frozenset)}.get(origin, origin))


def _as_field(hint, value, where: str):
    """`value` for a field annotated `hint`, or LabriskError naming `where`
    (an item as `where[i]` or `where.key`): a number becomes a float for a
    float hint, a list a tuple or set, and an object for a dataclass hint
    that dataclass."""
    is_dataclass, origin, args, accepts = _hint(hint)
    if is_dataclass:
        return config_from_json(hint, value, where)
    if origin is types.UnionType:  # X | None
        return value if value is None else _as_field(args[0], value, where)
    if (not isinstance(value, accepts)
            or (isinstance(value, bool) and origin is not bool)
            or (origin is tuple and ... not in args  # tuple[float, float]
                and len(value) != len(args))):
        raise LabriskError(
            f"{where}: expected {origin.__name__}, got {value!r}")
    if origin is dict and args:
        return {k: _as_field(args[1], v, f"{where}.{k}")
                for k, v in value.items()}
    if origin in (tuple, frozenset) and args:
        hints = (args if origin is tuple and ... not in args
                 else args[:1] * len(value))
        return origin(_as_field(h, v, f"{where}[{i}]")
                      for i, (h, v) in enumerate(zip(hints, value)))
    return float(value) if origin is float else value


# A dataclass's annotations are strings (PEP 563): evaluate them once.
_type_hints = functools.cache(typing.get_type_hints)


def config_from_json(cls, doc, where: str):
    """Dataclass `cls` from the JSON object `doc`, checked by its `validate`
    if it has one. A dataclass-typed field is decoded from the object of its
    name; a field with `rest` metadata takes the keys `cls` does not declare.
    LabriskError names `where` and an unknown key, a missing key or a value
    of the wrong type; any LabriskError of construction is prefixed
    likewise."""
    hints = _type_hints(cls)
    fields = dataclasses.fields(cls)
    for f in fields:
        if f.metadata.get("rest") and isinstance(doc, dict):
            own = hints.keys() - {f.name}
            doc = {**{k: doc[k] for k in doc if k in own},
                   f.name: {k: doc[k] for k in doc if k not in own}}
    for key in doc if isinstance(doc, dict) else ():
        if key not in hints:
            raise LabriskError(f"{where}: unknown key {key!r}")
    kwargs = decode_fields(
        doc, where,
        {f.name: lambda v, n=f.name: _as_field(hints[n], v, f"{where}: {n}")
         for f in fields},
        [f.name for f in fields if f.default is not dataclasses.MISSING
         or f.default_factory is not dataclasses.MISSING])
    try:
        obj = cls(**kwargs)
        if hasattr(obj, "validate"):
            obj.validate()
    except LabriskError as e:
        raise LabriskError(f"{where}: {e}") from None
    return obj
