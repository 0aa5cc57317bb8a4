"""The one clause grammar behind every ``name:key=value,...`` spec.

A spec family (fault models, arrival processes, the machine fields, the
parameterised policies) declares a table ``{key: Param}`` per name; this
module derives parsing, rendering, defaults (:func:`resolve`) and
diagnostics from those tables, so no family writes its own.  Every list
in a spec — the ``+`` compositions, a clause's ``,`` items, a workload's
``:`` arguments — is split by :func:`pieces`, the one splitter that
keeps each piece's offset in the spec.  The same typed coercion serves
spec strings and JSON values: a document cannot load what a string could
not say.
(The kernel belongs to the ``repro.api`` layer; the file sits in
``load/`` because the benchmark's frozen layer map lists ``api/`` file
by file, and ``load`` is the table-owning package ``api.specs`` imports.)

Kinds: ``int`` and ``flag`` (integers; booleans and non-integral numbers
are rejected), ``float`` (any number but NaN — ``inf`` is legal),
``nodes`` (``0-1-3`` / ``[0, 1, 3]``), ``choice`` (one of ``choices``).

Error cases, all :class:`~repro.errors.SpecError`: unknown name / item
that is not ``key=value`` (field = the family, position at the clause /
item), unknown key / missing required parameter (field =
``family.name``; ``allowed`` lists the table), duplicate key / bad
scalar / bad choice (field = ``family.key``, position at the second
occurrence / at the value).  Parsed parameters come back in declaration
order, only the given ones.

>>> table = {"rate": Param("float", None, "mean rate"), "cap": Param("int", 0, "inbox")}
>>> parse_clause("poisson:cap=4,rate=1e+2", {"poisson": table}, family="arrivals", noun="process")
('poisson', (('rate', 100.0), ('cap', 4)))
>>> render_clause("poisson", (("rate", 100.0), ("cap", 4)))
'poisson:rate=100,cap=4'
>>> coerce(table["cap"], 4.7, field="arrivals.cap")
Traceback (most recent call last):
    ...
repro.errors.SpecError: bad value 4.7 for arrivals.cap (expected int)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.errors import SpecError

Params = Tuple[Tuple[str, Any], ...]


@dataclass(frozen=True)
class Param:
    """Declaration of one spec parameter."""

    kind: str  # "int" | "flag" | "float" | "nodes" | "choice"
    default: Any  # None = required
    doc: str
    choices: Tuple[str, ...] = ()
    #: True for time-like values given as fractions of the baseline
    #: makespan (scaled when the spec is built).
    fraction: bool = False

    @property
    def required(self) -> bool:
        return self.default is None

    def describe_default(self) -> str:
        return "required" if self.required else render_value(self.default)


#: Scalar declarations for the positional grammars (workload args, fault
#: ``T:NODE`` entries, run-level ``seed``), which have no tables.
INT = Param("int", None, "integer")
FLOAT = Param("float", None, "number")


def fmt_num(value: Any) -> str:
    """Canonical, lossless rendering of a spec number.

    ``repr`` keeps full float precision; integral floats drop the
    trailing ``.0`` so ``span=40`` survives a parse/render cycle
    byte-for-byte, and positive exponent signs are dropped (``1e+16`` ->
    ``1e16``, same float) because ``+`` separates entries and clauses.
    """
    if isinstance(value, float):
        text = repr(value).replace("e+", "e")
        return text[:-2] if text.endswith(".0") else text
    return str(value)


def render_value(value: Any) -> str:
    if isinstance(value, tuple):
        return "-".join(str(n) for n in value)
    return value if isinstance(value, str) else fmt_num(value)


def render_params(params: Iterable[Tuple[str, Any]]) -> str:
    return ",".join(f"{key}={render_value(value)}" for key, value in params)


def render_clause(name: str, params: Iterable[Tuple[str, Any]]) -> str:
    body = render_params(params)
    return f"{name}:{body}" if body else name


def _to_int(raw: Any) -> int:
    if type(raw) is int:  # not bool
        return raw
    if isinstance(raw, str):
        return int(raw)
    if isinstance(raw, float) and raw == int(raw):
        return int(raw)
    raise ValueError(raw)


def _to_float(raw: Any) -> float:
    value = float(raw)
    if isinstance(raw, bool) or value != value:  # NaN is not a time, a rate or a probability
        raise ValueError(raw)
    return value


def _to_nodes(raw: Any) -> Tuple[int, ...]:
    return tuple(_to_int(n) for n in (raw.split("-") if isinstance(raw, str) else raw))


_READERS = {"int": _to_int, "flag": _to_int, "float": _to_float, "nodes": _to_nodes}


def coerce(
    param: Param, raw: Any, *, field: str,
    spec: Optional[str] = None, position: Optional[int] = None,
) -> Any:
    """``raw`` (a spec token or a JSON value) as ``param``'s type."""
    try:
        if param.kind != "choice":
            return _READERS[param.kind](raw)
        if raw in param.choices:
            return raw
    except (TypeError, ValueError, OverflowError):
        pass
    expected = "" if param.kind == "choice" else f" (expected {param.kind})"
    raise SpecError(
        f"bad value {raw!r} for {field}{expected}",
        spec=spec, field=field, value=raw, allowed=param.choices or None, position=position,
    )


def check_params(
    items: Iterable[Tuple[str, Any, Optional[int], Optional[int]]],
    table: Mapping[str, Param], *, family: str, name: str = "",
    spec: Optional[str] = None, position: Optional[int] = None,
) -> Params:
    """Type ``(key, raw, item position, value position)`` items against ``table``."""
    owner = f"{family}.{name}" if name else family
    given = {}
    for key, raw, at, value_at in items:
        if key not in table:
            raise SpecError(
                f"unknown parameter {key!r} for {owner}",
                spec=spec, field=owner, value=key, allowed=tuple(table), position=at,
            )
        if key in given:
            raise SpecError(
                f"duplicate parameter {key!r} for {owner}",
                spec=spec, field=f"{family}.{key}", value=key, position=at,
            )
        given[key] = coerce(
            table[key], raw, field=f"{family}.{key}", spec=spec, position=value_at
        )
    ordered, missing = [], []
    for key, param in table.items():
        if key in given:
            ordered.append((key, given[key]))
        elif param.default is None:
            missing.append(key)
    if missing:
        raise SpecError(
            f"{owner} missing parameters: {missing}",
            spec=spec, field=owner, value=missing, position=position,
        )
    return tuple(ordered)


def resolve(table: Mapping[str, Param], params: Iterable[Tuple[str, Any]]) -> Dict[str, Any]:
    """The declared defaults of ``table`` overlaid by the given ``params``,
    in declaration order.

    >>> resolve({"rate": Param("float", None, ""), "cap": Param("int", 0, "")}, (("rate", 2.0),))
    {'rate': 2.0, 'cap': 0}
    """
    given = dict(params)
    return {key: given.get(key, param.default) for key, param in table.items()}


def pieces(text: str, sep: str, offset: int = 0) -> Iterator[Tuple[str, int]]:
    """Each piece of the ``sep``-separated list ``text`` (a ``+``, ``,`` or
    ``:`` list), with its offset in a spec in which ``text`` starts at
    ``offset``.

    >>> list(pieces("at=0.4,node=1", ",", offset=6))
    [('at=0.4', 6), ('node=1', 13)]
    >>> list(pieces("300:2++", "+"))
    [('300:2', 0), ('', 6), ('', 7)]
    """
    for piece in text.split(sep):
        yield piece, offset
        offset += len(piece) + 1


def parse_params(
    body: str, table: Mapping[str, Param], *, family: str, name: str = "",
    spec: str, offset: int = 0,
) -> Params:
    """Parse a ``key=value,...`` body that starts at ``offset`` in ``spec``."""
    items = []
    for item, at in pieces(body, ",", offset) if body.strip() else ():
        key, eq, raw = item.partition("=")
        if not eq or not raw.strip():
            raise SpecError(
                f"expected key=value in {family} spec, got {item!r}",
                spec=spec, field=family, value=item, position=at,
            )
        items.append((key.strip(), raw.strip(), at, at + len(key) + 1))
    return check_params(items, table, family=family, name=name, spec=spec, position=offset)


def parse_clause(
    text: str, tables: Mapping[str, Mapping[str, Param]], *, family: str, noun: str,
    spec: Optional[str] = None, offset: int = 0,
) -> Tuple[str, Params]:
    """Parse one ``name:key=value,...`` clause against its family's tables.

    ``spec``/``offset`` locate the clause inside a longer composition so
    positions index the string the user wrote.
    """
    spec = text if spec is None else spec
    head, _, body = text.partition(":")
    name = head.strip()
    if name not in tables:
        raise SpecError(
            f"unknown {noun} {name!r}",
            spec=spec, field=family, value=name, allowed=tuple(tables), position=offset,
        )
    params = parse_params(
        body, tables[name], family=family, name=name, spec=spec,
        offset=offset + len(head) + 1,
    )
    return name, params
