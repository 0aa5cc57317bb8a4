"""One table-driven suite for every ``name:key=value,...`` family.

The families are read straight from their ``Param`` tables — each fault
model, each arrival process, the machine fields, the parameterised
policies — and every one is held to the same rules of the clause kernel
(:mod:`repro.load.grammar`): ``parse(to_spec_str(s)) == s``, declaration
order as the normal form, and one positioned ``SpecError`` per failure
(unknown key, duplicate key, missing required, bad scalar, bad choice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import ArrivalSpec, MachineSpec, NemesisSpec, PolicySpec, SpecError
from repro.api.specs import MACHINE_PARAMS, POLICY_PARAMS
from repro.faults.registry import param_tables
from repro.load import PROCESSES
from repro.load.grammar import Param, coerce, fmt_num, pieces, render_clause, render_params


@dataclass(frozen=True)
class Family:
    label: str
    prefix: str  # the SpecError field prefix
    name: str  # clause name ("" for the name-less machine grammar)
    table: Mapping[str, Param]
    parse: Callable[[str], Any]
    given: Callable[[Any], Dict[str, Any]]  # spec -> the values it carries
    keyed: bool = True  # False for the positional ``replicated:K``
    min_int: int = 0  # the least integer the family's parse accepts

    def spell(self, items) -> str:
        if not self.keyed:
            return render_clause(self.name, ()) + "".join(f":{fmt_num(v)}" for _, v in items)
        return render_clause(self.name, items) if self.name else render_params(items)


def _machine_values(spec: MachineSpec) -> Dict[str, Any]:
    return {**spec.to_json(), **{f"cost.{k}": v for k, v in spec.cost}}


FAMILIES = (
    [
        Family(f"nemesis-{name}", "nemesis", name, table,
               NemesisSpec.parse, lambda s: dict(s.clauses[0].params))
        for name, table in param_tables().items()
    ]
    + [
        Family(f"arrivals-{name}", "arrivals", name, table,
               ArrivalSpec.parse, lambda s: dict(s.params))
        for name, table in PROCESSES.items()
    ]
    + [
        Family("machine", "machine", "", MACHINE_PARAMS, MachineSpec.parse, _machine_values),
        Family("policy-incremental", "policy", "incremental", POLICY_PARAMS["incremental"],
               PolicySpec.parse, lambda s: {"persist": s.persist}),
        Family("policy-replicated", "policy", "replicated", POLICY_PARAMS["replicated"],
               PolicySpec.parse, lambda s: {"k": s.k}, keyed=False, min_int=1),
    ]
)
KEYED = [f for f in FAMILIES if f.keyed]

by_label = pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
keyed_by_label = pytest.mark.parametrize("family", KEYED, ids=lambda f: f.label)


def _values(param: Param, min_int: int = 0):
    if param.kind == "choice":
        return st.sampled_from(param.choices)
    if param.kind == "nodes":
        return st.lists(st.integers(0, 63), min_size=1, max_size=4).map(tuple)
    if param.kind == "flag":
        return st.integers(0, 1)
    if param.kind == "int":
        return st.integers(min_int, 10**6)
    return st.floats(allow_nan=False)  # inf is a legal float (chaos:dur)


def _sample(param: Param) -> Any:
    """One legal value, for building otherwise-valid clauses."""
    if param.kind == "choice":
        return param.choices[0]
    return (0, 1) if param.kind == "nodes" else 1


def _required(family: Family):
    return [(key, _sample(p)) for key, p in family.table.items() if p.required]


@by_label
@given(data=st.data())
def test_parse_render_roundtrip_in_declaration_order(family, data):
    drawn = {
        key: data.draw(_values(param, family.min_int), label=key)
        for key, param in family.table.items()
        if param.required or data.draw(st.booleans(), label=f"give {key}")
    }
    text = family.spell(data.draw(st.permutations(sorted(drawn.items()))))
    spec = family.parse(text)
    carried = family.given(spec)
    assert {key: carried[key] for key in drawn} == drawn
    canonical = spec.to_spec_str()
    assert family.parse(canonical) == spec
    assert family.parse(canonical).to_spec_str() == canonical  # a fixed point
    if family.keyed:
        body = canonical[len(family.name) + 1:] if family.name else canonical
        keys = [item.partition("=")[0] for item in body.split(",") if item]
        assert keys == [key for key in family.table if key in keys]


@keyed_by_label
def test_unknown_key_lists_the_table_and_points_at_the_item(family):
    text = family.spell(_required(family) + [("zzz", 1)])
    with pytest.raises(SpecError, match="unknown parameter") as err:
        family.parse(text)
    assert err.value.value == "zzz"
    assert err.value.allowed == tuple(family.table)
    assert err.value.field == f"{family.prefix}.{family.name}".rstrip(".")
    assert text[err.value.position:].startswith("zzz=")


@keyed_by_label
def test_duplicate_key_is_an_error_at_the_second_occurrence(family):
    key, param = next(iter(family.table.items()))
    items = _required(family) or [(key, _sample(param))]
    text = family.spell(items + [items[0]])
    with pytest.raises(SpecError, match="duplicate parameter") as err:
        family.parse(text)
    assert err.value.field == f"{family.prefix}.{items[0][0]}"
    assert err.value.position == text.rindex(f"{items[0][0]}=")
    assert err.value.position > text.index(f"{items[0][0]}=")


@pytest.mark.parametrize(
    "family", [f for f in KEYED if _required(f)], ids=lambda f: f.label
)
def test_missing_required_parameter_names_it(family):
    required = _required(family)
    with pytest.raises(SpecError, match="missing parameters") as err:
        family.parse(family.spell(required[1:]))
    assert err.value.value == [required[0][0]]
    assert err.value.field == f"{family.prefix}.{family.name}"


@by_label
def test_bad_scalar_and_bad_choice_point_at_the_value(family):
    for key, param in family.table.items():
        items = [(k, v) for k, v in _required(family) if k != key] + [(key, "?")]
        text = family.spell(items)
        with pytest.raises(SpecError, match="bad value") as err:
            family.parse(text)
        assert err.value.field == f"{family.prefix}.{key}", text
        assert err.value.value == "?"
        assert err.value.allowed == (param.choices or None)
        assert text[err.value.position:].startswith("?"), text


@keyed_by_label
def test_items_must_be_key_value(family):
    no_value = family.spell(_required(family) + [("zzz", "")])
    for text, item in ((no_value, "zzz="), (no_value[:-1], "zzz")):
        with pytest.raises(SpecError, match="key=value") as err:
            family.parse(text)
        assert text[err.value.position:] == item


@pytest.mark.parametrize(
    "parse,text,family,item,position",
    [
        (NemesisSpec.parse, "crash:at=0.4,node", "nemesis", "node", 13),
        (NemesisSpec.parse, "crash:at=0.4,,node=1", "nemesis", "", 13),
        (NemesisSpec.parse, "crash:at=0.4,node=1+jitter:max", "nemesis", "max", 27),
        (MachineSpec.parse, "processors=4,topology", "machine", "topology", 13),
        (ArrivalSpec.parse, "poisson:rate=1,horizon", "arrivals", "horizon", 15),
        (PolicySpec.parse, "incremental:persist", "policy", "persist", 12),
    ],
)
def test_an_item_without_a_value_is_pinned_in_full(parse, text, family, item, position):
    with pytest.raises(SpecError) as err:
        parse(text)
    assert str(err.value) == (
        f"expected key=value in {family} spec, got {item!r} at position {position} in {text!r}"
    )
    assert (err.value.field, err.value.value, err.value.allowed, err.value.position) == (
        family, item, None, position
    )
    assert err.value.spec == text


@given(st.text(alphabet="ab+,:=", max_size=12), st.sampled_from("+,:"), st.integers(0, 9))
def test_pieces_rejoin_the_list_and_index_the_spec(text, sep, offset):
    spec = "x" * offset + text
    got = list(pieces(text, sep, offset))
    assert sep.join(piece for piece, _ in got) == text
    for piece, at in got:
        assert spec[at:at + len(piece)] == piece and (at == offset or spec[at - 1] == sep)


# -- the typed scalar parser: one coercion for spec tokens and JSON values ------


@pytest.mark.parametrize(
    "kind,raw,value",
    [
        ("int", "7", 7), ("int", 7, 7), ("int", 7.0, 7), ("flag", "1", 1),
        ("float", "0.5", 0.5), ("float", 2, 2.0), ("float", "inf", float("inf")),
        ("nodes", "0-1-3", (0, 1, 3)), ("nodes", [0, 1, 3], (0, 1, 3)),
    ],
)
def test_coerce_accepts_strings_and_json_values_alike(kind, raw, value):
    got = coerce(Param(kind, None, ""), raw, field="f")
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize(
    "kind,raw",
    [
        ("int", 4.7), ("int", True), ("int", "4.7"), ("int", None), ("int", float("inf")),
        ("flag", False), ("float", "nan"), ("float", float("nan")), ("float", True),
        ("float", None), ("float", [1]), ("nodes", 3), ("nodes", "0-x"), ("nodes", [0, 1.5]),
    ],
)
def test_coerce_rejects_what_the_kind_cannot_say(kind, raw):
    with pytest.raises(SpecError, match="bad value") as err:
        coerce(Param(kind, None, ""), raw, field="f")
    assert err.value.field == "f"


def test_fmt_num_is_lossless_and_separator_free():
    assert fmt_num(40.0) == "40" and fmt_num(0.05) == "0.05" and fmt_num(7) == "7"
    assert fmt_num(1e16) == "1e16" and float(fmt_num(1e16)) == 1e16
    assert fmt_num(float("inf")) == "inf"
