"""Program compilation: top-level ``define`` forms plus one main expression.

A *program* is what the machine evaluates: a set of named first-order
function definitions and a main expression.  Global functions are the unit
of distributed task spawning, so the compiled :class:`Program` is shared
(read-only) by every simulated processor — exactly the "function
information" half of a functional checkpoint (§2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.errors import ParseError
from repro.lang.astnodes import Expr, expr_from_form
from repro.lang.sexpr import parse_many
from repro.lang.values import Symbol


@dataclass(frozen=True)
class FunctionDef:
    """A named top-level function definition."""

    name: str
    params: Tuple[str, ...]
    body: Expr

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class Program:
    """A compiled program: global definitions and a main expression."""

    defs: Dict[str, FunctionDef] = field(default_factory=dict)
    main: Expr = None  # type: ignore[assignment]
    source: str = ""

    def function(self, name: str) -> FunctionDef:
        """Look up a definition; KeyError is a caller bug, so let it raise."""
        return self.defs[name]

    def with_main(self, main_source: str) -> "Program":
        """Return a copy of this program with a different main expression.

        Lets one set of definitions drive many experiments (e.g. ``(fib 10)``
        vs ``(fib 14)``) without re-parsing the definition library.
        """
        forms = parse_many(main_source)
        if len(forms) != 1:
            raise ParseError("with_main expects exactly one expression")
        return Program(defs=self.defs, main=expr_from_form(forms[0]), source=self.source)

    def __repr__(self) -> str:
        return f"Program(defs={sorted(self.defs)}, main={self.main!r})"


def _is_define(form: Any) -> bool:
    return (
        isinstance(form, list)
        and len(form) > 0
        and isinstance(form[0], Symbol)
        and str(form[0]) == "define"
    )


def _compile_define(form: List[Any]) -> FunctionDef:
    # (define (name p1 p2 ...) body)
    if len(form) != 3:
        raise ParseError(f"define takes a signature and one body: {form!r}")
    sig = form[1]
    if (
        not isinstance(sig, list)
        or not sig
        or not all(isinstance(s, Symbol) for s in sig)
    ):
        raise ParseError(f"malformed define signature: {sig!r}")
    name = str(sig[0])
    params = tuple(str(p) for p in sig[1:])
    if len(set(params)) != len(params):
        raise ParseError(f"duplicate parameter in define {name}: {params}")
    return FunctionDef(name=name, params=params, body=expr_from_form(form[2]))


def compile_program(source: str) -> Program:
    """Compile source text into a :class:`Program`.

    The source may contain any number of ``define`` forms and exactly one
    main expression (in any order).
    """
    forms = parse_many(source)
    defs: Dict[str, FunctionDef] = {}
    mains: List[Expr] = []
    for form in forms:
        if _is_define(form):
            fdef = _compile_define(form)
            if fdef.name in defs:
                raise ParseError(f"duplicate definition of {fdef.name!r}")
            defs[fdef.name] = fdef
        else:
            mains.append(expr_from_form(form))
    if len(mains) != 1:
        raise ParseError(
            f"program must contain exactly one main expression, found {len(mains)}"
        )
    return Program(defs=defs, main=mains[0], source=source)
