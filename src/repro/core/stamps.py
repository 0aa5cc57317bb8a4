"""Level stamps (paper §3.1).

    "Genealogical dependencies among tasks can be monitored by a simple
    level numbering scheme. [...] Tasks in subsequent levels are stamped by
    appending one more digit to the number of their parents.  The term
    'digit' is used here generically and is not limited to a specific radix
    representation."

A stamp is the spawn path from the root task; ancestor/descendant
relationships are prefix tests.  A stamp is *not* a timestamp — its
uniqueness comes from the program structure, so stamping is fully
asynchronous and needs no coordination.

We exploit the paper's "generic digit" licence: a digit may be a plain
``int`` (spawn ordinal — used by synthetic tree workloads) or a tuple of
ints (the structural position of the spawn site inside the parent task's
evaluation — used by the language evaluator).  Structural digits make
stamp assignment *re-execution stable*: a regenerated twin of a task
assigns its children exactly the stamps the original assigned, regardless
of result-arrival order.  That stability is what lets splice recovery
match an orphan's salvaged result to the twin's demand (§4.1 cases 4-7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple, Union

Digit = Union[int, Tuple[int, ...]]


def _validate_digit(digit: Digit) -> None:
    if isinstance(digit, bool):
        raise TypeError("stamp digits must be ints or int tuples, not bool")
    if isinstance(digit, int):
        return
    if isinstance(digit, tuple) and all(
        isinstance(d, int) and not isinstance(d, bool) for d in digit
    ):
        return
    raise TypeError(f"invalid stamp digit: {digit!r}")


@dataclass(frozen=True, slots=True)
class LevelStamp:
    """A task's level stamp: the tuple of digits from the root.

    The root task carries the empty stamp (the paper's "null level
    number").  ``s.child(d)`` appends one digit.
    """

    digits: Tuple[Digit, ...] = ()

    def __post_init__(self) -> None:
        for digit in self.digits:
            _validate_digit(digit)

    def __hash__(self) -> int:
        # The dataclass-generated hash wraps digits in another tuple;
        # stamps key the simulator's hottest dicts, so hash the digits
        # directly (consistent with the generated __eq__ on digits).
        return hash(self.digits)

    # -- construction -------------------------------------------------------

    @staticmethod
    def _unchecked(digits: Tuple[Digit, ...]) -> "LevelStamp":
        """Internal: build a stamp from already-validated digits.

        Derivations of an existing stamp (child, parent, prefix) only
        ever recombine validated digits; skipping ``__post_init__``'s
        re-validation keeps them O(copy) instead of O(depth) checks.
        """
        stamp = object.__new__(LevelStamp)
        object.__setattr__(stamp, "digits", digits)
        return stamp

    @staticmethod
    def root() -> "LevelStamp":
        return _ROOT

    @staticmethod
    def of(*digits: Digit) -> "LevelStamp":
        """Build a stamp from digits: ``LevelStamp.of(0, 2, 1)``."""
        return LevelStamp(tuple(digits))

    def child(self, digit: Digit) -> "LevelStamp":
        """The stamp of this task's child at spawn position ``digit``."""
        _validate_digit(digit)
        return LevelStamp._unchecked(self.digits + (digit,))

    def parent(self) -> "LevelStamp":
        """The parent task's stamp; the root has no parent."""
        if not self.digits:
            raise ValueError("the root stamp has no parent")
        return LevelStamp._unchecked(self.digits[:-1])

    def ancestor_at(self, depth: int) -> "LevelStamp":
        """The ancestor stamp at the given depth (0 = root)."""
        if not 0 <= depth <= self.depth:
            raise ValueError(f"depth {depth} out of range for {self}")
        return LevelStamp._unchecked(self.digits[:depth])

    # -- structure ----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Level in the call tree (root = 0)."""
        return len(self.digits)

    @property
    def is_root(self) -> bool:
        return not self.digits

    @property
    def last_digit(self) -> Digit:
        if not self.digits:
            raise ValueError("the root stamp has no digits")
        return self.digits[-1]

    # -- genealogy ----------------------------------------------------------

    def is_ancestor_of(self, other: "LevelStamp") -> bool:
        """Strict ancestor test: proper prefix of ``other``."""
        return (
            len(self.digits) < len(other.digits)
            and other.digits[: len(self.digits)] == self.digits
        )

    def is_parent_of(self, other: "LevelStamp") -> bool:
        return (
            len(other.digits) == len(self.digits) + 1
            and other.digits[: len(self.digits)] == self.digits
        )

    # -- ordering / rendering -----------------------------------------------

    def sort_key(self) -> Tuple:
        """A total-order key (ints and tuple digits may be mixed)."""
        return tuple(
            (0, digit, ()) if isinstance(digit, int) else (1, -1, digit)
            for digit in self.digits
        )

    def __str__(self) -> str:
        if not self.digits:
            return "ε"
        parts = []
        for digit in self.digits:
            if isinstance(digit, int):
                parts.append(str(digit))
            else:
                parts.append("(" + "-".join(str(d) for d in digit) + ")")
        return ".".join(parts)

    def __repr__(self) -> str:
        return f"LevelStamp({self})"


_ROOT = LevelStamp(())


def topmost(stamps: Iterable[LevelStamp]) -> Tuple[LevelStamp, ...]:
    """The minimal antichain covering ``stamps``: every input stamp is a
    (weak) descendant of exactly one returned stamp, and no returned stamp
    is a descendant of another.

    This is the §3.2 rule — "redo only the most ancient ancestor and ignore
    the rest" — applied to a set.
    """
    kept: list[LevelStamp] = []
    for stamp in sorted(set(stamps), key=lambda s: s.depth):
        if not any(k == stamp or k.is_ancestor_of(stamp) for k in kept):
            kept.append(stamp)
    return tuple(sorted(kept, key=LevelStamp.sort_key))
