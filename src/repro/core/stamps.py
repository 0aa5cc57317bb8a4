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

A stamp is stored as §3.1 builds it: its parent's stamp (``up``), one
digit, its depth and its hash, computed once.  A child shares its
parent's whole prefix, so stamping is O(1), and a prefix test walks the
deeper stamp up by the depth gap.  Equality is by value, and stops as
soon as both walks reach one shared stamp.  ``digits`` is derived.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

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


class LevelStamp:
    """A task's level stamp: its parent's stamp with one digit appended.

    The root task carries the empty stamp (the paper's "null level
    number").  ``s.child(d)`` appends one digit.
    """

    __slots__ = ("up", "digit", "depth", "_hash")

    def __init__(self, up: Optional[LevelStamp], digit: Optional[Digit]) -> None:
        self.up, self.digit = up, digit
        self.depth = 0 if up is None else up.depth + 1
        self._hash = hash(()) if up is None else hash((up._hash, digit))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LevelStamp):
            return NotImplemented
        a, b = self, other
        if a._hash != b._hash or a.depth != b.depth:
            return False
        while a is not b:
            if a.digit != b.digit:
                return False
            a, b = a.up, b.up
        return True

    def __reduce__(self):
        # Through the digits, so a deep stamp pickles without recursing.
        return (LevelStamp.of, self.digits)

    # -- construction -------------------------------------------------------

    @staticmethod
    def root() -> LevelStamp:
        return _ROOT

    @staticmethod
    def of(*digits: Digit) -> LevelStamp:
        """Build a stamp from digits: ``LevelStamp.of(0, 2, 1)``."""
        stamp = _ROOT
        for digit in digits:
            stamp = stamp.child(digit)
        return stamp

    def child(self, digit: Digit) -> LevelStamp:
        """The stamp of this task's child at spawn position ``digit``."""
        _validate_digit(digit)
        return LevelStamp(self, digit)

    def parent(self) -> LevelStamp:
        """The parent task's stamp; the root has no parent."""
        if self.up is None:
            raise ValueError("the root stamp has no parent")
        return self.up

    def ancestor_at(self, depth: int) -> LevelStamp:
        """The ancestor stamp at the given depth (0 = root)."""
        if not 0 <= depth <= self.depth:
            raise ValueError(f"depth {depth} out of range for {self}")
        stamp = self
        for _ in range(self.depth - depth):
            stamp = stamp.up
        return stamp

    # -- structure ----------------------------------------------------------

    @property
    def digits(self) -> Tuple[Digit, ...]:
        """Every digit from the root, as a tuple (derived, O(depth))."""
        out = []
        stamp = self
        while stamp.up is not None:
            out.append(stamp.digit)
            stamp = stamp.up
        return tuple(reversed(out))

    @property
    def is_root(self) -> bool:
        return self.up is None

    @property
    def last_digit(self) -> Digit:
        if self.up is None:
            raise ValueError("the root stamp has no digits")
        return self.digit

    # -- genealogy ----------------------------------------------------------

    def is_ancestor_of(self, other: LevelStamp) -> bool:
        """Strict ancestor test: proper prefix of ``other``."""
        return self.depth < other.depth and other.ancestor_at(self.depth) == self

    def is_parent_of(self, other: LevelStamp) -> bool:
        return self == other.up

    # -- ordering / rendering -----------------------------------------------

    def sort_key(self) -> Tuple:
        """A total-order key (ints and tuple digits may be mixed)."""
        return tuple(
            (0, digit, ()) if isinstance(digit, int) else (1, -1, digit)
            for digit in self.digits
        )

    def __str__(self) -> str:
        return ".".join(
            str(digit) if isinstance(digit, int) else "(" + "-".join(map(str, digit)) + ")"
            for digit in self.digits
        ) or "ε"

    def __repr__(self) -> str:
        return f"LevelStamp({self})"


_ROOT = LevelStamp(None, None)


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
