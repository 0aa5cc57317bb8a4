"""Lexical environments.

Environments are immutable linked frames: extending an environment never
mutates the parent, so closures capture exactly the bindings visible at
abstraction time.  This is load-bearing for determinacy — a task packet
holding a closure can be re-activated at any time without seeing different
bindings.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.errors import UnboundVariableError


class Env:
    """An immutable chain of binding frames."""

    __slots__ = ("_frame", "_parent")

    def __init__(
        self,
        frame: Optional[Dict[str, Any]] = None,
        parent: Optional["Env"] = None,
    ):
        self._frame: Dict[str, Any] = dict(frame) if frame else {}
        self._parent = parent

    def lookup(self, name: str) -> Any:
        """Return the value bound to ``name``; raise if unbound."""
        env: Optional[Env] = self
        while env is not None:
            if name in env._frame:
                return env._frame[name]
            env = env._parent
        raise UnboundVariableError(name)

    def extend(self, names: Iterable[str], values: Iterable[Any]) -> "Env":
        """Return a child environment binding ``names`` to ``values``."""
        names = tuple(names)
        values = tuple(values)
        if len(names) != len(values):
            raise ValueError(
                f"cannot bind {len(names)} names to {len(values)} values"
            )
        return Env(dict(zip(names, values)), parent=self)

    def __contains__(self, name: str) -> bool:
        env: Optional[Env] = self
        while env is not None:
            if name in env._frame:
                return True
            env = env._parent
        return False

    def depth(self) -> int:
        """Number of frames in the chain."""
        n = 0
        env: Optional[Env] = self
        while env is not None:
            n += 1
            env = env._parent
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        keys: Tuple[str, ...] = tuple(sorted(self._frame))
        return f"Env({keys}, depth={self.depth()})"


EMPTY_ENV = Env()
