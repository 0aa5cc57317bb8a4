"""Named, seeded random-number streams.

Every stochastic decision in the simulator (task placement jitter, message
latency jitter, workload generation, fault schedules) draws from a *named*
stream so that adding randomness to one subsystem never perturbs another.
This is what makes a simulation run a pure function of its seed, which the
test suite and the benchmark harness both rely on.

The streams are a standard-library PCG64 (XSL-RR 128/64) that is bit for
bit ``numpy.random.default_rng(seed)`` on the scalar ``uniform`` and
``integers`` paths, so simulating imports no numpy and the golden digests
do not ride on a ``Generator`` stream NEP 19 does not promise to keep.
"""

from __future__ import annotations

# CPython's own BLAKE2b, which is what ``hashlib.blake2b`` re-exports;
# importing it directly keeps OpenSSL's libcrypto out of the process.
from _blake2 import blake2b

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TO_DOUBLE = 2.0**-53


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``root_seed`` and ``name``.

    Uses BLAKE2b rather than ``SeedSequence.spawn``, so stream independence
    never depended on numpy's spawning behaviour.
    """
    digest = blake2b(f"{root_seed}:{name}".encode("utf8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _seed_state(seed: int) -> tuple:
    """PCG64 ``(state, inc)`` as numpy seeds it from ``SeedSequence(seed)``:
    the seed's four 32-bit words hashed into a pool, every pool word mixed
    into every other, and eight output words (four uint64, low half first)
    fed to ``srandom(s0 << 64 | s1, s2 << 64 | s3)``.  ``hashmix``/``mix``
    are written out flat: an open-loop run seeds two streams per tree.
    """
    const = 0x43B0D7E5
    pool = []
    for shift in (0, 32, 64, 96):
        value = (seed >> shift & _M32) ^ const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        pool.append(value ^ value >> 16)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value = pool[src] ^ const
                const = const * 0x931E8875 & _M32
                value = value * const & _M32
                value ^= value >> 16
                value = (0xCA01F9DD * pool[dst] - 0x4973F715 * value) & _M32
                pool[dst] = value ^ value >> 16
    const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i & 3] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    inc = ((out[5] << 96 | out[4] << 64 | out[7] << 32 | out[6]) << 1 | 1) & _M128
    state = inc + (out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2])
    return (state * _PCG_MULT + inc) & _M128, inc


class Pcg64:
    """One stream: ``numpy.random.default_rng(seed)``'s scalar draws.

    Each draw inlines the 128-bit state step and the XSL-RR output so it
    costs one Python-level call.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        if not 0 <= seed < 1 << 128:
            raise ValueError(f"seed must be in [0, 2**128), got {seed}")
        self._state, self._inc = _seed_state(seed)
        #: The unread high half of the last 64-bit word a 32-bit draw
        #: split, or None; 64-bit draws leave it alone.
        self._half = None

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One float in ``[low, high)``: the top 53 bits of a 64-bit word."""
        self._state = s = (self._state * _PCG_MULT + self._inc) & _M128
        x = ((s >> 64) ^ s) & _M64
        r = s >> 122
        word = ((x >> r) | (x << (64 - r))) & _M64
        return low + (high - low) * ((word >> 11) * _TO_DOUBLE)

    def integers(self, low: int, high: int) -> int:
        """One integer in ``[low, high)`` by Lemire's multiply-and-reject,
        over 32-bit half-words (low half first, the high half kept for
        the next such draw) when the range fits them, as numpy does."""
        if not -(1 << 63) <= low < high <= 1 << 63:
            raise ValueError(f"need -2**63 <= low < high <= 2**63, got [{low}, {high})")
        span = high - low
        if span == 1:
            return low
        bits, mask = (32, _M32) if span <= 1 << 32 else (64, _M64)
        reject_below = (mask + 1) % span
        while True:
            if bits == 32 and self._half is not None:
                word, self._half = self._half, None
            else:
                self._state = s = (self._state * _PCG_MULT + self._inc) & _M128
                x = ((s >> 64) ^ s) & _M64
                r = s >> 122
                word = ((x >> r) | (x << (64 - r))) & _M64
                if bits == 32:
                    self._half = word >> 32
                    word &= _M32
            scaled = word * span
            if scaled & mask >= reject_below:
                return low + (scaled >> bits)


class _Streams(dict):
    """``name -> Pcg64``; a miss seeds the stream, a hit is one C lookup."""

    def __init__(self, seed: int):
        self.seed = seed

    def __missing__(self, name: str) -> Pcg64:
        gen = self[name] = Pcg64(_derive_seed(self.seed, name))
        return gen


class RngHub:
    """A factory of independent, reproducible random streams.

    Parameters
    ----------
    seed:
        Root seed.  Two hubs with the same seed produce identical streams
        for identical stream names, in any order of first use.

    Examples
    --------
    >>> hub = RngHub(42)
    >>> a = hub.stream("placement")
    >>> b = hub.stream("latency")
    >>> a is hub.stream("placement")
    True
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams = _Streams(seed)

    def stream(self, name: str) -> Pcg64:
        """Return the stream named ``name``, creating it on first use."""
        return self._streams[name]

    @property
    def untouched(self) -> bool:
        """True while no stream exists: nothing has drawn on the root seed.

        >>> hub = RngHub(42)
        >>> hub.untouched
        True
        >>> _ = hub.uniform("latency")
        >>> hub.untouched
        False
        """
        return not self._streams

    def spawn(self, name: str) -> "RngHub":
        """Return a child hub whose root seed is derived from ``name``.

        Useful for giving each experiment repetition its own hub without
        correlation between repetitions.
        """
        return RngHub(_derive_seed(self.seed, f"spawn:{name}"))

    def integers(self, name: str, low: int, high: int) -> int:
        """Draw one integer in ``[low, high)`` from stream ``name``."""
        return self._streams[name].integers(low, high)

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """Draw one float in ``[low, high)`` from stream ``name``."""
        return self._streams[name].uniform(low, high)

    def choice(self, name: str, options):
        """Pick one element of ``options`` uniformly from stream ``name``."""
        options = list(options)
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        return options[self._streams[name].integers(0, len(options))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngHub(seed={self.seed}, streams={sorted(self._streams)})"
