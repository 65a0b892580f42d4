"""Deterministic random streams.

Everything stochastic in this package draws from :class:`RandomStream`, a
pure-integer xoshiro256** generator. Identical seeds give identical draw
sequences on every platform, which is what makes augmentation outputs
byte-reproducible across worker counts and machines.

Substreams are derived, not split: ``derive_seed(seed, index)`` is a pure
function, so any worker can reconstruct the stream for image ``index``
without coordination.

Bulk draws (``u64s``, ``below_many``, ``uniforms``, ``bytes``) return numpy
arrays holding exactly the values that the same number of scalar calls
would return, and leave the stream where those calls would. Large draws
use the generator's linearity over GF(2): the state transition is a
256x256 bit matrix T, so lanes started ``BLOCK`` draws apart (by powers
of T**BLOCK, the jump technique of Blackman and Vigna, "Scrambled linear
pseudorandom number generators", ACM TOMS 2021) can all be stepped at
once as ``uint64`` arrays.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["MASK64", "GOLDEN_GAMMA", "splitmix64", "derive_seed", "RandomStream"]

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_TWO53_INV = 2.0 ** -53

# Draws per lane, and the draw count from which seeding and stepping lanes
# beats the scalar loop. Both were measured on a 2-core Xeon VM with
# CPython 3.11 and numpy 2.4 (figures in CHANGES.md).
BLOCK = 16
CROSSOVER = 512
# Lanes stepped together in one pass; bounds the pass's buffers.
LANES_PER_PASS = 1024

# _JUMPS[i] is T**(BLOCK * 2**i) as a (1024, 4) table of u64 words
# (32 KiB): row 16p + v is the advanced state of a state whose only set
# bits are the nibble v at bits 4p..4p+3. Built on the first bulk draw
# of CROSSOVER or more values, under the lock.
_JUMPS: list[np.ndarray] = []
_JUMPS_LOCK = threading.Lock()
_U64 = np.dtype("<u8")


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64(x: int) -> int:
    """One full splitmix64 step from state ``x``: advance by the golden
    gamma, then mix. Convention fixed here; seeding and derivation below
    depend on it."""
    return _mix((x + GOLDEN_GAMMA) & MASK64)


def derive_seed(stream_seed: int, index: int) -> int:
    """Pure substream derivation: splitmix64(seed XOR index * golden gamma)."""
    x = (stream_seed ^ ((index * GOLDEN_GAMMA) & MASK64)) & MASK64
    return splitmix64(x)


def _run_lanes(state: np.ndarray, steps: int, s1_words=None) -> None:
    """Advance every lane ``steps`` draws, in place. ``state`` holds the
    lanes' state words as rows (4, lanes); with ``s1_words``, row i of it
    receives the lanes' s1 word before step i."""
    s0, s1, s2, s3 = state
    low, high, crossed = state[:2], state[2:], state[:1:-1]
    t = np.empty_like(s0)
    xor, shl, shr, bor = np.bitwise_xor, np.left_shift, np.right_shift, np.bitwise_or
    for i in range(steps):
        if s1_words is not None:
            s1_words[i] = s1
        shl(s1, np.uint64(17), out=t)
        xor(high, low, out=high)      # s2 ^= s0, s3 ^= s1
        xor(low, crossed, out=low)    # s0 ^= s3, s1 ^= s2
        xor(s2, t, out=s2)
        shl(s3, np.uint64(45), out=t)
        shr(s3, np.uint64(19), out=s3)
        bor(s3, t, out=s3)


def _scramble(x: np.ndarray) -> np.ndarray:
    """The ** output function, in place on an array of s1 words."""
    x *= np.uint64(5)
    high = x >> np.uint64(57)
    x <<= np.uint64(7)
    x |= high
    x *= np.uint64(9)
    return x


_NIBBLE_BASE = np.arange(64, dtype=np.intp)[:, None] * 16


def _apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """A bit matrix, given as its nibble table, times each row of (m, 4)
    state words: the XOR of one table entry per 4-bit group of the state.
    Works through 128 states at a time, so the gathered entries stay
    within 256 KiB."""
    out = np.empty((len(states), 4), dtype=_U64)
    for start in range(0, len(states), 128):
        chunk = np.ascontiguousarray(states[start:start + 128], dtype=_U64)
        data = chunk.view(np.uint8).T
        index = np.empty((64, len(chunk)), dtype=np.intp)
        index[0::2] = data & 15
        index[1::2] = data >> 4
        index += _NIBBLE_BASE
        out[start:start + 128] = np.bitwise_xor.reduce(np.take(table, index, axis=0), axis=0)
    return out


def _nibble_table(columns: np.ndarray) -> np.ndarray:
    """(1024, 4) table of a bit matrix from its (256, 4) columns: entry
    16p + v is the XOR of the columns 4p + b for the bits b set in v."""
    pick = (np.arange(16) >> np.arange(4)[:, None]) & 1 == 1
    terms = np.where(pick[None, :, :, None], columns.reshape(64, 4, 1, 4), np.uint64(0))
    return np.bitwise_xor.reduce(terms, axis=1).reshape(1024, 4)


def _jump(level: int) -> np.ndarray:
    """Nibble table of T**(BLOCK * 2**level), built and cached on first use."""
    with _JUMPS_LOCK:
        while len(_JUMPS) <= level:
            if _JUMPS:
                # square the last matrix: apply it to its own columns
                table = _JUMPS[-1]
                columns = _apply(table, table.reshape(64, 16, 4)[:, [1, 2, 4, 8]].reshape(256, 4))
            else:
                # step each basis state BLOCK times
                k = np.arange(256)
                basis = np.zeros((4, 256), dtype=_U64)
                basis[k // 64, k] = np.uint64(1) << (k % 64).astype(_U64)
                _run_lanes(basis, BLOCK)
                columns = basis.T
            _JUMPS.append(_nibble_table(columns))
        return _JUMPS[level]


class RandomStream:
    """xoshiro256** with 256-bit state, seeded by splitmix64 expansion of a
    64-bit seed (four successive outputs fill the state words)."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        state = seed & MASK64
        words = []
        for _ in range(4):
            state = (state + GOLDEN_GAMMA) & MASK64
            words.append(_mix(state))
        self._s0, self._s1, self._s2, self._s3 = words

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & MASK64
        result = ((((x << 7) | (x >> 57)) & MASK64) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def next_float64(self) -> float:
        """Uniform in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * _TWO53_INV

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float64()

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        k = int(self.next_float64() * n)
        return n - 1 if k >= n else k

    def next_byte(self) -> int:
        """Uniform byte; low 8 bits of one u64 draw."""
        return self.next_u64() & 0xFF

    def _s1_words(self, n: int) -> list[int]:
        """Advance ``n`` draws with scalar arithmetic, returning the s1 word
        each draw's output is computed from."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        words = []
        append = words.append
        for _ in range(n):
            append(s1)
            t = (s1 << 17) & MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return words

    def _lane_s1_words(self, out: np.ndarray) -> None:
        """Advance ``len(out)`` draws, a multiple of BLOCK, by stepping one
        lane per BLOCK draws, all together; ``out`` receives the s1 words
        in draw order."""
        lanes = len(out) // BLOCK
        states = np.array([[self._s0, self._s1, self._s2, self._s3]], dtype=_U64)
        level = 0
        while len(states) < lanes:
            more = _apply(_jump(level), states[:lanes - len(states)])
            states = np.concatenate([states, more])
            level += 1
        state = np.ascontiguousarray(states.T)
        words = np.empty((BLOCK, lanes), dtype=_U64)
        _run_lanes(state, BLOCK, words)
        # the last lane ends where len(out) scalar draws would
        self._s0, self._s1, self._s2, self._s3 = (int(w) for w in state[:, -1])
        out.reshape(lanes, BLOCK)[...] = words.T

    def u64s(self, n: int) -> np.ndarray:
        """``n`` draws as a uint64 array: the values of ``n`` calls of
        :meth:`next_u64`, leaving the stream where those calls would."""
        if n < 0:
            raise ValueError("n must be non-negative")
        out = np.empty(n, dtype=_U64)
        done = 0
        while n - done >= CROSSOVER:
            size = min(n - done, LANES_PER_PASS * BLOCK) // BLOCK * BLOCK
            self._lane_s1_words(out[done:done + size])
            done += size
        out[done:] = self._s1_words(n - done)
        return _scramble(out)

    def _floats(self, n: int) -> np.ndarray:
        bits = self.u64s(n)
        bits >>= np.uint64(11)
        out = bits.astype(np.float64)
        out *= _TWO53_INV
        return out

    def uniforms(self, n: int, lo: float, hi: float) -> np.ndarray:
        """``n`` calls of :meth:`uniform` as a float64 array."""
        out = self._floats(n)
        out *= hi - lo
        out += lo
        return out

    def below_many(self, n: int, k) -> np.ndarray:
        """``n`` calls of :meth:`next_below` as an int64 array. ``k`` is one
        bound for every draw or an array of ``n`` bounds, one per draw."""
        k = np.asarray(k, dtype=np.int64)
        if np.any(k <= 0):
            raise ValueError("k must be positive")
        scaled = self._floats(n)
        scaled *= k
        draws = scaled.astype(np.int64)
        return np.minimum(draws, k - 1, out=draws)

    def bytes(self, n: int) -> np.ndarray:
        """``n`` calls of :meth:`next_byte` as a uint8 array."""
        return (self.u64s(n) & np.uint64(0xFF)).astype(np.uint8)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, one draw per swap."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
