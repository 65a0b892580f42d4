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
would return, and the next draw is the one those calls would give. Large
draws use the generator's linearity over GF(2): the state transition is a
256x256 bit matrix T, so lanes started ``BLOCK`` (or ``2 * BLOCK``) draws
apart (by powers of T**BLOCK, the jump technique of Blackman and Vigna,
"Scrambled linear pseudorandom number generators", ACM TOMS 2021) can all
be stepped at once as ``uint64`` arrays. A lane pass's cost is mostly
fixed (the jumps to the lane starts and the per-step array calls), so a
pass for a large draw also computes the ``READ_AHEAD`` draws after it and
keeps them for the stream's next calls, scalar or bulk. A default-policy
view of a 128 px image makes one lane pass, where it made 3.875 without
the read-ahead (one for mixing and one per random-erasing rectangle).
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["MASK64", "GOLDEN_GAMMA", "splitmix64", "derive_seed", "RandomStream"]

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_TWO53_INV = 2.0 ** -53

# Draws per lane (in passes of up to LANES_PER_PASS * BLOCK draws), and the
# draw count from which seeding and stepping lanes beats the scalar loop.
# Both were measured on a 2-core Xeon VM with CPython 3.11 and numpy 2.4
# (figures in CHANGES.md).
BLOCK = 16
CROSSOVER = 512
# A lane pass for a draw of READ_AHEAD values or more also computes the
# next READ_AHEAD, which the stream hands out before stepping again: a
# 128 px view's mixing pass then covers its random-erasing fills. Smaller
# draws read nothing ahead; a 16 px synthetic image's stream makes one
# 768-value draw and ends, so an extra jump level there would be waste.
READ_AHEAD = 8192
# Most lanes stepped together in one pass. A pass of more draws than
# LANES_PER_PASS * BLOCK starts its lanes 2 * BLOCK draws apart, so a pass
# holds at most 32,768 draws (256 KiB per buffer): a 128 px mixing draw and
# its read-ahead (16,384 + 8,192) take one pass of 768 lanes.
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
    64-bit seed (four successive outputs fill the state words).

    A lane pass may compute more draws than it was asked for. ``_ahead`` keeps
    those output values, unread from index ``_read`` on, or is None when
    all are read; the state words sit after the last of them, so the
    stream's position is theirs less the unread count."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_ahead", "_read")

    def __init__(self, seed: int):
        state = seed & MASK64
        words = []
        for _ in range(4):
            state = (state + GOLDEN_GAMMA) & MASK64
            words.append(_mix(state))
        self._s0, self._s1, self._s2, self._s3 = words
        self._ahead: np.ndarray | None = None
        self._read = 0

    def next_u64(self) -> int:
        ahead = self._ahead
        if ahead is not None:
            read = self._read
            self._read = read + 1
            if read + 1 == len(ahead):
                self._ahead = None
            return int(ahead[read])
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

    def _lane_s1_words(self, out: np.ndarray, steps: int) -> None:
        """Advance ``len(out)`` draws, a multiple of ``steps`` (BLOCK times
        a power of two), by stepping one lane per ``steps`` draws, all
        together; ``out`` receives the s1 words in draw order."""
        lanes = len(out) // steps
        states = np.empty((lanes, 4), dtype=_U64)
        states[0] = self._s0, self._s1, self._s2, self._s3
        # _jump(k) moves BLOCK * 2**k draws; each level doubles the lanes
        level, have = (steps // BLOCK).bit_length() - 1, 1
        while have < lanes:
            more = min(have, lanes - have)
            states[have:have + more] = _apply(_jump(level), states[:more])
            level, have = level + 1, have + more
        state = np.ascontiguousarray(states.T)
        words = np.empty((steps, lanes), dtype=_U64)
        _run_lanes(state, steps, words)
        # the last lane ends where len(out) scalar draws would
        self._s0, self._s1, self._s2, self._s3 = (int(w) for w in state[:, -1])
        out.reshape(lanes, steps)[...] = words.T

    def u64s(self, n: int) -> np.ndarray:
        """``n`` draws as a new uint64 array: the values of ``n`` calls of
        :meth:`next_u64`, after which the next draw is the one those calls
        would give."""
        if n < 0:
            raise ValueError("n must be non-negative")
        out = np.empty(n, dtype=_U64)
        done = 0
        if self._ahead is not None:
            done = min(n, len(self._ahead) - self._read)
            out[:done] = self._ahead[self._read:self._read + done]
            self._read += done
            if self._read == len(self._ahead):
                self._ahead = None
        while n - done >= CROSSOVER:
            rest = n - done
            want = rest + (READ_AHEAD if rest >= READ_AHEAD else 0)
            # past LANES_PER_PASS lanes, jumps to more lane starts cost more
            # than the extra steps of lanes twice as long
            steps = BLOCK if want <= LANES_PER_PASS * BLOCK else 2 * BLOCK
            size = min(want, LANES_PER_PASS * steps) // steps * steps
            words = np.empty(size, dtype=_U64)
            self._lane_s1_words(words, steps)
            values = _scramble(words)
            take = min(size, rest)
            out[done:done + take] = values[:take]
            done += take
            if take < size:
                self._ahead, self._read = values, take
        if done < n:
            out[done:] = self._s1_words(n - done)
            _scramble(out[done:])
        return out

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
