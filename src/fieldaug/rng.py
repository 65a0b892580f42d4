"""Deterministic random streams.

Everything stochastic in this package draws from :class:`RandomStream`, a
pure-integer xoshiro256** generator. Identical seeds give identical draw
sequences on every platform and for any worker count. Training bytes,
built from BLAS products, also depend on the OpenBLAS kernel; view bytes
do not (README's determinism model).

Substreams are derived, not split: ``derive_seed(seed, index)`` is a pure
function, so any worker can reconstruct the stream for image ``index``
without coordination.

Bulk draws (``u64s``, ``below_many``, ``uniforms``, ``bytes``) return numpy
arrays holding exactly the values that the same number of scalar calls
would return, and the next draw is the one those calls would give. Large
draws use the generator's linearity over GF(2): the state transition is a
256x256 bit matrix T, so lanes started ``SET_STEPS`` draws apart (by powers
of T**SET_STEPS, the jump technique of Blackman and Vigna, "Scrambled linear
pseudorandom number generators", ACM TOMS 2021) can all be stepped at once
as ``uint64`` arrays by ``_lane_pass``. Every lane is ``SET_STEPS`` draws;
the last ``n % SET_STEPS`` values of a bulk draw, for one stream or for
each of a set, and every draw below ``CROSSOVER`` are ``next_u64`` calls,
the one scalar step. A bulk draw computes exactly the values it returns.

A stream set shares one lane pass among many streams that hold no
read-ahead values: row i of ``u64s_many(streams, n)`` (and of
``below_many_many``) equals ``streams[i].u64s(n)``, and each stream ends
where that call would leave it. The 512 streams of a 16 px synthetic
corpus draw their noise in 13 passes of 42 streams. ``prefetch``, the only
way a stream reads ahead, keeps the rows for the streams' next calls. A
lane pass's cost is mostly fixed (the jumps to the lane starts and the
per-step array calls), so ``policy.view_pairs`` prefetches the draws of
views that draw per pixel: a 16 px desk pretraining step draws all its
views' values in 2 passes, and a 128 px default-policy view in one.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

__all__ = [
    "MASK64", "GOLDEN_GAMMA", "splitmix64", "derive_seed", "RandomStream",
    "streams_per_pass", "u64s_many", "below_many_many", "prefetch",
]

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_TWO53_INV = 2.0 ** -53

# CROSSOVER, in whole lanes, is the draw count from which one stream's
# lanes beat a next_u64 loop: 432 against 468-485 us at 320 draws, and
# 408-414 against 373-387 us at 256 (medians of 15 alternating rounds, on
# a 2-core Xeon VM with CPython 3.11 and numpy 2.4).
CROSSOVER = 320
# Draws per lane, for one stream and for many. Measured as above, per
# stream of 768 draws in passes of 42 streams: 22 us in 32-step lanes, 30
# in 64-step and 33 in 128-step lanes; 30 us in 16-step lanes (21 streams
# a pass, at 1,024 lanes), and one stream's below_many(768) 280 us.
SET_STEPS = 32
# Most draws stepped together in one pass (256 KiB per buffer): a 128 px
# view stream's prefetch (1.5 x 16,384 draws) takes one pass of 768 lanes.
MAX_PASS = 32768

_U64 = np.dtype("<u8")


def splitmix64(x: int) -> int:
    """One full splitmix64 step from state ``x``: advance by the golden
    gamma, then mix. Convention fixed here; seeding and derivation below
    depend on it."""
    z = (x + GOLDEN_GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(stream_seed: int, index: int) -> int:
    """Pure substream derivation: splitmix64(seed XOR index * golden gamma)."""
    x = (operator.index(stream_seed) ^ ((operator.index(index) * GOLDEN_GAMMA) & MASK64)) & MASK64
    return splitmix64(x)


def _run_lanes(state: np.ndarray, s1_words: np.ndarray) -> None:
    """Advance every lane SET_STEPS draws, in place. ``state`` holds the
    lanes' state words as the four rows of a (4, ...) array, and
    ``s1_words[i]`` receives the lanes' s1 words before step i."""
    s0, s1, s2, s3 = state
    low, high, crossed = state[:2], state[2:], state[:1:-1]
    t = np.empty_like(s0)
    xor, shl, shr, bor = np.bitwise_xor, np.left_shift, np.right_shift, np.bitwise_or
    for i in range(SET_STEPS):
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
        out[start:start + 128] = np.bitwise_xor.reduce(table.take(index, axis=0), axis=0)
    return out


def _nibble_table(columns: np.ndarray) -> np.ndarray:
    """(1024, 4) table of a bit matrix from its (256, 4) columns: entry
    16p + v is the XOR of the columns 4p + b for the bits b set in v."""
    pick = (np.arange(16) >> np.arange(4)[:, None]) & 1 == 1
    terms = np.where(pick[None, :, :, None], columns.reshape(64, 4, 1, 4), np.uint64(0))
    return np.bitwise_xor.reduce(terms, axis=1).reshape(1024, 4)


@functools.cache
def _jump(level: int) -> np.ndarray:
    """T**(SET_STEPS * 2**level) as a read-only (1024, 4) table of u64 words
    (32 KiB): row 16p + v is the advanced state of a state whose only set
    bits are the nibble v at bits 4p..4p+3. Racing threads build equal tables."""
    if level:
        # square the matrix below: apply it to its own columns
        table = _jump(level - 1)
        columns = _apply(table, table.reshape(64, 16, 4)[:, [1, 2, 4, 8]].reshape(256, 4))
    else:
        # step each basis state SET_STEPS times
        k = np.arange(256)
        basis = np.zeros((4, 256), dtype=_U64)
        basis[k // 64, k] = np.uint64(1) << (k % 64).astype(_U64)
        _run_lanes(basis, np.empty((SET_STEPS, 256), dtype=_U64))
        columns = basis.T
    table = _nibble_table(columns)
    table.flags.writeable = False
    return table


def _lane_pass(streams: list, out: np.ndarray) -> None:
    """Fill row i of ``out`` with the next draws of ``streams[i]``, one lane
    per SET_STEPS of them, all stepped together. Each stream is left after
    its draws, and must hold no read-ahead values."""
    m, lanes = len(streams), out.shape[1] // SET_STEPS
    starts = np.empty((lanes, m, 4), dtype=_U64)
    starts[0] = [(s._s0, s._s1, s._s2, s._s3) for s in streams]
    # _jump(k) moves SET_STEPS * 2**k draws; each level doubles every stream's lanes
    level, have = 0, 1
    while have < lanes:
        more = min(have, lanes - have)
        jumped = _apply(_jump(level), starts[:more].reshape(-1, 4))
        starts[have:have + more] = jumped.reshape(more, m, 4)
        level, have = level + 1, have + more
    state = np.ascontiguousarray(starts.transpose(2, 0, 1))
    # step i writes draw l * SET_STEPS + i of every stream's lane l into out
    lane_words = out.reshape(m, lanes, SET_STEPS, copy=False).transpose(2, 1, 0)
    _run_lanes(state, lane_words)
    # each stream's last lane ends where its scalar draws would
    for stream, end in zip(streams, state[:, -1].T.tolist()):
        stream._s0, stream._s1, stream._s2, stream._s3 = end
    _scramble(out)


def _floats(bits: np.ndarray) -> np.ndarray:
    """``next_float64`` of each u64 draw, consuming ``bits``."""
    bits >>= np.uint64(11)
    out = bits.astype(np.float64)
    out *= _TWO53_INV
    return out


def _bounds(k, n: int) -> np.ndarray:
    k = np.asarray(k, dtype=np.int64)
    if k.shape not in ((), (n,)):
        raise ValueError(f"k must be one bound or {n} bounds, got shape {k.shape}")
    if np.logical_or.reduce(k <= 0, axis=None):
        raise ValueError("k must be positive")
    return k


def _below(bits: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``next_below`` of each u64 draw (``k`` broadcast against the last
    axis), consuming ``bits``."""
    scaled = _floats(bits)
    scaled *= k
    draws = scaled.astype(np.int64)
    return np.minimum(draws, k - 1, out=draws)


class RandomStream:
    """xoshiro256** with 256-bit state, seeded by splitmix64 expansion of a
    64-bit seed (four successive outputs fill the state words).

    :func:`prefetch` may hand a stream draws before it asks for them.
    ``_ahead`` keeps those output values, unread from index ``_read`` on,
    or is None when all are read; the state words sit after the last of
    them, so the stream's position is theirs less the unread count."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_ahead", "_read")

    def __init__(self, seed: int):
        x = operator.index(seed) & MASK64
        self._s0, self._s1, self._s2, self._s3 = (
            splitmix64(x), splitmix64((x + GOLDEN_GAMMA) & MASK64),
            splitmix64((x + 2 * GOLDEN_GAMMA) & MASK64),
            splitmix64((x + 3 * GOLDEN_GAMMA) & MASK64))
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

    def u64s(self, n: int) -> np.ndarray:
        """``n`` draws as a new uint64 array: the values of ``n`` calls of
        :meth:`next_u64`, after which the next draw is the one those calls
        would give."""
        if n < 0:
            raise ValueError("n must be non-negative")
        ahead, read = self._ahead, self._read
        done = 0 if ahead is None else min(n, len(ahead) - read)
        out = np.empty(n, dtype=_U64)
        if done:
            out[:done] = ahead[read:read + done]
            self._read += done
            if self._read == len(ahead):
                self._ahead = None
        if n - done >= CROSSOVER:
            _lane_passes([self], out[None, done:])
        else:
            out[done:] = [self.next_u64() for _ in range(n - done)]
        return out

    def uniforms(self, n: int, lo: float, hi: float) -> np.ndarray:
        """``n`` calls of :meth:`uniform` as a float64 array."""
        out = _floats(self.u64s(n))
        out *= hi - lo
        out += lo
        return out

    def below_many(self, n: int, k) -> np.ndarray:
        """``n`` calls of :meth:`next_below` as an int64 array. ``k`` is one
        bound for every draw or an array of ``n`` bounds, one per draw."""
        k = _bounds(k, n)  # checked before the stream moves
        return _below(self.u64s(n), k)

    def bytes(self, n: int) -> np.ndarray:
        """``n`` calls of :meth:`next_byte` as a uint8 array."""
        return (self.u64s(n) & np.uint64(0xFF)).astype(np.uint8)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, one draw per swap."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


def streams_per_pass(n: int) -> int:
    """How many streams :func:`u64s_many` draws ``n`` values for in one
    lane pass: at least one, and at most MAX_PASS draws, ``n`` counting as
    at least SET_STEPS."""
    return max(1, MAX_PASS // max(n, SET_STEPS))


def u64s_many(streams: list[RandomStream], n: int) -> np.ndarray:
    """``n`` draws from each of ``streams`` (distinct, at any positions,
    holding no read-ahead values) as a new ``(len(streams), n)`` uint64
    array, in lane passes of ``streams_per_pass(n)`` streams: row i equals
    ``streams[i].u64s(n)``, and each stream ends where that call leaves it."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if len({id(s) for s in streams}) != len(streams):
        raise ValueError("streams must be distinct")
    if any(s._ahead is not None for s in streams):
        raise ValueError("streams must hold no read-ahead values")
    out = np.empty((len(streams), n), dtype=_U64)
    _lane_passes(streams, out)
    return out


def prefetch(streams: list[RandomStream], n: int) -> None:
    """Keep each row of ``u64s_many(streams, n)`` as its stream's read-ahead."""
    rows = u64s_many(streams, n)
    for stream, row in zip(streams, rows if n else ()):
        stream._ahead, stream._read = row, 0


def _lane_passes(streams: list, out: np.ndarray) -> None:
    """Fill row i of ``out`` with the next draws of ``streams[i]``, which
    holds no read-ahead values: the one place a draw of n becomes lane
    passes (at most MAX_PASS draws per stream) and n % SET_STEPS next_u64 calls."""
    n, tail = out.shape[1], out.shape[1] % SET_STEPS
    group = streams_per_pass(min(n, MAX_PASS))
    for start in range(0, len(streams), group):
        rows = out[start:start + group, :n - tail]
        for column in range(0, n - tail, MAX_PASS):
            _lane_pass(streams[start:start + group], rows[:, column:column + MAX_PASS])
    for stream, row in zip(streams, out if tail else ()):
        row[n - tail:] = [stream.next_u64() for _ in range(tail)]


def below_many_many(streams: list[RandomStream], n: int, k) -> np.ndarray:
    """:func:`u64s_many` as ``next_below`` draws: row i equals
    ``streams[i].below_many(n, k)``. ``k`` is one bound for every draw or an
    array of ``n`` bounds, one per draw, shared by every stream."""
    k = _bounds(k, n)
    return _below(u64s_many(streams, n), k)
