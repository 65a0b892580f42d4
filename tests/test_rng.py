import collections
import concurrent.futures
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldaug import augment, policy, rng, tinytrain
from fieldaug.rng import MASK64, RandomStream, derive_seed, splitmix64

# half of MAX_PASS, the most draws per stream in one lane pass
PASS = rng.MAX_PASS // 2


def test_same_seed_same_sequence():
    a = RandomStream(12345)
    b = RandomStream(12345)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_known_seed_values_are_stable():
    # frozen reference draws; any change to seeding or the generator core
    # breaks cross-run reproducibility and must show up here
    s = RandomStream(0)
    assert [s.next_u64() for _ in range(3)] == [
        0x99EC5F36CB75F2B4,
        0xBF6E1F784956452A,
        0x1A5F849D4933E6E0,
    ]
    s = RandomStream(2024)
    assert s.next_u64() == 0x0E48715A13D7772E


def test_float_range_and_spread():
    s = RandomStream(7)
    values = [s.next_float64() for _ in range(20000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert min(values) < 0.01
    assert max(values) > 0.99
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.01


def test_uniform_bounds():
    s = RandomStream(9)
    for _ in range(1000):
        v = s.uniform(-3.5, 2.25)
        assert -3.5 <= v < 2.25


def test_next_below_bounds_and_coverage():
    s = RandomStream(3)
    seen = set()
    for _ in range(1000):
        k = s.next_below(7)
        assert 0 <= k < 7
        seen.add(k)
    assert seen == set(range(7))
    with pytest.raises(ValueError):
        s.next_below(0)


def test_derive_seed_is_pure_and_disjoint():
    assert derive_seed(42, 5) == derive_seed(42, 5)
    indices = [derive_seed(42, i) for i in range(100)]
    assert len(set(indices)) == 100
    assert derive_seed(42, 0) != derive_seed(43, 0)


NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


@st.composite
def integers_of_any_type(draw):
    """``(value, value as itself or as a numpy integer type that holds it)``."""
    kind = draw(st.sampled_from(NUMPY_INTEGERS))
    value = draw(st.integers(int(np.iinfo(kind).min), int(np.iinfo(kind).max)))
    return value, draw(st.sampled_from([value, kind(value)]))


@given(seed=integers_of_any_type(), index=integers_of_any_type())
def test_seeds_and_indices_of_any_integer_type(seed, index):
    # a numpy integer gives the draws of its Python int, without an
    # OverflowError or an overflow warning; a float is a TypeError
    (seed, typed_seed), (index, typed_index) = seed, index
    assert derive_seed(typed_seed, typed_index) == derive_seed(seed, index)
    assert RandomStream(typed_seed).u64s(3).tolist() == RandomStream(seed).u64s(3).tolist()
    for number in (float(seed), np.float64(seed)):
        for call in (lambda: derive_seed(number, index), lambda: derive_seed(seed, number),
                     lambda: RandomStream(number)):
            with pytest.raises(TypeError):
                call()


def test_concurrent_first_lane_passes_equal_scalar_draws():
    # jump tables are built on first use, without a lock: 8 threads racing
    # to build levels 0-7 (8,192 draws a stream) must draw what next_u64 gives
    n, count, threads = 8192, 4, 8
    rng._jump.cache_clear()
    start = threading.Barrier(threads)

    def draw(t):
        streams = [RandomStream(derive_seed(t, i)) for i in range(count)]
        start.wait(timeout=60)
        return rng.u64s_many(streams, n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            results = list(pool.map(draw, range(threads), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for t, rows in enumerate(results):
        for i, row in enumerate(rows):
            s = RandomStream(derive_seed(t, i))
            assert row.tolist() == [s.next_u64() for _ in range(n)], (t, i)
    assert rng._jump.cache_info().currsize == 8
    assert not rng._jump(0).flags.writeable


def test_splitmix64_range():
    v = splitmix64(0)
    assert 0 <= v <= MASK64
    assert splitmix64(0) != splitmix64(1)


def test_shuffle_is_permutation():
    s = RandomStream(11)
    items = list(range(50))
    shuffled = items.copy()
    s.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items
    again = items.copy()
    RandomStream(11).shuffle(again)
    assert again == shuffled


BULK_SIZES = sorted({
    0, 1, 15, 16, 17,
    rng.CROSSOVER - 1, rng.CROSSOVER, rng.CROSSOVER + 1, 16384, 49152,
    PASS - 1, PASS + 1, 2 * PASS + 1,
    # either side of 8,192, and 8,191 short of two passes
    8191, 8193, 2 * PASS - 8191,
})

# (bulk call, the scalar call it must repeat n times)
BULK_METHODS = {
    "u64s": (lambda s, n: s.u64s(n), lambda s: s.next_u64()),
    "below_many": (lambda s, n: s.below_many(n, 7), lambda s: s.next_below(7)),
    "below_many_large": (lambda s, n: s.below_many(n, 10 ** 15 + 37),
                         lambda s: s.next_below(10 ** 15 + 37)),
    "bytes": (lambda s, n: s.bytes(n), lambda s: s.next_byte()),
    "uniforms": (lambda s, n: s.uniforms(n, -2.5, 0.75), lambda s: s.uniform(-2.5, 0.75)),
}


@pytest.mark.parametrize("method", sorted(BULK_METHODS))
@pytest.mark.parametrize("n", BULK_SIZES)
def test_bulk_draws_equal_scalar_draws(method, n):
    bulk, scalar = BULK_METHODS[method]
    a, b = RandomStream(99), RandomStream(99)
    got = bulk(a, n)
    assert got.shape == (n,)
    assert got.tolist() == [scalar(b) for _ in range(n)]
    # the stream is left where the scalar calls leave it
    assert a.next_u64() == b.next_u64()


def test_below_many_takes_one_bound_per_draw():
    bounds = np.tile([50, 40, 35], 700)
    a, b = RandomStream(5), RandomStream(5)
    assert a.below_many(len(bounds), bounds).tolist() == [b.next_below(int(k)) for k in bounds]
    assert a.next_u64() == b.next_u64()


def test_bulk_draw_validation():
    s = RandomStream(1)
    with pytest.raises(ValueError):
        s.u64s(-1)
    with pytest.raises(ValueError):
        s.below_many(3, 0)
    with pytest.raises(ValueError):
        s.below_many(2, [4, -1])


def _bounds(n):
    return np.arange(n) % 97 + 1


def _shuffled(s, n):
    items = list(range(n % 40))
    s.shuffle(items)
    return items


# scalar calls, each giving a list; n sets a bound or a length
SCALAR_CALLS = {
    "next_u64": lambda s, n: [s.next_u64()],
    "next_float64": lambda s, n: [s.next_float64()],
    "next_below": lambda s, n: [s.next_below(n + 1)],
    "uniform": lambda s, n: [s.uniform(-1.0, 3.0)],
    "shuffle": _shuffled,
}

# (call under test, the scalar-only calls it must equal), each giving a list
INTERLEAVED = {
    **{name: (call, call) for name, call in SCALAR_CALLS.items()},
    **{name: (lambda s, n, bulk=bulk: bulk(s, n).tolist(),
              lambda s, n, scalar=scalar: [scalar(s) for _ in range(n)])
       for name, (bulk, scalar) in BULK_METHODS.items()},
    "below_many_per_draw": (lambda s, n: s.below_many(n, _bounds(n)).tolist(),
                            lambda s, n: [s.next_below(int(k)) for k in _bounds(n)]),
}

DRAW_SIZES = st.one_of(
    st.integers(0, 3 * 16),
    st.sampled_from(BULK_SIZES),
    st.integers(0, 2 * PASS + 16),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, MASK64),
       calls=st.lists(st.tuples(st.sampled_from(sorted(INTERLEAVED)), DRAW_SIZES), max_size=6))
@example(seed=1, calls=[("u64s", 8192), ("next_u64", 0), ("bytes", 100),
                        ("below_many_per_draw", PASS + 1), ("shuffle", 30),
                        ("uniforms", 2 * PASS + 1), ("next_below", 6)])
@example(seed=2, calls=[("below_many", 16384), ("bytes", 8191),
                        ("uniforms", 3), ("u64s", rng.CROSSOVER)])
# lane draws with scalar tails: shuffling 8 items makes 7 draws
@example(seed=3, calls=[("u64s", 8192), ("bytes", 8189),
                        ("shuffle", 8), ("u64s", 5)])
def test_interleaved_calls_equal_scalar_calls(seed, calls):
    # a twin stream that only ever makes scalar calls is the oracle
    a, b = RandomStream(seed), RandomStream(seed)
    for name, n in calls:
        call, scalar_calls = INTERLEAVED[name]
        assert call(a, n) == scalar_calls(b, n), name
    assert a.next_u64() == b.next_u64()


def _field_set(count):
    """``count`` 128 px images, a soil bank and the default policy (seed 0)."""
    corpus = tinytrain.make_synthetic_corpus(count, 128, seed=derive_seed(0, 1))
    bank = augment.build_soil_bank(tinytrain.make_synthetic_soil(32, 16, seed=derive_seed(0, 2)))
    return corpus, bank, policy.default_policy(derive_seed(0, 3))


def test_one_lane_pass_per_128px_view(monkeypatch):
    # each view stream's prefetch serves its view's mixing choices and
    # erasing fills
    corpus, bank, pol = _field_set(8)
    passes = []
    lane_pass = rng._lane_pass

    def counted(streams, out):
        passes.append(out.size)
        return lane_pass(streams, out)

    monkeypatch.setattr(rng, "_lane_pass", counted)
    for i, img in enumerate(corpus):
        policy.make_views(img, pol, i, soil_bank=bank)
    assert len(passes) <= 1.25 * 2 * len(corpus)


def _count_draw_paths(monkeypatch):
    """Counts of computed scalar draws (``next_u64`` calls on a stream that
    holds no read-ahead values) and lane passes from here on."""
    counts = {"scalar": 0, "passes": 0}
    next_u64, lane_pass = RandomStream.next_u64, rng._lane_pass

    def scalar(stream):
        counts["scalar"] += stream._ahead is None
        return next_u64(stream)

    def passes(*args):
        counts["passes"] += 1
        return lane_pass(*args)

    monkeypatch.setattr(RandomStream, "next_u64", scalar)
    monkeypatch.setattr(rng, "_lane_pass", passes)
    return counts


def test_erasing_fills_come_from_the_prefetch(monkeypatch):
    # a view of image 10 skips mixing; its erasing fills are read from its
    # stream's prefetch, not drawn in one lane pass per rectangle (5 passes)
    corpus, bank, pol = _field_set(11)
    counts = _count_draw_paths(monkeypatch)
    policy.make_views(corpus[10], pol, 10, soil_bank=bank)
    assert counts["passes"] == 2


def _first_desk_step():
    """The arguments of ``view_batches`` in the first step of the benchmark's
    desk pretrain call (seed 0)."""
    corpus = tinytrain.make_synthetic_corpus(512, 16, seed=derive_seed(0, 1))
    bank = augment.build_soil_bank(tinytrain.make_synthetic_soil(24, 16, seed=derive_seed(0, 2)))
    desk = Path(__file__).resolve().parents[1] / "perfbench" / "desk.policy"
    pol = policy.load_policy(desk.read_text())
    pol.master_seed = derive_seed(0, 3)
    batch = list(range(512))
    RandomStream(derive_seed(0, 1)).shuffle(batch)
    batch = batch[:64]
    return [corpus[i] for i in batch], pol, batch, 16, bank


def test_desk_view_batch_reads_every_draw_from_its_prefetch(monkeypatch):
    # the first desk step's 128 view streams draw from 2 lane passes and
    # compute no scalar draw
    args = _first_desk_step()
    counts = _count_draw_paths(monkeypatch)
    tinytrain.view_batches(*args)
    assert counts == {"scalar": 0, "passes": 2}


# numpy's Python-level wrappers: np.clip, np.sum, np.any, ndarray.mean and the like
NUMPY_WRAPPERS = ("_core/fromnumeric.py", "_core/_methods.py", "_core/getlimits.py")
# Python functions of numpy entered in the first desk step under numpy 2.4:
# 405 in _core/multiarray.py and 12 in _core/shape_base.py
DESK_STEP_NUMPY_ENTRIES = 417


def test_desk_view_batch_enters_no_numpy_wrapper():
    # each entry costs microseconds at 16 px; the view kernels keep to
    # ufuncs and array methods that run in C
    args = _first_desk_step()
    root = str(Path(np.__file__).parent) + os.sep
    entered = collections.Counter()

    def profile(frame, event, arg):
        name = frame.f_code.co_filename
        if event == "call" and name.startswith(root):
            entered[name[len(root):].replace(os.sep, "/")] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        tinytrain.view_batches(*args)
    finally:
        sys.setprofile(previous)
    assert {name: entered[name] for name in NUMPY_WRAPPERS} == dict.fromkeys(NUMPY_WRAPPERS, 0)
    assert 0 < sum(entered.values()) <= DESK_STEP_NUMPY_ENTRIES


NO_PIXEL_DRAWS = pytest.mark.parametrize(
    "entries", [[], [("gaussian_blur", 1.0), ("affine", 1.0)],
                [("mixing", 0.0), ("random_erasing", 0.0)]],
    ids=["empty", "no-pixel-draws", "never-fires"])


@NO_PIXEL_DRAWS
def test_no_prefetch_for_plans_without_pixel_draws(monkeypatch, entries):
    # a plan whose views draw a few values each does not pay for a lane pass
    pol = policy.Policy([policy.PolicyEntry(name, p) for name, p in entries], master_seed=4)
    images = tinytrain.make_synthetic_corpus(8, 16, seed=1)
    counts = _count_draw_paths(monkeypatch)
    tinytrain.view_batches(images, pol, range(8), 16)
    assert counts["passes"] == 0


@NO_PIXEL_DRAWS
def test_make_views_prefetches_nothing_without_pixel_draws(monkeypatch, entries):
    pol = policy.Policy([policy.PolicyEntry(name, p) for name, p in entries], master_seed=4)
    images = tinytrain.make_synthetic_corpus(8, 16, seed=1)
    counts = _count_draw_paths(monkeypatch)
    for i, img in enumerate(images):
        policy.make_views(img, pol, i)
    assert counts["passes"] == 0


VIEW_BANK = augment.build_soil_bank(tinytrain.make_synthetic_soil(8, 16, seed=5))


def _unprefetched_views(img, plan, index):
    """The two views of ``img`` as image ``index``, drawn from fresh streams
    that hold no read-ahead."""
    return [policy.apply_policy(img, plan, RandomStream(derive_seed(plan.master_seed, 2 * index + k)),
                                soil_bank=VIEW_BANK)
            for k in (0, 1)]


@settings(max_examples=30, deadline=None)
@given(height=st.integers(1, 40), width=st.integers(1, 40),
       mixing=st.floats(0, 1), erasing=st.floats(0, 1),
       seed=st.integers(0, MASK64), index=st.integers(0, 2 ** 40))
@example(height=16, width=16, mixing=0.9, erasing=1.0, seed=0, index=3)
@example(height=1, width=40, mixing=1.0, erasing=0.0, seed=1, index=0)
@example(height=37, width=5, mixing=0.0, erasing=1.0, seed=2, index=7)
def test_prefetched_views_equal_unprefetched_views(height, width, mixing, erasing, seed, index):
    img = np.random.default_rng(seed % 2 ** 32).integers(0, 256, (height, width, 3), np.uint8)
    probabilities = {**policy.DEFAULT_PROBABILITIES, "mixing": mixing, "random_erasing": erasing}
    plan = policy.compile_policy(policy.Policy(
        [policy.PolicyEntry(name, p) for name, p in probabilities.items()], master_seed=seed))
    got = policy.make_views(img, plan, index, soil_bank=VIEW_BANK)
    want = _unprefetched_views(img, plan, index)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_views_past_their_prefetch_equal_unprefetched_views(monkeypatch):
    # many default-policy 16 px views draw more than their 384 prefetched
    # values and go on from the end of them
    corpus = tinytrain.make_synthetic_corpus(8, 16, seed=derive_seed(0, 1))
    plan = policy.compile_policy(policy.default_policy())
    prefetch, streams = policy.prefetch, []

    def spy(some, n):
        prefetch(some, n)
        streams.extend(some)

    monkeypatch.setattr(policy, "prefetch", spy)
    for i, img in enumerate(corpus):
        got = policy.make_views(img, plan, i, VIEW_BANK)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in _unprefetched_views(img, plan, i)]
    assert len(streams) == 2 * len(corpus)
    assert sum(s._ahead is None for s in streams) >= 4


# (count, n): one stream's u64s(n) where count is None, else u64s_many of count streams
PLANNED_DRAWS = [(None, n) for n in (rng.CROSSOVER, 2000, 16384, rng.MAX_PASS + 1, 49152)]
PLANNED_DRAWS += [(count, n) for count in (1, 3, 42) for n in (5, 773, rng.MAX_PASS + 33)]


@pytest.mark.parametrize("count, n", PLANNED_DRAWS)
def test_every_lane_pass_has_set_steps_lanes(monkeypatch, count, n):
    # one planner for one stream and for many: every pass is made of whole
    # SET_STEPS-draw lanes within MAX_PASS draws, and a draw of fewer than
    # SET_STEPS values makes no pass (its values are next_u64 calls)
    streams = [RandomStream(derive_seed(7, i)) for i in range(count or 1)]
    passes = []
    lane_pass = rng._lane_pass

    def counted(members, out):
        passes.append((list(members), out.shape[1]))
        return lane_pass(members, out)

    monkeypatch.setattr(rng, "_lane_pass", counted)
    if count is None:
        streams[0].u64s(n)
    else:
        rng.u64s_many(streams, n)
    assert bool(passes) == (n >= rng.SET_STEPS)
    for members, width in passes:
        assert width > 0 and width % rng.SET_STEPS == 0
        assert len(members) * width <= rng.MAX_PASS


SET_SIZES = sorted({
    0, 1, rng.SET_STEPS - 1, rng.SET_STEPS, rng.SET_STEPS + 1,
    rng.CROSSOVER - 1, rng.CROSSOVER + 1, 768,
    8191, 8193,
    rng.MAX_PASS - 1, rng.MAX_PASS, rng.MAX_PASS + 1,
})

# (stream-set call, the per-stream call each row must equal)
SET_METHODS = {
    "u64s_many": (rng.u64s_many, lambda s, n: s.u64s(n)),
    "below_many_many": (lambda streams, n: rng.below_many_many(streams, n, 7),
                        lambda s, n: s.below_many(n, 7)),
    "below_many_many_per_draw": (lambda streams, n: rng.below_many_many(streams, n, _bounds(n)),
                                 lambda s, n: s.below_many(n, _bounds(n))),
}


@st.composite
def stream_sets(draw):
    """A draw size and a stream count, at most 500,000 draws in all."""
    n = draw(st.one_of(st.sampled_from(SET_SIZES), st.integers(0, rng.MAX_PASS + 16)))
    return n, draw(st.integers(0, min(600, 500_000 // max(n, 1))))


@settings(max_examples=40, deadline=None)
@given(sizes=stream_sets(), method=st.sampled_from(sorted(SET_METHODS)),
       seed=st.integers(0, MASK64),
       skips=st.lists(st.integers(0, 3 * 16), min_size=1, max_size=8))
@example(sizes=(1, 600), method="u64s_many", seed=0, skips=[0, 5])
@example(sizes=(768, 600), method="below_many_many", seed=1, skips=[0])
@example(sizes=(0, 0), method="u64s_many", seed=2, skips=[0])
@example(sizes=(rng.MAX_PASS, 15), method="below_many_many_per_draw", seed=3, skips=[1, 0])
@example(sizes=(rng.MAX_PASS + 1, 3), method="u64s_many", seed=4, skips=[3])
@example(sizes=(2 * rng.MAX_PASS + 33, 3), method="u64s_many", seed=5, skips=[2])
def test_stream_set_rows_equal_per_stream_calls(sizes, method, seed, skips):
    n, count = sizes
    many, each = SET_METHODS[method]
    a = [RandomStream(derive_seed(seed, i)) for i in range(count)]
    b = [RandomStream(derive_seed(seed, i)) for i in range(count)]
    for i, (x, y) in enumerate(zip(a, b)):
        # mixed positions
        prelude = skips[i % len(skips)]
        assert x.u64s(prelude).tolist() == y.u64s(prelude).tolist()
    got = many(a, n)
    assert got.shape == (count, n)
    for i, (x, y) in enumerate(zip(a, b)):
        assert got[i].tolist() == each(y, n).tolist(), i
        assert x.next_u64() == y.next_u64(), i


def test_stream_set_validation():
    s, t = RandomStream(1), RandomStream(2)
    held = RandomStream(3)
    rng.prefetch([held], 8192)
    ahead = held._ahead
    calls = [
        lambda: rng.u64s_many([s, t], -1),
        lambda: rng.u64s_many([s, t, s], 4),
        lambda: rng.below_many_many([s, t], 2, [4, 0]),
        # stream sets draw only for streams that hold no read-ahead values
        lambda: rng.u64s_many([s, held, t], 4),
        lambda: rng.below_many_many([s, t, held], 4, 3),
        # bounds are one value or one per draw
        lambda: rng.below_many_many([s, t], 4, [3, 3, 3]),
        lambda: rng.below_many_many([s, t], 3, [[2], [1000]]),
        lambda: s.below_many(4, [3, 3, 3]),
        lambda: t.below_many(2, [[3, 3]]),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    # a rejected call moves no stream
    assert s._ahead is None and t._ahead is None and held._ahead is ahead and held._read == 0
    assert (s.next_u64(), t.next_u64()) == (RandomStream(1).next_u64(), RandomStream(2).next_u64())
    assert held.u64s(8193).tolist() == RandomStream(3).u64s(8193).tolist()


PREFETCH_SIZES = [0, 1, rng.SET_STEPS - 1, rng.SET_STEPS, 384]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, MASK64),
       n=st.one_of(st.sampled_from(PREFETCH_SIZES), st.integers(0, 2 * 384)),
       count=st.integers(1, 3), skip=st.integers(0, 3 * 16),
       calls=st.lists(st.tuples(st.sampled_from(sorted(INTERLEAVED)), DRAW_SIZES), max_size=6))
# calls that end inside, at and past the end of the prefetched draws
@example(seed=1, n=384, count=3, skip=5,
         calls=[("next_u64", 0), ("bytes", 300), ("u64s", 83), ("uniform", 0), ("bytes", 50)])
@example(seed=1, n=384, count=2, skip=0,
         calls=[("bytes", 380), ("u64s", 10), ("next_below", 3)])
@example(seed=6, n=384, count=2, skip=3,
         calls=[("u64s", 10), ("u64s", 8192 + 374), ("bytes", 10)])
@example(seed=2, n=rng.SET_STEPS - 1, count=2, skip=0,
         calls=[("shuffle", 20), ("below_many", rng.CROSSOVER), ("next_below", 6)])
@example(seed=3, n=rng.SET_STEPS, count=1, skip=1,
         calls=[("uniforms", 7), ("u64s", 8192), ("bytes", 100), ("u64s", rng.CROSSOVER)])
@example(seed=4, n=1, count=2, skip=0, calls=[("below_many_per_draw", 8193)])
@example(seed=5, n=0, count=3, skip=2, calls=[("next_float64", 0), ("u64s", rng.CROSSOVER - 1)])
def test_prefetched_streams_equal_scalar_calls(seed, n, count, skip, calls):
    # each stream of the set, at its own position, against a scalar twin
    a = [RandomStream(derive_seed(seed, i)) for i in range(count)]
    b = [RandomStream(derive_seed(seed, i)) for i in range(count)]
    for i, (x, y) in enumerate(zip(a, b)):
        assert x.u64s(skip + i).tolist() == [y.next_u64() for _ in range(skip + i)]
    rng.prefetch(a, n)
    for x, y in zip(a, b):
        for name, size in calls:
            call, scalar_calls = INTERLEAVED[name]
            assert call(x, size) == scalar_calls(y, size), name
        assert x.next_u64() == y.next_u64()


def test_prefetch_validation():
    s, t = RandomStream(1), RandomStream(2)
    held = RandomStream(3)
    rng.prefetch([held], 8192)
    ahead = held._ahead
    for streams, n in (([s, t, s], 4), ([s, held, t], 4), ([s, t], -1)):
        with pytest.raises(ValueError):
            rng.prefetch(streams, n)
    # a rejected call moves no stream and reads none ahead
    assert s._ahead is None and t._ahead is None and held._ahead is ahead
    assert (s.next_u64(), t.next_u64()) == (RandomStream(1).next_u64(), RandomStream(2).next_u64())
    twin = RandomStream(3)
    assert held.u64s(8193).tolist() == twin.u64s(8193).tolist()
