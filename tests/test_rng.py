import numpy as np
import pytest

from fieldaug import rng
from fieldaug.rng import MASK64, RandomStream, derive_seed, splitmix64


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
    0, 1, rng.BLOCK - 1, rng.BLOCK, rng.BLOCK + 1,
    rng.CROSSOVER - 1, rng.CROSSOVER, rng.CROSSOVER + 1, 16384, 49152,
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
