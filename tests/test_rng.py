import numpy as np
import pytest

from corrmem import ValidationError, derive_seed, make_generator


def test_derive_seed_is_deterministic():
    assert derive_seed(42, "field", 7) == derive_seed(42, "field", 7)


def test_derive_seed_sensitive_to_every_input():
    base = derive_seed(1, "field", 0)
    assert derive_seed(2, "field", 0) != base
    assert derive_seed(1, "channel", 0) != base
    assert derive_seed(1, "field", 1) != base


def test_derive_seed_rejects_empty_label():
    with pytest.raises(ValidationError):
        derive_seed(1, "", 0)


@pytest.mark.parametrize(
    "args, seed",
    [
        ((0, "x", 1), 18098364419029533485),
        ((0, "tails-delta", 0), 15629927190320539313),
        ((42, "retention", 0), 13166816136451924516),
        ((7, "retention-trial", 999), 13960566835860009996),
        ((2**64 - 1, "scaling-point", 3), 3579894940054102386),
        ((np.uint64(7), "retention-trial", np.int32(999)), 13960566835860009996),
    ],
)
def test_derive_seed_golden_values(args, seed):
    # every stored CSV rests on these seeds, so no change to derive_seed may move one
    assert derive_seed(*args) == seed


@pytest.mark.parametrize(
    "master_seed, index",
    [(0, 1.7), (0, True), (True, 1), (1.0, 1), (0, np.bool_(True)), (0, np.float64(1.0)), ("3", 0)],
)
def test_derive_seed_rejects_non_integers(master_seed, index):
    with pytest.raises(ValidationError, match="must be an integer"):
        derive_seed(master_seed, "x", index)


@pytest.mark.parametrize("seed", [-1, -(2**64) + 5, 2**64, 2**64 + 5, np.int64(-1)])
@pytest.mark.parametrize(
    "call, name", [(lambda s: derive_seed(s, "x", 0), "master_seed"), (make_generator, "seed")], ids=["derive", "make"]
)
def test_seeds_outside_u64_are_rejected(call, name, seed):
    # reduced mod 2**64 they would alias the seeds 2**64 - 1 and 5
    with pytest.raises(ValidationError, match=rf"^{name} must lie in \[0, 2\*\*64\)"):
        call(seed)


@pytest.mark.parametrize("seed", [True, np.bool_(False), 1.0, np.float64(3.0), "3", None])
def test_make_generator_rejects_non_integer_seeds(seed):
    with pytest.raises(ValidationError, match="seed must be an integer"):
        make_generator(seed)


def test_make_generator_takes_every_u64_seed_and_numpy_integers():
    top = make_generator(2**64 - 1).random(4)
    assert np.array_equal(make_generator(np.uint64(2**64 - 1)).random(4), top)
    assert np.array_equal(make_generator(np.int32(7)).random(4), make_generator(7).random(4))
    assert not np.array_equal(make_generator(0).random(4), top)


def test_derive_seed_fits_in_64_bits():
    for idx in range(100):
        s = derive_seed(2**63 + 11, "big", idx)
        assert 0 <= s < 2**64


def test_derive_seed_birthday_scan():
    # One million derived seeds from a single master: with 64-bit outputs the
    # expected number of collisions is ~2.7e-8, so any collision is a bug.
    seeds = np.fromiter(
        (derive_seed(123, "trial", i) for i in range(10**6)),
        dtype=np.uint64,
        count=10**6,
    )
    assert np.unique(seeds).size == seeds.size


def test_make_generator_reproducible_streams():
    a = make_generator(97).random(16)
    b = make_generator(97).random(16)
    assert np.array_equal(a, b)
    c = make_generator(98).random(16)
    assert not np.array_equal(a, c)
