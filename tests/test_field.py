import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmem import (
    EnumerationLimitError,
    MarkovFieldSpec,
    ValidationError,
    correlation_decay_profile,
    mixing_bound,
    mixing_coefficients,
    sample_field_batch,
    site_marginals,
)
from corrmem.oracle import exact_field_distribution

from conftest import chain, random_field, tv_distance


def identity_chain(n):
    return MarkovFieldSpec(
        n=n,
        alphabet_size=2,
        initial=np.array([1.0, 0.0]),
        kernels=np.tile(np.eye(2), (n - 1, 1, 1)).reshape(n - 1, 2, 2),
    )


# --- spec validation -------------------------------------------------------


def test_rejects_non_stochastic_kernel_row():
    kernels = np.tile(np.eye(2), (2, 1, 1)).reshape(2, 2, 2).copy()
    kernels[1, 0] = [0.6, 0.6]
    with pytest.raises(ValidationError, match="kernels\\[1\\] row 0"):
        MarkovFieldSpec(n=3, alphabet_size=2, initial=np.array([0.5, 0.5]), kernels=kernels)


@pytest.mark.parametrize(
    "first, second, message",
    [
        ([1.5, -0.5], [0.6, 0.6], "kernels\\[0\\] row 1 has entries outside"),
        ([0.6, 0.6], [1.5, -0.5], "kernels\\[0\\] row 1 sums to 1.2"),
    ],
)
def test_names_the_first_bad_kernel_row_in_site_then_row_order(first, second, message):
    kernels = np.tile(np.eye(2), (3, 1, 1)).reshape(3, 2, 2).copy()
    kernels[0, 1] = first
    kernels[1, 0] = second
    with pytest.raises(ValidationError, match=message):
        MarkovFieldSpec(n=4, alphabet_size=2, initial=np.array([0.5, 0.5]), kernels=kernels)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rejects_non_finite_probabilities_naming_the_first_bad_row(bad):
    kernels = np.tile(np.eye(2), (3, 1, 1)).reshape(3, 2, 2).copy()
    kernels[1, 1] = [bad, 0.5]
    kernels[2, 0] = [bad, bad]
    with pytest.raises(ValidationError, match="kernels\\[1\\] row 1 has entries outside"):
        MarkovFieldSpec(n=4, alphabet_size=2, initial=np.array([0.5, 0.5]), kernels=kernels)
    with pytest.raises(ValidationError, match="initial has entries outside"):
        MarkovFieldSpec(n=4, alphabet_size=2, initial=np.array([bad, 0.5]), kernels=np.tile(np.eye(2), (3, 1, 1)))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: MarkovFieldSpec(n=2, alphabet_size=2, initial=np.full((2, 1), 0.5), kernels=np.eye(2)[None]),
            "initial must be a one-dimensional probability vector",
        ),
        (
            lambda: MarkovFieldSpec(n=1, alphabet_size=257, initial=np.full(257, 1.0 / 257), kernels=np.zeros(0)),
            "alphabets larger than 256 symbols are not supported",
        ),
        (
            lambda: MarkovFieldSpec(n=2, alphabet_size=2, initial=np.array([0.2, 0.3, 0.5]), kernels=np.eye(2)[None]),
            "initial has shape (3,), expected (2,)",
        ),
        (lambda: correlation_decay_profile(chain(4, 0.5), 4), "site 4 out of range for n=4"),
    ],
    ids=["initial-2d", "alphabet-257", "initial-length", "decay-site"],
)
def test_field_arguments_are_checked(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_rejects_negative_initial_entry():
    with pytest.raises(ValidationError, match="initial"):
        MarkovFieldSpec(
            n=2,
            alphabet_size=2,
            initial=np.array([1.2, -0.2]),
            kernels=np.tile(np.eye(2), (1, 1, 1)).reshape(1, 2, 2),
        )


def test_rejects_wrong_kernel_count():
    with pytest.raises(ValidationError, match="kernels"):
        MarkovFieldSpec(
            n=4,
            alphabet_size=2,
            initial=np.array([0.5, 0.5]),
            kernels=np.tile(np.eye(2), (2, 1, 1)).reshape(2, 2, 2),
        )


def test_spec_arrays_are_frozen():
    spec = chain(3, 0.5)
    with pytest.raises(ValueError):
        spec.initial[0] = 0.9


# --- sampling --------------------------------------------------------------


def test_deterministic_chain_is_constant():
    spec = identity_chain(5)
    for seed in range(20):
        assert np.array_equal(sample_field_batch(spec, seed, 1)[0], np.zeros(5, dtype=np.uint8))


def test_single_site_chain_draws_from_initial():
    spec = MarkovFieldSpec(
        n=1,
        alphabet_size=2,
        initial=np.array([0.0, 1.0]),
        kernels=np.zeros((0, 2, 2)),
    )
    assert sample_field_batch(spec, 3, 1)[0].tolist() == [1]


def test_uniform_chain_samples_match_uniform_law():
    spec = chain(3, 0.0)
    draws = sample_field_batch(spec, seed=101, trials=10**6)
    index = (draws @ np.array([4, 2, 1])).astype(np.int64)
    empirical = np.bincount(index, minlength=8) / draws.shape[0]
    assert tv_distance(empirical, exact_field_distribution(spec)) <= 0.01


def test_batch_prefix_stability():
    spec = chain(6, 0.3)
    small = sample_field_batch(spec, seed=9, trials=10)
    large = sample_field_batch(spec, seed=9, trials=100)
    assert np.array_equal(small, large[:10])
    assert np.array_equal(sample_field_batch(spec, 9, 1)[0], large[0])


def test_empirical_law_close_to_exact_for_random_spec():
    rng = np.random.default_rng(2024)
    spec = random_field(rng, 8)
    draws = sample_field_batch(spec, seed=55, trials=10**6)
    index = (draws @ (2 ** np.arange(7, -1, -1))).astype(np.int64)
    empirical = np.bincount(index, minlength=256) / draws.shape[0]
    assert tv_distance(empirical, exact_field_distribution(spec)) <= 0.02


# --- exact law -------------------------------------------------------------


def test_exact_distribution_identity_kernel():
    spec = MarkovFieldSpec(
        n=2,
        alphabet_size=2,
        initial=np.array([0.5, 0.5]),
        kernels=np.tile(np.eye(2), (1, 1, 1)).reshape(1, 2, 2),
    )
    law = exact_field_distribution(spec)
    assert law[0b00] == pytest.approx(0.5)
    assert law[0b11] == pytest.approx(0.5)
    assert law[0b01] == law[0b10] == 0.0


def test_exact_distribution_uniform_chain():
    law = exact_field_distribution(chain(3, 0.0))
    assert np.allclose(law, 0.125)


def test_exact_distribution_product_entry():
    kernel = np.array([[0.9, 0.1], [0.2, 0.8]])
    spec = MarkovFieldSpec(
        n=3,
        alphabet_size=2,
        initial=np.array([0.7, 0.3]),
        kernels=np.tile(kernel, (2, 1, 1)).reshape(2, 2, 2),
    )
    law = exact_field_distribution(spec)
    assert law[0b000] == pytest.approx(0.7 * 0.9 * 0.9, abs=1e-15)
    assert law.sum() == pytest.approx(1.0, abs=1e-10)


def test_exact_distribution_overflow_guard():
    with pytest.raises(EnumerationLimitError):
        exact_field_distribution(chain(21, 0.5))


def test_site_marginals_match_enumeration():
    rng = np.random.default_rng(7)
    spec = random_field(rng, 6, alphabet_size=3)
    law = exact_field_distribution(spec).reshape((3,) * 6)
    marg = site_marginals(spec)
    for i in range(6):
        axes = tuple(a for a in range(6) if a != i)
        assert np.allclose(marg[i], law.sum(axis=axes), atol=1e-12)


# --- mixing ----------------------------------------------------------------


def test_mixing_coefficient_iid_kernel_is_zero():
    assert mixing_coefficients(chain(4, 0.0)).max() == 0.0


def test_mixing_coefficient_identity_kernel_is_one():
    spec = identity_chain(4)
    assert np.allclose(mixing_coefficients(spec), 1.0)


def test_mixing_coefficient_quarter_flip():
    # flip probability 0.25 -> half the row gap is 0.5
    assert mixing_coefficients(chain(3, 0.5))[0] == pytest.approx(0.5)


def test_mixing_coefficients_stay_small_and_equal_the_broadcast_formula():
    spec = random_field(np.random.default_rng(8), 32, alphabet_size=64)
    tracemalloc.start()
    try:
        theta = mixing_coefficients(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (31, 64, 64, 64) difference array of all row pairs would be 62 MiB
    assert peak < 16 * 2**20
    k = spec.kernels
    pairs = np.abs(k[:, :, None, :] - k[:, None, :, :]).sum(axis=-1)
    assert np.array_equal(theta, np.clip(0.5 * pairs.max(axis=(1, 2)), 0.0, 1.0))


def test_mixing_bound_iid():
    assert mixing_bound(np.zeros(5)) == 1.0


def test_mixing_bound_empty_theta():
    assert mixing_bound(np.zeros(0)) == 1.0


def test_mixing_bound_geometric_series():
    # homogeneous 0.5 over 20 bonds: 1 + sum_{k=1..20} 2^-k = 2 - 2^-20
    assert mixing_bound(np.full(20, 0.5)) == pytest.approx(2.0 - 2.0**-20, abs=1e-15)


def test_mixing_bound_all_ones():
    assert mixing_bound(np.ones(9)) == pytest.approx(10.0)


def test_mixing_bound_rejects_bad_theta():
    for theta in ([0.5, 1.5], [np.nan]):
        with pytest.raises(ValidationError):
            mixing_bound(np.array(theta))


def test_mixing_profile_bounds_range():
    assert 1.0 <= mixing_bound(mixing_coefficients(chain(12, 0.75))) <= 12.0


@given(
    theta=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    bump=st.integers(0, 7),
    extra=st.floats(0.0, 1.0),
)
def test_mixing_bound_monotone_in_each_coordinate(theta, bump, extra):
    theta = np.array(theta)
    i = bump % theta.size
    raised = theta.copy()
    raised[i] = max(raised[i], extra)
    assert mixing_bound(raised) >= mixing_bound(theta) - 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), s=st.integers(2, 4))
def test_mixing_coefficients_invariant_under_relabeling(seed, n, s):
    rng = np.random.default_rng(seed)
    spec = random_field(rng, n, alphabet_size=s)
    perm = rng.permutation(s)
    relabeled = MarkovFieldSpec(
        n=n,
        alphabet_size=s,
        initial=spec.initial[perm],
        kernels=spec.kernels[:, perm][:, :, perm],
    )
    assert np.allclose(
        mixing_coefficients(spec), mixing_coefficients(relabeled), atol=1e-12
    )


# --- correlation decay -----------------------------------------------------


def test_decay_profile_iid_chain_is_zero():
    assert np.allclose(correlation_decay_profile(chain(6, 0.0), 0), 0.0)


def test_decay_profile_identity_chain_is_one():
    spec = MarkovFieldSpec(
        n=5,
        alphabet_size=2,
        initial=np.array([0.5, 0.5]),
        kernels=np.tile(np.eye(2), (4, 1, 1)).reshape(4, 2, 2),
    )
    assert np.allclose(correlation_decay_profile(spec, 0), 1.0)


def test_decay_profile_symmetric_chain_closed_form():
    # For the symmetric chain the gap two bonds out is exactly theta^2.
    profile = correlation_decay_profile(chain(5, 0.5), 0)
    assert profile[1] == pytest.approx(0.25, abs=1e-10)


def test_decay_profile_rejects_non_binary():
    rng = np.random.default_rng(1)
    with pytest.raises(ValidationError):
        correlation_decay_profile(random_field(rng, 4, alphabet_size=3), 0)


def test_decay_bounded_by_theta_products_on_random_specs():
    rng = np.random.default_rng(31415)
    for _ in range(120):
        n = int(rng.integers(2, 9))
        spec = random_field(rng, n)
        theta = mixing_coefficients(spec)
        for site in range(n - 1):
            profile = correlation_decay_profile(spec, site)
            ceiling = np.cumprod(theta[site:])
            assert np.all(profile <= ceiling + 1e-10)
