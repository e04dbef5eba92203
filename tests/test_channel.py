import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmem import (
    EnumerationLimitError,
    GlobalThresholdChannel,
    HiddenErrorModel,
    MarkovFieldSpec,
    PerSiteChannel,
    ValidationError,
    WindowChannel,
    covariance_matrix,
    error_rate,
    lipschitz_constant,
    sample_errors_batch,
    site_error_rates,
)
from corrmem.channel import weight_distribution
from corrmem.oracle import brute_force_lipschitz, conditional_weight_table, exact_error_distribution, expected_errors

from conftest import chain, random_per_site_model, tv_distance


def iid_bernoulli_field(n, eps):
    kernel = np.array([[1.0 - eps, eps], [1.0 - eps, eps]])
    return MarkovFieldSpec(
        n=n,
        alphabet_size=2,
        initial=np.array([1.0 - eps, eps]),
        kernels=np.tile(kernel, (n - 1, 1, 1)).reshape(n - 1, 2, 2),
    )


def identity_channel(n):
    """PerSite channel that copies the latent bit: q_i(1|x) = x."""
    return PerSiteChannel(table=np.tile([0.0, 1.0], (n, 1)))


def threshold_model(n, eps, threshold):
    return HiddenErrorModel(
        field=iid_bernoulli_field(n, eps),
        channel=GlobalThresholdChannel(threshold=threshold),
    )


# --- construction ----------------------------------------------------------


def test_rejects_size_mismatch():
    with pytest.raises(ValidationError):
        HiddenErrorModel(field=chain(4, 0.5), channel=identity_channel(5))


def test_rejects_probability_outside_unit_interval():
    with pytest.raises(ValidationError):
        PerSiteChannel(table=np.array([[0.5, 1.5]]))


def test_window_table_must_match_neighborhood_size():
    # binary field, radius 1 -> the table needs 2^3 neighborhood columns
    with pytest.raises(ValidationError):
        HiddenErrorModel(
            field=chain(4, 0.5),
            channel=WindowChannel(radius=1, table=np.full((4, 4), 0.5)),
        )


def test_window_radius_cap():
    with pytest.raises(ValidationError):
        WindowChannel(radius=4, table=np.full((4, 2**9), 0.5))


def test_global_threshold_needs_binary_field():
    rng = np.random.default_rng(0)
    from conftest import random_field

    spec = random_field(rng, 3, alphabet_size=3)
    with pytest.raises(ValidationError):
        HiddenErrorModel(field=spec, channel=GlobalThresholdChannel(threshold=1.0))


# --- sampling --------------------------------------------------------------


def test_zero_channel_never_errors():
    model = HiddenErrorModel(
        field=chain(6, 0.5), channel=PerSiteChannel(table=np.zeros((6, 2)))
    )
    assert sample_errors_batch(model, seed=1, trials=200).max() == 0


def test_unit_channel_always_errors():
    model = HiddenErrorModel(
        field=chain(6, 0.5), channel=PerSiteChannel(table=np.ones((6, 2)))
    )
    assert sample_errors_batch(model, seed=1, trials=200).min() == 1


def test_identity_channel_inherits_field_marginals():
    n, eps = 8, 0.3
    model = HiddenErrorModel(field=iid_bernoulli_field(n, eps), channel=identity_channel(n))
    trials = 10**5
    rates = sample_errors_batch(model, seed=42, trials=trials).mean(axis=0)
    sigma = np.sqrt(eps * (1 - eps) / trials)
    assert np.all(np.abs(rates - eps) < 3 * sigma + 1e-9)


def test_sampler_matches_exact_law():
    rng = np.random.default_rng(99)
    model = random_per_site_model(rng, 8)
    trials = 10**6
    draws = sample_errors_batch(model, seed=7, trials=trials)
    index = (draws @ (2 ** np.arange(7, -1, -1))).astype(np.int64)
    empirical = np.bincount(index, minlength=256) / trials
    assert tv_distance(empirical, exact_error_distribution(model)) <= 0.02


def test_sample_errors_prefix_of_batch():
    rng = np.random.default_rng(5)
    model = random_per_site_model(rng, 5)
    assert np.array_equal(sample_errors_batch(model, 77, 1)[0], sample_errors_batch(model, 77, 50)[0])


# --- exact law -------------------------------------------------------------


def test_exact_law_single_site_copy():
    model = HiddenErrorModel(field=iid_bernoulli_field(1, 0.5), channel=identity_channel(1))
    law = exact_error_distribution(model)
    assert law.tolist() == pytest.approx([0.5, 0.5])


def test_exact_law_constant_field_fair_bits():
    spec = MarkovFieldSpec(
        n=4,
        alphabet_size=2,
        initial=np.array([1.0, 0.0]),
        kernels=np.tile(np.eye(2), (3, 1, 1)).reshape(3, 2, 2),
    )
    model = HiddenErrorModel(field=spec, channel=PerSiteChannel(table=np.full((4, 2), 0.5)))
    assert np.allclose(exact_error_distribution(model), 1.0 / 16.0)


def test_exact_law_threshold_concentrates_on_all_ones():
    # n=3, eps=0.5, threshold 1: the four latent states with two or more
    # ones all map to 111.
    law = exact_error_distribution(threshold_model(3, 0.5, 1.0))
    assert law[0b111] == pytest.approx(0.5, abs=1e-12)
    assert law.sum() == pytest.approx(1.0, abs=1e-10)


def test_exact_law_marginals_match_site_error_rates():
    rng = np.random.default_rng(11)
    model = random_per_site_model(rng, 7)
    law = exact_error_distribution(model).reshape((2,) * 7)
    rates = site_error_rates(model)
    for i in range(7):
        axes = tuple(a for a in range(7) if a != i)
        assert law.sum(axis=axes)[1] == pytest.approx(rates[i], abs=1e-10)


def test_exact_law_overflow_guard():
    model = HiddenErrorModel(
        field=chain(21, 0.5), channel=PerSiteChannel(table=np.full((21, 2), 0.5))
    )
    with pytest.raises(EnumerationLimitError):
        exact_error_distribution(model)


# --- error rate ------------------------------------------------------------


def test_error_rate_zero_channel():
    model = HiddenErrorModel(field=chain(5, 0.25), channel=PerSiteChannel(table=np.zeros((5, 2))))
    assert error_rate(model) == 0.0


def test_error_rate_identity_channel_iid_field():
    model = HiddenErrorModel(field=iid_bernoulli_field(6, 0.2), channel=identity_channel(6))
    assert error_rate(model) == pytest.approx(0.2, abs=1e-12)


def test_error_rate_threshold_example():
    assert error_rate(threshold_model(3, 0.5, 1.0)) == pytest.approx(5.0 / 8.0, abs=1e-12)


def test_error_rate_mc_agrees_with_exact():
    rng = np.random.default_rng(17)
    model = random_per_site_model(rng, 6)
    exact = error_rate(model)
    est = error_rate(model, mode="mc", trials=200_000, seed=13)
    assert abs(est.value - exact) < 4 * est.stderr + 1e-9


def test_error_rate_mc_rejects_tiny_trial_count():
    rng = np.random.default_rng(18)
    model = random_per_site_model(rng, 4)
    with pytest.raises(ValidationError):
        error_rate(model, mode="mc", trials=10, seed=1)


# --- conditional mean errors -----------------------------------------------


def test_expected_errors_zero_channel():
    model = HiddenErrorModel(field=chain(4, 0.5), channel=PerSiteChannel(table=np.zeros((4, 2))))
    assert expected_errors(model, [0, 1, 1, 0]) == 0.0


def test_expected_errors_threshold_below():
    assert expected_errors(threshold_model(3, 0.5, 1.0), [0, 1, 0]) == pytest.approx(1.0)


def test_expected_errors_threshold_above():
    assert expected_errors(threshold_model(3, 0.5, 1.0), [0, 1, 1]) == pytest.approx(3.0)


def test_expected_errors_rejects_bad_symbols():
    model = threshold_model(3, 0.5, 1.0)
    with pytest.raises(ValidationError):
        expected_errors(model, [0, 2, 0])


# --- Lipschitz constants ---------------------------------------------------


def test_lipschitz_identity_channel():
    model = HiddenErrorModel(field=iid_bernoulli_field(4, 0.3), channel=identity_channel(4))
    assert lipschitz_constant(model) == pytest.approx(1.0)


def test_lipschitz_constant_channel_is_zero():
    model = HiddenErrorModel(
        field=chain(5, 0.5), channel=PerSiteChannel(table=np.full((5, 2), 0.37))
    )
    assert lipschitz_constant(model) == 0.0
    assert brute_force_lipschitz(model) == pytest.approx(0.0, abs=1e-12)


def test_lipschitz_threshold_example():
    # flipping (0,1,0) -> (0,1,1) moves the conditional mean count 1 -> 3
    model = threshold_model(3, 0.5, 1.0)
    assert brute_force_lipschitz(model) == pytest.approx(2.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
def test_lipschitz_per_site_closed_form_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    model = random_per_site_model(rng, n)
    closed = lipschitz_constant(model)
    brute = brute_force_lipschitz(model)
    assert closed == pytest.approx(brute, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10), b=st.integers(0, 9))
def test_lipschitz_global_threshold_closed_form(n, b):
    threshold = b % n
    model = threshold_model(n, 0.4, float(threshold))
    assert brute_force_lipschitz(model) == pytest.approx(
        float(n - threshold)
    )


# --- covariance ------------------------------------------------------------


def test_covariance_independent_model_off_diagonal_zero():
    rng = np.random.default_rng(3)
    table = rng.random((6, 2))
    model = HiddenErrorModel(field=chain(6, 0.0), channel=PerSiteChannel(table=table))
    cov = covariance_matrix(model)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 1e-10


def test_covariance_threshold_example():
    cov = covariance_matrix(threshold_model(3, 0.5, 1.0))
    assert cov[0, 1] == pytest.approx(7.0 / 64.0, abs=1e-12)


def test_covariance_symmetric_psd():
    rng = np.random.default_rng(23)
    model = random_per_site_model(rng, 7)
    cov = covariance_matrix(model)
    assert np.allclose(cov, cov.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.min() > -1e-8


def test_covariance_diagonal_is_bernoulli_variance():
    rng = np.random.default_rng(29)
    model = random_per_site_model(rng, 5)
    cov = covariance_matrix(model)
    mu = site_error_rates(model)
    assert np.allclose(np.diag(cov), mu * (1 - mu), atol=1e-12)


def test_covariance_mc_within_four_stderr_of_exact():
    rng = np.random.default_rng(37)
    model = random_per_site_model(rng, 6)
    exact = covariance_matrix(model)
    est = covariance_matrix(model, mode="mc", trials=300_000, seed=41)
    gap = np.abs(est.values - exact)
    assert np.all(gap <= 4.0 * est.stderr + 1e-9)


def test_covariance_mc_rejects_tiny_trial_count():
    rng = np.random.default_rng(43)
    model = random_per_site_model(rng, 4)
    with pytest.raises(ValidationError):
        covariance_matrix(model, mode="mc", trials=100, seed=1)


# --- weight law ------------------------------------------------------------


def test_weight_distribution_matches_enumeration():
    rng = np.random.default_rng(47)
    model = random_per_site_model(rng, 7)
    law = exact_error_distribution(model)
    weights = np.array(
        [bin(v).count("1") for v in range(128)], dtype=np.int64
    )
    expected = np.bincount(weights, weights=law, minlength=8)
    assert np.allclose(weight_distribution(model), expected, atol=1e-12)


def test_weight_distribution_memoryless_fast_path_scales():
    # theta=0 with a per-site channel avoids enumeration entirely
    model = HiddenErrorModel(
        field=iid_bernoulli_field(128, 0.2),
        channel=PerSiteChannel(table=np.tile([0.05, 0.05], (128, 1))),
    )
    law = weight_distribution(model)
    assert law.shape == (129,)
    assert law.sum() == pytest.approx(1.0, abs=1e-10)
    from scipy import stats

    assert np.allclose(law, stats.binom.pmf(np.arange(129), 128, 0.05), atol=1e-12)


def test_conditional_weight_table_rows_are_laws():
    rng = np.random.default_rng(53)
    model = random_per_site_model(rng, 6)
    table = conditional_weight_table(model)
    assert table.shape == (64, 7)
    assert np.allclose(table.sum(axis=1), 1.0, atol=1e-10)
