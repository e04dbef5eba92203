import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmem import (
    HiddenErrorModel,
    ThresholdModelSpec,
    ValidationError,
    covariance_decomposition,
    covariance_matrix,
    exact_covariance,
    marginal_error_rate,
    retention_upper_bound,
    sample_errors_batch,
    tail_scaling_fit,
    trigger_probability,
)
import corrmem.adversarial as adversarial
from corrmem.adversarial import _binom_tail_gt, weight_distribution


def spec_with_threshold(n, eps, threshold):
    return ThresholdModelSpec.from_threshold(n, eps, threshold)


def enumerated_pair_covariance(n, eps, threshold):
    """Brute-force cov(Y_0, Y_1) over all 2^n latent states."""
    e0 = e1 = e01 = 0.0
    for v in range(2**n):
        bits = [(v >> (n - 1 - i)) & 1 for i in range(n)]
        p = math.prod(eps if b else 1.0 - eps for b in bits)
        y = [1] * n if sum(bits) > threshold else bits
        e0 += p * y[0]
        e1 += p * y[1]
        e01 += p * y[0] * y[1]
    return e01 - e0 * e1


# --- spec construction -----------------------------------------------------


def test_requires_exactly_one_margin_form():
    with pytest.raises(ValidationError):
        ThresholdModelSpec(n=4, eps=0.1)
    with pytest.raises(ValidationError):
        ThresholdModelSpec(n=4, eps=0.1, margin=1.0, margin_rate=1.0)


def test_margin_rate_must_be_positive():
    with pytest.raises(ValidationError):
        ThresholdModelSpec(n=4, eps=0.1, margin_rate=0.0)


def test_explicit_margin_may_be_negative():
    # thresholds below the mean are legitimate (the trigger is then likely)
    spec = ThresholdModelSpec(n=4, eps=0.5, margin=-2.0)
    assert spec.threshold == pytest.approx(2.0 - 4.0)


def test_threshold_recomputed_from_schedule():
    spec = ThresholdModelSpec(n=16, eps=0.1, margin_rate=2.0)
    assert spec.resolved_margin == pytest.approx(2.0 * math.sqrt(math.log(16)))
    assert spec.threshold == pytest.approx(1.6 + 4.0 * spec.resolved_margin)


@pytest.mark.parametrize(
    "n, eps, threshold, exact",
    [
        (8, 0.25, 3.0, True),
        # the plain margin gives 2.9999999999999996 and no margin gives 3.0
        (5, 0.01, 3.0, False),
        (47, 0.01, 28.0, False),
        # the plain margin falls an ulp short and a neighbour hits exactly
        (3, 0.001, 4.0, True),
        (9, 0.01, 2.0, True),
        (18, 0.1, 16.0, True),
        # the largest float: the margin an ulp above it gives an infinite threshold
        (1, 0.5, 1.7976931348623157e308, True),
    ],
)
def test_from_threshold_round_trip(n, eps, threshold, exact):
    spec = spec_with_threshold(n, eps, threshold)
    assert math.floor(spec.threshold) == math.floor(threshold)
    assert (spec.threshold == threshold) is exact


def test_spec_builds_its_field_once_and_only_when_read(monkeypatch):
    built = []
    monkeypatch.setattr(adversarial, "MarkovFieldSpec", lambda **kw: built.append(kw["n"]) or object())
    # an eager field would tile n - 1 kernels: 16 MiB at n = 2**19
    tracemalloc.start()
    try:
        spec = ThresholdModelSpec(n=2**19, eps=0.1, margin_rate=1.0)
        spec.threshold, spec.resolved_margin, spec.lipschitz(), spec.mixing_bound(), repr(spec)
        assert spec == ThresholdModelSpec(n=2**19, eps=0.1, margin_rate=1.0)
        for k in (-1, 0, 2**19 // 10, math.floor(spec.threshold), 2**19):
            spec.tail(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert built == []
    small = ThresholdModelSpec(n=6, eps=0.3, margin=0.5)
    assert small.field is small.field
    assert built == [6]


# --- trigger probability ---------------------------------------------------


def test_trigger_probability_exact_corner():
    # only the all-ones state exceeds 3 of 4
    assert trigger_probability(spec_with_threshold(4, 0.5, 3.0)) == pytest.approx(
        1.0 / 16.0, abs=1e-15
    )


def test_trigger_probability_threshold_at_or_above_n():
    assert trigger_probability(spec_with_threshold(5, 0.3, 5.0)) == 0.0
    assert trigger_probability(spec_with_threshold(5, 0.3, 7.5)) == 0.0


def test_trigger_probability_negative_threshold():
    assert trigger_probability(spec_with_threshold(5, 0.3, -1.0)) == 1.0


def test_trigger_probability_matches_enumeration():
    # enumerate at the threshold the spec actually resolves to: the
    # float round-trip through from_threshold may land an ulp away from
    # the requested value, which matters exactly at integer boundaries
    for n in (3, 5, 8):
        for eps in (0.1, 0.5, 0.9):
            for threshold in (-0.5, 0.0, 1.0, 2.5, n - 1.0):
                spec = spec_with_threshold(n, eps, threshold)
                total = sum(
                    math.prod(eps if (v >> i) & 1 else 1 - eps for i in range(n))
                    for v in range(2**n)
                    if bin(v).count("1") > spec.threshold
                )
                assert trigger_probability(spec) == pytest.approx(total, abs=1e-12)


@given(
    n=st.integers(2, 40),
    eps=st.floats(0.05, 0.95),
    lo=st.floats(0.0, 5.0),
    gap=st.floats(0.1, 5.0),
)
def test_trigger_probability_monotone_in_threshold(n, eps, lo, gap):
    p_lo = trigger_probability(spec_with_threshold(n, eps, lo))
    p_hi = trigger_probability(spec_with_threshold(n, eps, lo + gap))
    assert p_hi <= p_lo + 1e-12


# --- sampling --------------------------------------------------------------


def test_sampling_all_ones_when_threshold_negative():
    spec = ThresholdModelSpec(n=6, eps=0.2, margin=-10.0)
    assert sample_errors_batch(spec, seed=1, trials=100).min() == 1


def test_sampling_trigger_frequency():
    # n=3, eps=0.5, threshold 1 -> output 111 exactly when two or more
    # latent ones, probability 1/2
    spec = spec_with_threshold(3, 0.5, 1.0)
    trials = 10**5
    draws = sample_errors_batch(spec, seed=77, trials=trials)
    frac = (draws.sum(axis=1) == 3).mean()
    sigma = math.sqrt(0.25 / trials)
    assert abs(frac - 0.5) < 3 * sigma


def test_single_draw_is_batch_prefix():
    spec = spec_with_threshold(5, 0.3, 2.0)
    assert np.array_equal(sample_errors_batch(spec, 12, 1), sample_errors_batch(spec, 12, 20)[:1])


# --- marginals -------------------------------------------------------------


def test_marginal_error_rate_enumeration_example():
    rate = marginal_error_rate(spec_with_threshold(3, 0.5, 1.0))
    assert rate.value == pytest.approx(5.0 / 8.0, abs=1e-12)


def test_marginal_error_rate_trivial_when_trigger_impossible():
    rate = marginal_error_rate(spec_with_threshold(6, 0.3, 6.0))
    assert rate.value == pytest.approx(0.3, abs=1e-15)
    assert rate.deviation == pytest.approx(0.0, abs=1e-15)


@given(n=st.integers(2, 30), eps=st.floats(0.05, 0.95), margin=st.floats(-3.0, 3.0))
def test_marginal_deviation_bounded_by_trigger_probability(n, eps, margin):
    spec = ThresholdModelSpec(n=n, eps=eps, margin=margin)
    rate = marginal_error_rate(spec)
    assert rate.deviation <= rate.trigger_prob + 1e-12


# --- pair covariance -------------------------------------------------------


def test_exact_covariance_frozen_example():
    assert exact_covariance(spec_with_threshold(3, 0.5, 1.0)) == pytest.approx(
        7.0 / 64.0, abs=1e-15
    )


def test_exact_covariance_zero_when_trigger_impossible():
    assert exact_covariance(spec_with_threshold(4, 0.2, 4.0)) == 0.0


def test_exact_covariance_zero_when_trigger_is_all_ones_state():
    # threshold 2 of 3: the trigger only fires at the all-ones state, where
    # the rewrite changes nothing, so Y = X exactly
    assert exact_covariance(spec_with_threshold(3, 0.5, 2.0)) == pytest.approx(
        0.0, abs=1e-15
    )


def test_exact_covariance_rejects_equal_sites():
    with pytest.raises(ValidationError):
        exact_covariance(spec_with_threshold(3, 0.5, 1.0), 1, 1)


def test_exact_covariance_site_independent():
    spec = ThresholdModelSpec(n=7, eps=0.3, margin=0.4)
    base = exact_covariance(spec, 0, 1)
    for i in range(7):
        for j in range(7):
            if i != j:
                assert exact_covariance(spec, i, j) == base


def test_exact_covariance_matches_enumeration_sweep():
    for n in range(2, 13):
        for eps in (0.1, 0.3, 0.5, 0.7):
            for threshold in (-0.5, 0.0, 1.0, n / 2.0, n - 1.0):
                spec = spec_with_threshold(n, eps, threshold)
                assert exact_covariance(spec) == pytest.approx(
                    enumerated_pair_covariance(n, eps, spec.threshold), abs=1e-10
                )


def test_exact_covariance_matches_hidden_model_enumeration():
    spec = spec_with_threshold(6, 0.35, 2.0)
    cov = covariance_matrix(HiddenErrorModel(spec.field, spec.channel))
    assert exact_covariance(spec) == pytest.approx(cov[2, 4], abs=1e-12)


# --- covariance decomposition ----------------------------------------------


def test_decomposition_identity_and_between_ceiling():
    spec = spec_with_threshold(3, 0.5, 1.0)
    dec = covariance_decomposition(spec)
    assert dec.total == pytest.approx(7.0 / 64.0, abs=1e-12)
    assert dec.conditional_term + dec.between_term == pytest.approx(
        dec.total, abs=1e-12
    )
    assert dec.between_term <= dec.trigger_prob * (1 - dec.trigger_prob) + 1e-12


def test_decomposition_cancelling_terms():
    # threshold 2 of 3 at eps 1/2: total covariance is exactly zero, but the
    # two terms are not — they cancel at +-1/28 (conditioning on the trigger
    # still splits the state space even though the rewrite is a no-op there)
    dec = covariance_decomposition(spec_with_threshold(3, 0.5, 2.0))
    assert dec.total == pytest.approx(0.0, abs=1e-15)
    assert dec.between_term == pytest.approx(1.0 / 28.0, abs=1e-12)
    assert dec.conditional_term == pytest.approx(-1.0 / 28.0, abs=1e-12)


def test_decomposition_trivial_when_trigger_impossible():
    dec = covariance_decomposition(spec_with_threshold(4, 0.25, 4.0))
    assert (dec.conditional_term, dec.between_term, dec.total) == (0.0, 0.0, 0.0)
    assert dec.trigger_prob == 0.0


@given(n=st.integers(2, 24), eps=st.floats(0.05, 0.95), margin=st.floats(-2.0, 3.0))
def test_decomposition_sums_to_direct_covariance(n, eps, margin):
    spec = ThresholdModelSpec(n=n, eps=eps, margin=margin)
    dec = covariance_decomposition(spec)
    # relative to the larger term: an absolute 1e-12 would pass any gap in a deep tail
    scale = max(abs(dec.conditional_term), abs(dec.between_term))
    assert dec.conditional_term + dec.between_term == pytest.approx(
        exact_covariance(spec), rel=0.0, abs=1e-12 * scale
    )
    assert dec.between_term <= dec.trigger_prob * (1 - dec.trigger_prob) + 1e-12


# --- reduced-sum tails -----------------------------------------------------


class ReducedSumTails(NamedTuple):
    """Tails of latent sums with one or two sites removed.

    ``drop_one`` is ``P(Bin(n-1, eps) > B)`` for trigger threshold B, and
    ``drop_two`` the same with two sites removed.  The ``hoeffding_*``
    ceilings are ``exp(-2 (B - m eps)^2 / m)``; a ceiling is ``None`` when
    the threshold does not exceed the reduced mean (the exponential form
    does not apply there).
    """

    drop_one: float
    drop_two: float
    hoeffding_drop_one: float | None
    hoeffding_drop_two: float | None


def reduced_sum_tails(spec):
    """Exact reduced-sum tails with their exponential ceilings."""
    b = spec.threshold

    def ceiling(m):
        t = b - m * spec.eps
        return math.exp(-2.0 * t * t / m) if m >= 1 and t > 0.0 else None

    return ReducedSumTails(
        drop_one=_binom_tail_gt(spec.n - 1, spec.eps, b),
        drop_two=_binom_tail_gt(spec.n - 2, spec.eps, b),
        hoeffding_drop_one=ceiling(spec.n - 1),
        hoeffding_drop_two=ceiling(spec.n - 2),
    )


def test_reduced_tails_zero_when_trigger_impossible():
    tails = reduced_sum_tails(spec_with_threshold(6, 0.2, 6.0))
    assert tails.drop_one == 0.0
    assert tails.drop_two == 0.0


def test_reduced_tails_corner_case():
    tails = reduced_sum_tails(spec_with_threshold(4, 0.5, 3.0))
    assert tails.drop_one == 0.0  # Bin(3, 1/2) cannot exceed 3


def test_reduced_tails_below_hoeffding_ceiling():
    spec = ThresholdModelSpec(n=64, eps=0.1, margin=2.0)
    tails = reduced_sum_tails(spec)
    assert tails.hoeffding_drop_one is not None
    assert tails.drop_one <= tails.hoeffding_drop_one
    assert tails.drop_two <= tails.hoeffding_drop_two


# --- retention ceiling -----------------------------------------------------


def test_retention_bound_corner():
    assert retention_upper_bound(spec_with_threshold(4, 0.5, 3.0)) == pytest.approx(16.0)


def test_retention_bound_certain_trigger():
    assert retention_upper_bound(spec_with_threshold(4, 0.5, -1.0)) == pytest.approx(1.0)


def test_retention_bound_half():
    assert retention_upper_bound(spec_with_threshold(3, 0.5, 1.0)) == pytest.approx(2.0)


def test_retention_bound_infinite_when_trigger_impossible():
    assert retention_upper_bound(spec_with_threshold(3, 0.5, 3.0)) == math.inf


# --- weight law ------------------------------------------------------------


def test_weight_distribution_mass_at_n():
    spec = spec_with_threshold(3, 0.5, 1.0)
    law = weight_distribution(spec)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    # weight 3 collects the trigger mass plus the genuine all-ones draw
    assert law[3] == pytest.approx(0.5, abs=1e-12)
    assert law[2] == 0.0


# --- scaling fits ----------------------------------------------------------


def test_tail_scaling_fit_requires_enough_sizes():
    specs = [ThresholdModelSpec(n=n, eps=0.1, margin_rate=1.0) for n in (8, 16, 32)]
    with pytest.raises(ValidationError):
        tail_scaling_fit(specs)


def test_tail_scaling_fit_rejects_constant_margin():
    specs = [ThresholdModelSpec(n=16, eps=0.1, margin=1.0) for _ in range(4)]
    with pytest.raises(ValidationError):
        tail_scaling_fit(specs)


def test_tail_scaling_fit_slope_negative():
    specs = [
        ThresholdModelSpec(n=n, eps=0.1, margin_rate=1.0)
        for n in (256, 1024, 4096, 16384)
    ]
    fit = tail_scaling_fit(specs)
    assert fit.slope < 0.0
    assert fit.r_squared > 0.99


def test_tail_scaling_fit_polynomial_retention_exponent():
    # with the sqrt-log schedule the retention ceiling grows polynomially;
    # the exponent tracks the squared rate through the binomial rate function
    specs = [
        ThresholdModelSpec(n=n, eps=0.1, margin_rate=0.6)
        for n in (256, 1024, 4096, 16384)
    ]
    fit = tail_scaling_fit(specs)
    assert fit.retention_exponent is not None
    assert 1.0 < fit.retention_exponent < 4.0
