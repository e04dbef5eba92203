import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmem import (
    HiddenErrorModel,
    MarkovFieldSpec,
    PerSiteChannel,
    ThresholdModelSpec,
    ValidationError,
    chain_rate_constant,
    chain_tail_bound,
    clopper_pearson,
    combined_tail_bound,
    empirical_tail,
    exact_tail,
    hoeffding_conditional_bound,
    mixing_bound,
    mixing_coefficients,
    verify_bound,
    weight_law,
)
from corrmem.oracle import conditional_weight_table, exact_field_distribution

from conftest import chain, random_per_site_model


def chain_model(n, theta, rates):
    field = chain(n, theta)
    table = np.tile(np.asarray(rates, dtype=float), (n, 1))
    return HiddenErrorModel(field=field, channel=PerSiteChannel(table=table))


# --- closed forms -----------------------------------------------------------


def test_hoeffding_at_beta_zero_is_two():
    assert hoeffding_conditional_bound(0.0, 50) == 2.0


def test_hoeffding_single_site():
    assert hoeffding_conditional_bound(1.0, 1) == pytest.approx(2.0 / math.e)


def test_chain_rate_constant_baseline():
    assert chain_rate_constant(1.0, 1.0) == pytest.approx(0.5)
    assert chain_rate_constant(2.0, 3.0) == pytest.approx(1.0 / 72.0)


def test_chain_bound_reduces_to_hoeffding_shape():
    # c=1, m=1: rate 1/2, so beta=1, n=2 lands back at 2/e
    assert chain_tail_bound(1.0, 2, 1.0, 1.0) == pytest.approx(2.0 / math.e)


def test_chain_bound_insensitive_channel():
    assert chain_tail_bound(0.3, 10, 0.0, 2.0) == 0.0
    assert chain_tail_bound(0.0, 10, 0.0, 2.0) == 2.0


def test_combined_bound_splits_budget():
    got = combined_tail_bound(0.5, 1.0, 4, 1.0, 1.0)
    want = 2.0 * math.exp(-1.0) + 2.0 * math.exp(-0.5)
    assert got == pytest.approx(want)


def test_bounds_reject_bad_arguments():
    with pytest.raises(ValidationError):
        hoeffding_conditional_bound(-0.1, 4)
    with pytest.raises(ValidationError):
        chain_tail_bound(0.1, 0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        chain_tail_bound(0.1, 4, -1.0, 1.0)
    with pytest.raises(ValidationError):
        chain_tail_bound(0.1, 4, 1.0, 0.5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: chain_rate_constant(0.0, 1.0), "c must be positive"),
        (lambda: chain_rate_constant(1.0, 0.5), "m must be >= 1"),
        (lambda: chain_tail_bound(-0.1, 4, 1.0, 1.0), "beta must be non-negative"),
        (lambda: combined_tail_bound(1.0, 0.1, 4, 1.0, 1.0), "eps must lie in [0, 1)"),
        (lambda: clopper_pearson(1, 4, confidence=1.0), "confidence must lie in (0, 1)"),
    ],
    ids=["rate-c", "rate-m", "chain-beta", "combined-eps", "clopper-pearson-confidence"],
)
def test_bound_arguments_are_checked_by_name(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


@given(
    beta=st.floats(0.0, 2.0),
    beta2=st.floats(0.0, 2.0),
    n=st.integers(1, 10_000),
)
def test_hoeffding_monotone_in_beta(beta, beta2, n):
    lo, hi = sorted((beta, beta2))
    assert hoeffding_conditional_bound(hi, n) <= hoeffding_conditional_bound(lo, n)


@given(
    beta=st.floats(0.01, 2.0),
    n=st.integers(1, 1000),
    c=st.floats(0.1, 4.0),
    extra=st.floats(0.0, 5.0),
)
def test_chain_bound_monotone_in_mixing(beta, n, c, extra):
    assert chain_tail_bound(beta, n, c, 1.0 + extra) >= chain_tail_bound(beta, n, c, 1.0)


# --- dominance against exact laws --------------------------------------------


def test_hoeffding_dominates_conditional_tails():
    # every row of the conditional weight table is a sum of independent
    # indicators, so each conditional tail obeys the two-sided bound
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        model = random_per_site_model(rng, n)
        table = conditional_weight_table(model)
        means = table @ np.arange(n + 1)
        for beta in (0.05, 0.1, 0.2, 0.4):
            cutoff_hi = means + beta * n
            cutoff_lo = means - beta * n
            weights = np.arange(n + 1)
            mask_hi = weights[None, :] > cutoff_hi[:, None]
            mask_lo = weights[None, :] < cutoff_lo[:, None]
            tail = (table * (mask_hi | mask_lo)).sum(axis=1)
            assert np.all(tail <= hoeffding_conditional_bound(beta, n) + 1e-12)


def test_chain_bound_dominates_identity_channel_tail():
    # identity read-out: psi(X) is the field sum itself; enumerate it
    n = 10
    field = chain(n, 0.5)
    law = exact_field_distribution(field)
    sequences = np.array(
        [[(idx >> (n - 1 - k)) & 1 for k in range(n)] for idx in range(2**n)]
    )
    sums = sequences.sum(axis=1)
    mean = float(law @ sums)
    m = mixing_bound(mixing_coefficients(field))
    for beta in (0.05, 0.1, 0.2, 0.3, 0.5):
        tail = float(law[np.abs(sums - mean) > beta * n].sum())
        assert tail <= chain_tail_bound(beta, n, 1.0, m) + 1e-12


def test_combined_bound_dominates_hidden_model_tail():
    model = chain_model(12, 0.5, [0.05, 0.15])
    law = weight_law(model)
    weights = np.arange(13)
    c = model.lipschitz()
    m = mixing_bound(mixing_coefficients(model.field))
    eps = model.mean_rate()
    for delta in (0.1, 0.2, 0.3, 0.4):
        tail = float(law[weights > 12 * (eps + delta)].sum())
        assert tail <= combined_tail_bound(eps, delta, 12, c, m) + 1e-12


# --- exact and empirical tails ----------------------------------------------


def test_exact_tail_degenerate_thresholds():
    model = chain_model(6, 0.25, [0.1, 0.3])
    assert exact_tail(model, -0.5) == 1.0
    assert exact_tail(model, 6.0) == 0.0
    assert exact_tail(model, 99.0) == 0.0


@pytest.mark.parametrize("family", ["hidden", "threshold"])
def test_tails_reject_a_nan_threshold(family):
    if family == "hidden":
        model = chain_model(6, 0.25, [0.1, 0.3])
    else:
        model = ThresholdModelSpec(n=6, eps=0.2, margin=1.0)
    with pytest.raises(ValidationError, match="NaN"):
        exact_tail(model, math.nan)
    with pytest.raises(ValidationError, match="NaN"):
        empirical_tail(model, math.nan, trials=1000, seed=0)


def test_exact_tail_matches_law_sum():
    model = chain_model(8, 0.5, [0.05, 0.2])
    law = weight_law(model)
    assert exact_tail(model, 2.7) == pytest.approx(float(law[3:].sum()), abs=1e-14)


def test_threshold_exact_tail_needs_no_weight_law(monkeypatch):
    # below, at and above floor(B): the tail comes straight from the
    # binomial kernel, and agrees with the sum over the whole weight law
    spec = ThresholdModelSpec(n=4096, eps=0.1, margin=1.0)
    b = math.floor(spec.threshold)
    law = spec.weight_law()
    ks = (0, 300, 409, 410, b - 1, b, b + 1, 4000, 4095)
    expected = [math.fsum(law[k + 1 :].tolist()) for k in ks]

    def refuse(self):
        raise AssertionError("the tail must not build the weight law")

    monkeypatch.setattr(ThresholdModelSpec, "weight_law", refuse)
    for k, want in zip(ks, expected):
        assert exact_tail(spec, k) == pytest.approx(want, rel=1e-13, abs=0)


def test_empirical_tail_degenerate_channels():
    zero = chain_model(5, 0.25, [0.0, 0.0])
    est = empirical_tail(zero, 0.5, trials=2000, seed=4)
    assert est.value == 0.0
    assert est.exceedances == 0
    unit = chain_model(5, 0.25, [1.0, 1.0])
    est = empirical_tail(unit, 4.5, trials=2000, seed=4)
    assert est.value == 1.0
    assert est.ci_lo > 0.99


def test_empirical_tail_requires_enough_trials():
    model = chain_model(5, 0.25, [0.1, 0.1])
    with pytest.raises(ValidationError):
        empirical_tail(model, 1.5, trials=500, seed=0)


def test_empirical_tail_covers_truth():
    model = chain_model(7, 0.5, [0.1, 0.3])
    threshold = 2.5
    truth = exact_tail(model, threshold)
    hits = 0
    for seed in range(40):
        est = empirical_tail(model, threshold, trials=4000, seed=seed)
        hits += est.ci_lo <= truth <= est.ci_hi
    assert hits >= 36  # 95% intervals; generous floor for 40 repeats


def test_empirical_tail_deterministic_in_seed():
    model = chain_model(6, 0.25, [0.1, 0.2])
    a = empirical_tail(model, 1.5, trials=3000, seed=9)
    b = empirical_tail(model, 1.5, trials=3000, seed=9)
    assert a == b


# --- Clopper-Pearson ----------------------------------------------------------


def test_clopper_pearson_endpoints():
    lo, hi = clopper_pearson(0, 100)
    assert lo == 0.0
    assert 0.0 < hi < 0.05
    lo, hi = clopper_pearson(100, 100)
    assert hi == 1.0
    assert 0.95 < lo < 1.0


def test_clopper_pearson_contains_point_estimate():
    lo, hi = clopper_pearson(37, 500)
    assert lo < 37 / 500 < hi


def test_clopper_pearson_rejects_bad_counts():
    with pytest.raises(ValidationError):
        clopper_pearson(5, 4)
    with pytest.raises(ValidationError):
        clopper_pearson(-1, 4)


# --- verdict machinery --------------------------------------------------------


def test_verify_bound_chain_model_dominated():
    model = chain_model(12, 0.5, [0.05, 0.15])
    report = verify_bound(model, delta=0.25, trials=20_000, seed=1)
    assert report.verdict == "dominated"
    assert report.ci_hi <= report.bound
    assert report.method == "mc"
    assert report.trials == 20_000


def test_verify_bound_exact_method_point_interval():
    model = chain_model(10, 0.25, [0.05, 0.1])
    report = verify_bound(model, delta=0.2, method="exact")
    assert report.trials == 0
    assert report.ci_lo == report.ci_hi == report.estimate
    assert report.verdict == "dominated"


def test_verify_bound_threshold_model_vacuous_but_dominated():
    spec = ThresholdModelSpec(n=12, eps=0.2, margin=1.0)
    report = verify_bound(spec, delta=0.3, method="exact")
    assert report.vacuous
    assert report.bound >= 1.0
    assert report.verdict == "dominated"


def test_verify_bound_exact_never_violated_randomized():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        model = random_per_site_model(rng, n)
        delta = float(rng.uniform(0.05, 0.5))
        report = verify_bound(model, delta=delta, method="exact")
        assert report.verdict != "violated"


def test_verify_bound_report_parameters_resolved():
    model = chain_model(8, 0.25, [0.1, 0.2])
    report = verify_bound(model, delta=0.3, method="exact")
    assert report.n == 8
    assert report.c == pytest.approx(model.lipschitz())
    assert report.m == pytest.approx(mixing_bound(mixing_coefficients(model.field)))
    assert report.threshold == pytest.approx(8 * (report.eps + 0.3))
    assert report.rate_constant == pytest.approx(
        chain_rate_constant(report.c, report.m)
    )
