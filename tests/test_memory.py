import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from corrmem import (
    CodeModel,
    HiddenErrorModel,
    MarkovFieldSpec,
    PerSiteChannel,
    ThresholdModelSpec,
    ValidationError,
    count_exceedances,
    empirical_tail,
    epoch_step,
    exact_tail,
    geometric_ks_statistic,
    ks_critical_value,
    lifetime_lower_bound,
    make_generator,
    per_epoch_failure_prob,
    retention_upper_bound,
    scaling_experiment,
    simulate_retention,
    trigger_probability,
    verify_bound,
    weight_law,
)

from conftest import chain, random_per_site_model


def iid_per_site_model(n, eps, q):
    kernel = np.array([[1.0 - eps, eps], [1.0 - eps, eps]])
    field = MarkovFieldSpec(
        n=n,
        alphabet_size=2,
        initial=np.array([1.0 - eps, eps]),
        kernels=np.tile(kernel, (n - 1, 1, 1)).reshape(n - 1, 2, 2),
    )
    return HiddenErrorModel(field=field, channel=PerSiteChannel(table=np.full((n, 2), q)))


# --- code model ------------------------------------------------------------


def test_code_thresholds_by_mode():
    assert CodeModel(n=20, k=1, d=11).correction_threshold == 5
    assert CodeModel(n=20, k=1, d=11, mode="full_distance").correction_threshold == 10


def test_code_rejects_distance_above_n():
    with pytest.raises(ValidationError):
        CodeModel(n=8, k=1, d=9)


def test_code_rejects_k_not_below_n():
    with pytest.raises(ValidationError):
        CodeModel(n=8, k=8, d=3)


def test_code_rejects_unknown_mode():
    with pytest.raises(ValidationError):
        CodeModel(n=8, k=1, d=3, mode="generous")


# --- epoch step ------------------------------------------------------------


def test_epoch_step_weight_zero_corrected():
    assert epoch_step(0, CodeModel(n=10, k=1, d=5))


def test_epoch_step_full_weight_fails():
    assert not epoch_step(10, CodeModel(n=10, k=1, d=5))


def test_epoch_step_half_distance_boundary():
    code = CodeModel(n=20, k=1, d=11)
    assert epoch_step(5, code)
    assert not epoch_step(6, code)


def test_epoch_step_rejects_out_of_range_weight():
    code = CodeModel(n=10, k=1, d=5)
    with pytest.raises(ValidationError):
        epoch_step(11, code)
    with pytest.raises(ValidationError):
        epoch_step(-1, code)


@given(w=st.integers(0, 16), w2=st.integers(0, 16), d=st.integers(1, 16))
def test_epoch_step_monotone(w, w2, d):
    code = CodeModel(n=16, k=1, d=d)
    lo, hi = sorted((w, w2))
    if not epoch_step(lo, code):
        assert not epoch_step(hi, code)


# --- per-epoch failure probability -----------------------------------------


def test_failure_prob_zero_channel():
    model = iid_per_site_model(6, 0.5, 0.0)
    assert per_epoch_failure_prob(model, CodeModel(n=6, k=1, d=3)) == 0.0


def test_failure_prob_threshold_enumeration_example():
    # n=3, eps=1/2, trigger above 1, tau=2: only weight-3 epochs fail, and
    # those are exactly the trigger events, probability 1/2
    spec = ThresholdModelSpec.from_threshold(3, 0.5, 1.0)
    code = CodeModel(n=3, k=1, d=3, mode="full_distance")
    assert code.correction_threshold == 2
    assert per_epoch_failure_prob(spec, code) == pytest.approx(0.5, abs=1e-12)


def test_failure_prob_binomial_oracle():
    model = iid_per_site_model(10, 0.5, 0.1)  # field irrelevant, q constant
    code = CodeModel(n=10, k=1, d=6, mode="full_distance")  # tau = 5
    expected = float(stats.binom.sf(5, 10, 0.1))
    assert per_epoch_failure_prob(model, code) == pytest.approx(expected, abs=1e-12)


def test_failure_prob_certain_trigger_is_one():
    # negative threshold: every epoch triggers, every epoch exceeds tau=3
    spec = ThresholdModelSpec.from_threshold(4, 0.5, -1.0)
    code = CodeModel(n=4, k=1, d=4, mode="full_distance")
    assert per_epoch_failure_prob(spec, code) == pytest.approx(1.0)


def test_failure_prob_mc_agrees_with_exact():
    rng = np.random.default_rng(61)
    for trial in range(5):
        model = random_per_site_model(rng, 8)
        code = CodeModel(n=8, k=1, d=int(rng.integers(1, 9)))
        exact = per_epoch_failure_prob(model, code)
        est = per_epoch_failure_prob(model, code, mode="mc", trials=40_000, seed=trial)
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / est.trials)
        assert abs(est.value - exact) < 4 * sigma + 1e-9


def test_failure_prob_mc_requires_seed_and_trials():
    model = iid_per_site_model(4, 0.5, 0.1)
    code = CodeModel(n=4, k=1, d=3)
    with pytest.raises(ValidationError):
        per_epoch_failure_prob(model, code, mode="mc", trials=50, seed=1)
    with pytest.raises(ValidationError):
        per_epoch_failure_prob(model, code, mode="mc", trials=5000)


# --- retention simulation ---------------------------------------------------


def test_retention_zero_channel_all_censored():
    model = iid_per_site_model(5, 0.5, 0.0)
    est = simulate_retention(model, CodeModel(n=5, k=1, d=3), max_epochs=50, trials=64, seed=2)
    assert est.censored_count == 64
    assert math.isnan(est.mean)


def test_retention_unit_channel_fails_immediately():
    model = iid_per_site_model(5, 0.5, 1.0)
    est = simulate_retention(model, CodeModel(n=5, k=1, d=3), max_epochs=50, trials=64, seed=2)
    assert est.censored_count == 0
    assert np.all(est.failure_epochs == 1)
    assert est.mean == 1.0


def test_retention_geometric_mean_matches_ceiling():
    # trigger probability exactly 1/16; tau=3 blocks every non-trigger epoch
    spec = ThresholdModelSpec.from_threshold(4, 0.5, 3.0)
    assert trigger_probability(spec) == pytest.approx(1.0 / 16.0)
    code = CodeModel(n=4, k=1, d=4, mode="full_distance")
    est = simulate_retention(spec, code, max_epochs=2000, trials=3000, seed=11)
    assert est.censored_count == 0
    assert abs(est.mean - 16.0) < 3.0 * est.stderr
    bound = retention_upper_bound(spec)
    assert est.mean <= bound * (1.0 + 3.0 * est.stderr / est.mean)


def test_retention_trial_order_independence():
    # per-trial streams are derived from the trial index, so a run with
    # more trials reproduces the shorter run as a prefix
    spec = ThresholdModelSpec.from_threshold(4, 0.5, 1.0)
    code = CodeModel(n=4, k=1, d=3, mode="full_distance")
    small = simulate_retention(spec, code, max_epochs=500, trials=20, seed=5)
    large = simulate_retention(spec, code, max_epochs=500, trials=200, seed=5)
    assert np.array_equal(small.failure_epochs, large.failure_epochs[:20])


def test_retention_geometric_ks_at_scale():
    spec = ThresholdModelSpec.from_threshold(4, 0.5, 3.0)
    code = CodeModel(n=4, k=1, d=4, mode="full_distance")
    trials = 10**4
    est = simulate_retention(spec, code, max_epochs=5000, trials=trials, seed=17)
    assert est.censored_count == 0
    stat = geometric_ks_statistic(est.failure_epochs, 1.0 / 16.0)
    assert stat < ks_critical_value(trials, alpha=0.01)


def test_geometric_ks_rejects_censored_zeros():
    with pytest.raises(ValidationError):
        geometric_ks_statistic(np.array([0, 3, 5]), 0.5)


def test_ks_critical_value_formula():
    from scipy import special

    assert ks_critical_value(400, alpha=0.01) == pytest.approx(
        float(special.kolmogi(0.01)) / 20.0
    )


# --- lifetime bound ---------------------------------------------------------


def test_lifetime_bound_example():
    bound = lifetime_lower_bound(20, 0.3)
    assert bound.epochs == pytest.approx(math.exp(6.0 - math.log(20.0)))
    assert bound.confidence == pytest.approx(1.0 - 1.0 / 20.0)
    assert not bound.degenerate


def test_lifetime_bound_single_site():
    bound = lifetime_lower_bound(1, 0.4)
    assert bound.epochs == pytest.approx(math.exp(0.4))


def test_lifetime_bound_degenerate_flag():
    bound = lifetime_lower_bound(20, 0.01)
    assert bound.epochs < 1.0
    assert bound.degenerate


def test_lifetime_bound_rejects_fraction_outside_unit():
    with pytest.raises(ValidationError):
        lifetime_lower_bound(10, 0.0)
    with pytest.raises(ValidationError):
        lifetime_lower_bound(10, 1.5)


def test_lifetime_bound_huge_n_is_infinite():
    assert lifetime_lower_bound(10**6, 0.9).epochs == math.inf


# --- scaling experiments ----------------------------------------------------


def scaling_points(sizes, eps, q, fraction):
    points = []
    for n in sizes:
        model = iid_per_site_model(n, eps, q)
        d = max(1, math.ceil(fraction * n))
        points.append((model, CodeModel(n=n, k=1, d=d)))
    return points


def test_scaling_exact_binomial_family_flagged():
    result = scaling_experiment(scaling_points((32, 64, 96, 128), 0.5, 0.05, 0.3))
    assert result.slope < 0.0
    assert result.r_squared >= 0.9
    assert result.status == "exponential-lifetime-consistent"
    assert all(p.resolved for p in result.points)


def test_scaling_zero_channel_inconclusive():
    result = scaling_experiment(scaling_points((8, 12, 16, 20), 0.5, 0.0, 0.4))
    assert result.status == "inconclusive"
    assert result.slope is None


def test_scaling_adversarial_family_not_flagged():
    # the sqrt-log margin schedule gives polynomial decay: visibly concave
    # in (n, ln p), so the linear fit quality collapses
    points = []
    for n in (16, 64, 256, 1024):
        spec = ThresholdModelSpec(n=n, eps=0.1, margin_rate=0.6)
        tau = math.floor(spec.threshold)
        points.append((spec, CodeModel(n=n, k=1, d=min(n, 2 * tau + 1))))
    result = scaling_experiment(points, mode="exact")
    assert result.status == "not-flagged"


def test_scaling_requires_four_sizes():
    with pytest.raises(ValidationError):
        scaling_experiment(scaling_points((8, 12, 16), 0.5, 0.1, 0.4))


def test_scaling_mc_mode_matches_exact_roughly():
    points = scaling_points((8, 12, 16, 20), 0.5, 0.3, 0.5)
    exact = scaling_experiment(points)
    mc = scaling_experiment(points, mode="mc", trials=20_000, seed=3)
    for pe, pm in zip(exact.points, mc.points):
        assert pm.ci_lo - 1e-9 <= pe.p_fail <= pm.ci_hi + 1e-9


# --- one model interface ---------------------------------------------------


def test_weight_law_agrees_between_model_families():
    # a threshold spec and its hidden-model embedding answer every exact
    # interface method alike, with the trigger below 0, inside [0, n) and
    # at or above n
    from corrmem import as_hidden_model

    for threshold in (-0.5, 0.0, 2.0, 5.5, 6.0, 7.5):
        spec = ThresholdModelSpec.from_threshold(6, 0.3, threshold)
        embedded = as_hidden_model(spec)
        for method in ("mean_rate", "lipschitz", "mixing_bound", "weight_law", "covariance"):
            direct, hidden = getattr(spec, method)(), getattr(embedded, method)()
            assert np.shape(direct) == np.shape(hidden)
            assert np.allclose(direct, hidden, rtol=0.0, atol=1e-12), (threshold, method)
        assert np.array_equal(weight_law(spec), spec.weight_law())
        assert np.array_equal(weight_law(embedded), embedded.weight_law())


_CODE = CodeModel(n=4, k=1, d=3)

ENTRY_POINTS = {
    "weight_law": weight_law,
    "exact_tail": lambda m: exact_tail(m, 1.0),
    "empirical_tail": lambda m: empirical_tail(m, 1.0, trials=1000, seed=0),
    "count_exceedances": lambda m: count_exceedances(m, make_generator(0), 1000, 1.0),
    "per_epoch_failure_prob": lambda m: per_epoch_failure_prob(m, _CODE),
    "simulate_retention": lambda m: simulate_retention(m, _CODE, max_epochs=10, trials=10, seed=0),
    "verify_bound": lambda m: verify_bound(m, 0.1, method="exact"),
    "scaling_experiment": lambda m: scaling_experiment([(m, _CODE)] * 4),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_model_entry_points_reject_non_models(entry):
    with pytest.raises(ValidationError, match="unsupported model type"):
        ENTRY_POINTS[entry]("not a model")
