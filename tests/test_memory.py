import math
import re
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import corrmem
import corrmem.memory as memory
from corrmem import (
    CodeModel,
    HiddenErrorModel,
    MarkovFieldSpec,
    PerSiteChannel,
    ThresholdModelSpec,
    ValidationError,
    WindowChannel,
    count_exceedances,
    derive_seed,
    empirical_tail,
    exact_tail,
    geometric_ks_statistic,
    ks_critical_value,
    lifetime_lower_bound,
    make_generator,
    sampled_covariance,
    scaling_experiment,
    simulate_retention,
    verify_bound,
    weight_law,
)
from corrmem.field import _STACK_ROWS

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
# an epoch is corrected when its weight is at most the correction threshold


def test_epoch_step_weight_zero_corrected():
    assert 0 <= CodeModel(n=10, k=1, d=5).correction_threshold


def test_epoch_step_full_weight_fails():
    assert not 10 <= CodeModel(n=10, k=1, d=5).correction_threshold


def test_epoch_step_half_distance_boundary():
    code = CodeModel(n=20, k=1, d=11)
    assert 5 <= code.correction_threshold
    assert not 6 <= code.correction_threshold


def test_epoch_step_rejects_out_of_range_weight():
    # d is held to [1, n], so the threshold lies in [0, n) and splits the weights 0..n
    for d in (0, 11):
        with pytest.raises(ValidationError):
            CodeModel(n=10, k=1, d=d)
    for d in (1, 10):
        for mode in ("half_distance", "full_distance"):
            assert 0 <= CodeModel(n=10, k=1, d=d, mode=mode).correction_threshold < 10


@given(d=st.integers(1, 15), mode=st.sampled_from(["half_distance", "full_distance"]))
def test_epoch_step_monotone(d, mode):
    # a larger distance corrects every weight a smaller one does, and full distance every one half distance does
    lo, hi = (CodeModel(n=16, k=1, d=e, mode=mode).correction_threshold for e in (d, d + 1))
    assert lo <= hi
    assert CodeModel(n=16, k=1, d=d).correction_threshold <= CodeModel(n=16, k=1, d=d, mode="full_distance").correction_threshold


# --- per-epoch failure probability: the weight's tail at the code's threshold


def test_failure_prob_zero_channel():
    model = iid_per_site_model(6, 0.5, 0.0)
    assert exact_tail(model, CodeModel(n=6, k=1, d=3).correction_threshold) == 0.0


def test_failure_prob_threshold_enumeration_example():
    # n=3, eps=1/2, trigger above 1, tau=2: only weight-3 epochs fail, and
    # those are exactly the trigger events, probability 1/2
    spec = ThresholdModelSpec.from_threshold(3, 0.5, 1.0)
    code = CodeModel(n=3, k=1, d=3, mode="full_distance")
    assert code.correction_threshold == 2
    assert exact_tail(spec, code.correction_threshold) == pytest.approx(0.5, abs=1e-12)


def test_failure_prob_binomial_oracle():
    model = iid_per_site_model(10, 0.5, 0.1)  # field irrelevant, q constant
    code = CodeModel(n=10, k=1, d=6, mode="full_distance")  # tau = 5
    expected = float(stats.binom.sf(5, 10, 0.1))
    assert exact_tail(model, code.correction_threshold) == pytest.approx(expected, abs=1e-12)


def test_failure_prob_certain_trigger_is_one():
    # negative threshold: every epoch triggers, every epoch exceeds tau=3
    spec = ThresholdModelSpec.from_threshold(4, 0.5, -1.0)
    code = CodeModel(n=4, k=1, d=4, mode="full_distance")
    assert exact_tail(spec, code.correction_threshold) == pytest.approx(1.0)


def test_failure_prob_mc_agrees_with_exact():
    rng = np.random.default_rng(61)
    for trial in range(5):
        model = random_per_site_model(rng, 8)
        code = CodeModel(n=8, k=1, d=int(rng.integers(1, 9)))
        exact = exact_tail(model, code.correction_threshold)
        est = empirical_tail(model, code.correction_threshold, trials=40_000, seed=trial)
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / est.trials)
        assert abs(est.value - exact) < 4 * sigma + 1e-9


def test_failure_prob_is_the_tail_at_the_correction_threshold():
    # the failure probability a scaling point reports, exact or sampled
    rng = np.random.default_rng(17)
    for family in (lambda n: random_per_site_model(rng, n), lambda n: ThresholdModelSpec.from_threshold(n, 0.3, 4.5)):
        for d in (1, 4, 8):
            points = [(family(n), CodeModel(n=n, k=1, d=min(d, n), mode="full_distance")) for n in (5, 6, 7, 8)]
            exact, sampled = scaling_experiment(points), scaling_experiment(points, "mc", trials=2000, seed=d)
            for idx, ((model, code), e, s) in enumerate(zip(points, exact.tails, sampled.tails)):
                tau = code.correction_threshold
                assert e.value == exact_tail(model, tau)
                assert s == empirical_tail(model, tau, trials=2000, seed=derive_seed(d, "scaling-point", idx))


@pytest.mark.parametrize("family", ["hidden", "threshold"])
def test_exact_tail_outside_the_weight_range_skips_the_weight_law(family, monkeypatch):
    if family == "hidden":
        model = iid_per_site_model(6, 0.5, 0.1)
    else:
        model = ThresholdModelSpec.from_threshold(6, 0.3, 2.0)

    law = model.weight_law()

    def refuse(self):
        raise AssertionError("weight law computed")

    monkeypatch.setattr(type(model), "weight_law", refuse)
    for threshold in (6, 6.5, 1e9, math.inf):
        assert exact_tail(model, threshold) == 0.0
    assert exact_tail(model, -0.5) == exact_tail(model, -math.inf) == 1.0
    # in-range tails do not build the weight law either
    for threshold in (0, 2.5, 5):
        want = math.fsum(law[math.floor(threshold) + 1 :].tolist())
        assert exact_tail(model, threshold) == pytest.approx(want, rel=1e-12, abs=0)


def test_failure_prob_mc_requires_seed_and_trials():
    model = iid_per_site_model(4, 0.5, 0.1)
    code = CodeModel(n=4, k=1, d=3)
    with pytest.raises(ValidationError):
        empirical_tail(model, code.correction_threshold, trials=50, seed=1)
    with pytest.raises(ValidationError):
        empirical_tail(model, code.correction_threshold, trials=5000, seed=None)


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
    assert spec.moments().trigger_prob == pytest.approx(1.0 / 16.0)
    code = CodeModel(n=4, k=1, d=4, mode="full_distance")
    est = simulate_retention(spec, code, max_epochs=2000, trials=3000, seed=11)
    assert est.censored_count == 0
    assert abs(est.mean - 16.0) < 3.0 * est.stderr
    bound = spec.moments().retention_upper_bound
    assert est.mean <= bound * (1.0 + 3.0 * est.stderr / est.mean)


def test_retention_trial_order_independence():
    # per-trial streams are derived from the trial index, so a run with
    # more trials reproduces the shorter run as a prefix
    spec = ThresholdModelSpec.from_threshold(4, 0.5, 1.0)
    code = CodeModel(n=4, k=1, d=3, mode="full_distance")
    small = simulate_retention(spec, code, max_epochs=500, trials=20, seed=5)
    large = simulate_retention(spec, code, max_epochs=500, trials=200, seed=5)
    assert np.array_equal(small.failure_epochs, large.failure_epochs[:20])


class WatchedGenerator(np.random.Generator):
    """A generator that ``weakref.finalize`` can watch."""


def test_retention_holds_at_most_one_stack_of_generators(monkeypatch):
    model = iid_per_site_model(8, 0.5, 0.02)
    code = CodeModel(n=8, k=1, d=3)
    expected = simulate_retention(model, code, max_epochs=200, trials=500, seed=4)
    count = {"alive": 0, "most": 0}

    def release():
        count["alive"] -= 1

    def watched(seed):
        gen = WatchedGenerator(make_generator(seed).bit_generator)
        weakref.finalize(gen, release)
        count["alive"] += 1
        count["most"] = max(count["most"], count["alive"])
        return gen

    monkeypatch.setattr(memory, "make_generator", watched)
    est = simulate_retention(model, code, max_epochs=200, trials=500, seed=4)
    assert np.array_equal(est.failure_epochs, expected.failure_epochs)
    assert 0 < est.censored_count < 500
    # a trial opens its generator on entering the pool and drops it on leaving
    assert count["most"] <= _STACK_ROWS // memory._EPOCH_BLOCK
    assert count["alive"] == 0


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


@pytest.mark.parametrize("epochs", [[2.7, 3.9], [2.0, 3.0], [True, True], []], ids=repr)
def test_geometric_ks_rejects_what_is_not_an_integer_array(epochs):
    # [2.7, 3.9] once read as [2, 3]
    with pytest.raises(ValidationError, match="failure epochs must be positive integers"):
        geometric_ks_statistic(epochs, 0.5)


def test_geometric_ks_reads_any_integer_dtype():
    expected = geometric_ks_statistic([2, 3], 0.5)
    for dtype in (np.int8, np.uint16, np.int64, np.uint64):
        assert geometric_ks_statistic(np.array([2, 3], dtype=dtype), 0.5) == expected


def _mp_kolmogorov_root(alpha, guess):
    # the alternating series alone, summed at 40 digits and solved by secant;
    # for x > 0.3 its terms past k = 60 are below 1e-280
    def excess(x):
        return 2 * mpmath.fsum((-1) ** (k - 1) * mpmath.exp(-2 * k * k * x * x) for k in range(1, 61)) - alpha

    with mpmath.workdps(40):
        return mpmath.findroot(excess, mpmath.mpf(guess))


def test_ks_critical_value_formula():
    from scipy import special

    for alpha in [*np.logspace(-12, -1, 12), *np.linspace(0.1, 0.999, 10)]:
        x = ks_critical_value(1, alpha=alpha)
        assert x == pytest.approx(float(special.kolmogi(alpha)), rel=1e-12, abs=0.0), alpha
        assert x == pytest.approx(float(_mp_kolmogorov_root(alpha, x)), rel=1e-12, abs=0.0), alpha
        assert ks_critical_value(400, alpha=alpha) == x / 20.0


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


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: simulate_retention(iid_per_site_model(4, 0.5, 0.1), CodeModel(n=5, k=1, d=3), 10, 10, 0),
            "model and code sizes differ",
        ),
        (lambda: geometric_ks_statistic([1, 2], 0.0), "p must lie in (0, 1]"),
        (lambda: ks_critical_value(10, alpha=1.0), "alpha must lie in (0, 1)"),
        (lambda: lifetime_lower_bound(10, 0.3, confidence=1.0), "confidence must lie in [0, 1)"),
    ],
    ids=["retention-sizes", "ks-p", "ks-alpha", "lifetime-confidence"],
)
def test_memory_arguments_are_checked(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


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
    assert all(tail.value > 0.0 for tail in result.tails)


def test_scaling_zero_channel_inconclusive():
    result = scaling_experiment(scaling_points((8, 12, 16, 20), 0.5, 0.0, 0.4))
    assert result.status == "inconclusive"
    assert result.slope is None


def threshold_points(sizes, rate):
    # a code of distance 2 floor(B) + 1 fails an epoch exactly when the trigger fires
    points = []
    for n in sizes:
        spec = ThresholdModelSpec(n=n, eps=0.1, margin_rate=rate)
        points.append((spec, CodeModel(n=n, k=1, d=min(n, 2 * math.floor(spec.threshold) + 1))))
    return points


def sticky_points(sizes, theta):
    points = []
    for n in sizes:
        model = HiddenErrorModel(field=chain(n, theta), channel=PerSiteChannel(table=np.tile([0.01, 0.2], (n, 1))))
        points.append((model, CodeModel(n=n, k=1, d=2 * math.floor(0.16 * n) + 1)))
    return points


def test_scaling_adversarial_family_not_flagged():
    # the sqrt-log margin schedule gives polynomial decay: visibly concave
    # in (n, ln p), so the linear fit quality collapses
    result = scaling_experiment(threshold_points((16, 64, 256, 1024), 0.6), method="exact")
    assert result.status == "not-flagged"


def test_scaling_threshold_family_order_positive():
    result = scaling_experiment(threshold_points((256, 1024, 4096, 16384), 1.0))
    assert result.order > 0.0
    assert result.order_r_squared > 0.99


def test_scaling_threshold_family_polynomial_order():
    # with the sqrt-log schedule the retention ceiling grows polynomially;
    # the order tracks the squared rate through the binomial rate function
    result = scaling_experiment(threshold_points((256, 1024, 4096, 16384), 0.6))
    assert 1.0 < result.order < 4.0


DOUBLING_256 = [2**k for k in range(8, 13)]
DOUBLING_1024 = [2**k for k in range(10, 14)]


@pytest.mark.parametrize(
    "points, status",
    [
        (lambda: threshold_points(DOUBLING_256, 0.6), "not-flagged"),
        (lambda: threshold_points(DOUBLING_1024, 0.6), "not-flagged"),
        (lambda: threshold_points(DOUBLING_1024, 1.0), "not-flagged"),
        (lambda: threshold_points(DOUBLING_1024, 2.0), "not-flagged"),
        (lambda: sticky_points(DOUBLING_256, 0.05), "exponential-lifetime-consistent"),
        (lambda: sticky_points(DOUBLING_256, 0.9), "exponential-lifetime-consistent"),
        (lambda: scaling_points((32, 64, 96, 128), 0.5, 0.05, 0.3), "exponential-lifetime-consistent"),
    ],
    ids=["threshold-0.6-256", "threshold-0.6-1024", "threshold-1.0-1024", "threshold-2.0-1024", "sticky-0.05", "sticky-0.9", "iid"],
)
def test_scaling_flags_only_a_decay_that_fits_n_better_than_ln_n(points, status):
    # on these grids ln p of the threshold family fits n with R^2 >= 0.9, but ln n better
    result = scaling_experiment(points())
    assert result.status == status
    assert (result.r_squared >= result.order_r_squared) == (status == "exponential-lifetime-consistent")


def test_scaling_kept_points_of_one_size_are_inconclusive():
    # only the two n = 8 points have a positive tail: a fit through one size has no slope
    points = [
        (iid_per_site_model(n, 0.5, q), CodeModel(n=n, k=1, d=math.ceil(0.4 * n)))
        for n, q in ((8, 0.1), (8, 0.2), (12, 0.0), (16, 0.0), (20, 0.0))
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = scaling_experiment(points)
    assert result.status == "inconclusive"
    assert result[1:6] == (None,) * 5


def test_scaling_requires_four_sizes():
    with pytest.raises(ValidationError):
        scaling_experiment(scaling_points((8, 12, 16), 0.5, 0.1, 0.4))


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_scaling_rejects_a_model_and_code_of_different_sizes(monkeypatch, mode):
    # the last point mismatches, and no tail is read before the check
    points = scaling_points((8, 12, 16, 20), 0.5, 0.1, 0.4)
    model, code = points[3]
    points[3] = (model, CodeModel(n=code.n + 1, k=1, d=code.d))
    read = []
    monkeypatch.setattr(memory, "_tail_estimate", lambda model, *args: read.append(model.n))
    with pytest.raises(ValidationError, match="sizes differ"):
        scaling_experiment(points, mode, trials=1000, seed=0)
    assert read == []


def test_an_exact_scaling_point_is_a_point_estimate():
    for tail in scaling_experiment(scaling_points((8, 12, 16, 20), 0.5, 0.3, 0.5)).tails:
        assert tail.trials == tail.exceedances == 0
        assert tail.ci_lo == tail.ci_hi == tail.value


def test_scaling_rejects_an_unknown_method():
    with pytest.raises(ValidationError, match="unknown method 'warp'"):
        scaling_experiment(scaling_points((8, 12, 16, 20), 0.5, 0.1, 0.4), "warp")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda model, points: verify_bound(model, 0.2, method="warp"), "unknown method 'warp'"),
        (lambda model, points: verify_bound(model, 0.2, method="mc", seed=None), "Monte Carlo method requires a seed"),
        (lambda model, points: verify_bound(model, 0.2, method="mc", trials=5), "trials must be an integer >= 1000"),
        (lambda model, points: scaling_experiment(points, "warp"), "unknown method 'warp'"),
        (lambda model, points: scaling_experiment(points, "mc", trials=2000), "requires a seed"),
        (lambda model, points: verify_bound(model, -0.1, method="exact"), "delta must be positive and finite"),
        (lambda model, points: verify_bound(model, 0.0, method="exact"), "delta must be positive and finite"),
        (lambda model, points: verify_bound(model, math.nan, method="exact"), "delta must be positive and finite"),
        (lambda model, points: verify_bound(model, math.inf, method="mc"), "delta must be positive and finite"),
        (lambda model, points: verify_bound(model, 0.2, eps=1.5, method="exact"), r"eps must lie in \[0, 1\)"),
        (lambda model, points: verify_bound(model, 0.2, c=-1.0, method="exact"), "c must be non-negative"),
        (lambda model, points: verify_bound(model, 0.2, m=0.5, method="exact"), "m must be >= 1"),
    ],
    ids=[
        "verify_bound-warp", "verify_bound-mc-without-seed", "verify_bound-mc-5-trials", "scaling-warp", "scaling-mc-without-seed",
        "verify_bound-delta-negative", "verify_bound-delta-0", "verify_bound-delta-nan", "verify_bound-mc-delta-inf",
        "verify_bound-eps-1.5", "verify_bound-c-negative", "verify_bound-m-0.5",
    ],
)
def test_a_bad_tail_method_fails_before_any_model_quantity(monkeypatch, call, message):
    ran = []
    for name in ("mean_rate", "lipschitz", "mixing_bound"):
        original = getattr(HiddenErrorModel, name)
        monkeypatch.setattr(HiddenErrorModel, name, lambda self, _f=original, _n=name: ran.append(_n) or _f(self))
    table = np.tile([0.02 + 0.08 * bin(j).count("1") for j in range(8)], (12, 1))
    model = HiddenErrorModel(field=chain(12, 0.5), channel=WindowChannel(radius=1, table=table))
    with pytest.raises(ValidationError, match=message):
        call(model, scaling_points((8, 12, 16, 20), 0.5, 0.1, 0.4))
    assert ran == []
    # the wrappers do record a call that gets that far
    verify_bound(model, 0.2, method="exact")
    assert ran == ["mean_rate", "lipschitz", "mixing_bound"]


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_a_scaling_run_computes_no_mixing_bound(monkeypatch, method):
    ran = []
    original = HiddenErrorModel.mixing_bound
    monkeypatch.setattr(HiddenErrorModel, "mixing_bound", lambda self: ran.append(self.n) or original(self))
    points = scaling_points((8, 12, 16, 20), 0.5, 0.3, 0.5)
    assert len(scaling_experiment(points, method, trials=1000, seed=0).tails) == 4
    assert ran == []
    # the wrapper does record a call
    points[0][0].mixing_bound()
    assert ran == [8]


def test_an_exact_scaling_run_derives_no_seed(monkeypatch):
    def refuse(*args):
        raise AssertionError("an exact scaling point derived a seed")

    monkeypatch.setattr(memory, "derive_seed", refuse)
    points = scaling_points((8, 12, 16, 20), 0.5, 0.3, 0.5)
    assert scaling_experiment(points, "exact", seed=5) == scaling_experiment(points)
    with pytest.raises(AssertionError, match="derived a seed"):
        scaling_experiment(points, "mc", trials=1000, seed=5)


def test_scaling_mc_mode_matches_exact_roughly():
    points = scaling_points((8, 12, 16, 20), 0.5, 0.3, 0.5)
    exact = scaling_experiment(points)
    mc = scaling_experiment(points, method="mc", trials=20_000, seed=3)
    for pe, pm in zip(exact.tails, mc.tails):
        assert pm.ci_lo - 1e-9 <= pe.value <= pm.ci_hi + 1e-9


# --- one model interface ---------------------------------------------------


def test_weight_law_agrees_between_model_families():
    # a threshold spec's binomial kernels and the table kernels of the same
    # field and channel answer every exact interface method alike, with the
    # trigger below 0, inside [0, n) and at or above n; both sample one stream
    for threshold in (-0.5, 0.0, 2.0, 5.5, 6.0, 7.5):
        spec = ThresholdModelSpec.from_threshold(6, 0.3, threshold)
        embedded = HiddenErrorModel(spec.field, spec.channel)
        for method in ("mean_rate", "lipschitz", "mixing_bound", "weight_law", "covariance"):
            direct, hidden = getattr(spec, method)(), getattr(embedded, method)()
            assert np.shape(direct) == np.shape(hidden)
            assert np.allclose(direct, hidden, rtol=0.0, atol=1e-12), (threshold, method)
        for k in range(-2, spec.n + 2):
            assert spec.tail(k) == pytest.approx(embedded.tail(k), rel=0.0, abs=1e-12), (threshold, k)
        direct, hidden = (sampled_covariance(m, trials=2000, seed=5) for m in (spec, embedded))
        assert np.array_equal(direct.values, hidden.values) and np.array_equal(direct.stderr, hidden.stderr)
        assert np.array_equal(weight_law(spec), spec.weight_law())
        assert np.array_equal(weight_law(embedded), embedded.weight_law())


@pytest.mark.parametrize("k", [-3, -2, -1, 4, 5])
def test_tail_outside_zero_to_n_agrees_between_model_families(k):
    # P(W > k) is 1 below 0 and 0 from n on, whatever the model; the spec's
    # trigger sits inside [0, n), where its tail is the trigger probability
    hidden = HiddenErrorModel(field=chain(4, 0.3), channel=PerSiteChannel(table=np.tile([0.01, 0.2], (4, 1))))
    spec = ThresholdModelSpec(n=4, eps=0.2, margin=0.5)
    assert hidden.tail(k) == spec.tail(k) == (1.0 if k < 0 else 0.0)


_CODE = CodeModel(n=4, k=1, d=3)

ENTRY_POINTS = {
    "weight_law": weight_law,
    "channel.weight_distribution": corrmem.channel.weight_distribution,
    "exact_tail": lambda m: exact_tail(m, 1.0),
    "empirical_tail": lambda m: empirical_tail(m, 1.0, trials=1000, seed=0),
    "count_exceedances": lambda m: count_exceedances(m, make_generator(0), 1000, 1.0),
    "simulate_retention": lambda m: simulate_retention(m, _CODE, max_epochs=10, trials=10, seed=0),
    "verify_bound": lambda m: verify_bound(m, 0.1, method="exact"),
    "scaling_experiment": lambda m: scaling_experiment([(m, _CODE)] * 4),
    "scaling_experiment_mc": lambda m: scaling_experiment([(m, _CODE)] * 4, "mc", trials=1000, seed=0),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_model_entry_points_reject_non_models(entry):
    with pytest.raises(ValidationError, match="unsupported model type"):
        ENTRY_POINTS[entry]("not a model")


def test_the_weight_law_has_one_function_under_three_names():
    assert weight_law is corrmem.channel.weight_distribution is memory._hidden_weight_distribution
