"""Acceptance checks: one test, one pass/fail line, per headline guarantee.

Each test states its tolerance and runtime budget inline and fails loudly
when either is missed.  Everything here runs on exact or frozen-seed paths,
so a pass is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from corrmem import (
    CodeModel,
    GlobalThresholdChannel,
    HiddenErrorModel,
    PerSiteChannel,
    ThresholdModelSpec,
    chain_tail_bound,
    combined_tail_bound,
    exact_tail,
    geometric_ks_statistic,
    hoeffding_conditional_bound,
    ks_critical_value,
    mixing_bound,
    mixing_coefficients,
    parse_config,
    run,
    sample_errors_batch,
    scaling_experiment,
    simulate_retention,
    symmetric_binary_field,
)
from corrmem.oracle import (
    all_sequences,
    brute_force_lipschitz,
    conditional_weight_table,
    exact_error_distribution,
    exact_field_distribution,
)

from conftest import random_per_site_model, tv_distance


def adversarial_sweep():
    """Small threshold specs covering sub-mean, near-mean, and deep-tail cutoffs."""
    specs = []
    for n in range(2, 13):
        for eps in (0.1, 0.3, 0.5, 0.7):
            for margin in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
                specs.append(ThresholdModelSpec(n=n, eps=eps, margin=margin))
    return specs


def enumerated_pair_covariance(spec):
    bits = all_sequences(2, spec.n)
    weights = bits.sum(axis=1)
    probs = spec.eps**weights * (1.0 - spec.eps) ** (spec.n - weights)
    trigger = weights > spec.threshold
    y1 = np.where(trigger, 1, bits[:, 0]).astype(float)
    y2 = np.where(trigger, 1, bits[:, 1]).astype(float)
    return float(probs @ (y1 * y2)) - float(probs @ y1) * float(probs @ y2)


def test_01_pair_covariance_decays_like_inverse_square_or_faster():
    # slope of ln cov(Y_1, Y_2) against ln n must reach -1.9 for some
    # sqrt-log margin rate in {1, 2, 3, 4}; budget 10 s
    started = time.monotonic()
    sizes = np.array([2**8, 2**10, 2**12, 2**14])
    slopes = []
    for a in (1.0, 2.0, 3.0, 4.0):
        covs = np.array(
            [ThresholdModelSpec(n=int(n), eps=0.1, margin_rate=a).moments().covariance for n in sizes]
        )
        if np.any(covs <= 0.0):  # underflowed past double precision
            continue
        slope = np.polyfit(np.log(sizes), np.log(covs), 1)[0]
        slopes.append(float(slope))
    assert slopes, "every margin rate underflowed"
    assert min(slopes) <= -1.9
    assert time.monotonic() - started < 10.0


def test_02_retention_time_matches_geometric_ceiling():
    # failure must occur exactly on trigger epochs: the mean lifetime sits
    # within 3 standard errors of 1/P(trigger) and the epoch law passes a
    # KS test against the geometric at the 1% level; budget 60 s
    started = time.monotonic()
    spec = ThresholdModelSpec(n=64, eps=0.1, margin=0.575)
    p = spec.moments().trigger_prob
    assert 0.01 <= p <= 0.1  # exact trigger mass in the calibrated window
    code = CodeModel(n=64, k=1, d=23)
    assert code.correction_threshold >= spec.threshold - 1e-9
    est = simulate_retention(spec, code, max_epochs=1000, trials=10**4, seed=0)
    assert est.censored_count == 0
    assert abs(est.mean - 1.0 / p) <= 3.0 * est.stderr
    stat = geometric_ks_statistic(est.failure_epochs, p)
    assert stat < ks_critical_value(10**4, alpha=0.01)
    assert time.monotonic() - started < 60.0


def test_03_sampling_and_covariance_match_enumeration_oracles():
    # 50 random hidden models, n <= 8: sampler vs exact law TV <= 0.02 at
    # 1e6 draws; analytic threshold covariance vs enumeration within 1e-10
    # on every sweep spec with n <= 12; budget 120 s
    started = time.monotonic()
    rng = np.random.default_rng(2026)
    worst_tv = 0.0
    for index in range(50):
        n = 2 + index % 7
        model = random_per_site_model(rng, n)
        y = sample_errors_batch(model, seed=index, trials=10**6)
        idx = y @ (1 << np.arange(n - 1, -1, -1))
        emp = np.bincount(idx, minlength=2**n) / 10**6
        worst_tv = max(worst_tv, tv_distance(emp, exact_error_distribution(model)))
    assert worst_tv <= 0.02

    worst_gap = 0.0
    for spec in adversarial_sweep():
        gap = abs(spec.moments().covariance - enumerated_pair_covariance(spec))
        worst_gap = max(worst_gap, gap)
    assert worst_gap <= 1e-10
    assert time.monotonic() - started < 120.0


def test_04_covariance_decomposition_identity_holds():
    # conditional + between terms reproduce the direct covariance within
    # 1e-12 of the larger term, and the between term never exceeds
    # P(A)(1 - P(A)); budget 5 s
    started = time.monotonic()
    for spec in adversarial_sweep():
        dec = spec.moments()
        scale = max(abs(dec.conditional_term), abs(dec.between_term))
        assert abs(dec.conditional_term + dec.between_term - dec.covariance) <= 1e-12 * scale
        assert dec.between_term <= dec.trigger_prob * (1.0 - dec.trigger_prob) + 1e-15
    assert time.monotonic() - started < 5.0


def test_05_exact_tails_never_exceed_analytic_bounds():
    # on every enumerable chain model (n in {4, 8, 12}, stickiness grid,
    # per-site channels) the exact conditional, latent-chain, and combined
    # tails stay below their closed-form ceilings on a 5-point grid;
    # zero violations allowed; budget 120 s
    started = time.monotonic()
    grid = (0.05, 0.1, 0.2, 0.3, 0.4)
    violations = 0
    checks = 0
    for n in (4, 8, 12):
        weights = np.arange(n + 1)
        sequences = all_sequences(2, n)
        for theta in (0.0, 0.25, 0.5, 0.75):
            field = symmetric_binary_field(n, theta)
            law = exact_field_distribution(field)
            m = mixing_bound(mixing_coefficients(field))
            for rates in ((0.05, 0.15), (0.1, 0.3), (0.25, 0.25)):
                model = HiddenErrorModel(
                    field=field,
                    channel=PerSiteChannel(table=np.tile(rates, (n, 1))),
                )
                c = model.lipschitz()
                eps = model.mean_rate()

                # conditional fluctuation around each state's own mean
                table = conditional_weight_table(model)
                means = table @ weights
                for beta in grid:
                    off = np.abs(weights[None, :] - means[:, None]) > beta * n
                    tails = (table * off).sum(axis=1)
                    bound = hoeffding_conditional_bound(beta, n)
                    violations += int(np.any(tails > bound + 1e-12))
                    checks += 1

                # latent-chain fluctuation of the conditional mean response
                psi = model.channel.table[np.arange(n)[None, :], sequences].sum(axis=1)
                psi_mean = float(law @ psi)
                for beta in grid:
                    tail = float(law[np.abs(psi - psi_mean) > beta * n].sum())
                    bound = chain_tail_bound(beta, n, c, m)
                    violations += int(tail > bound + 1e-12)
                    checks += 1

                # combined upper tail of the error count itself
                for delta in grid:
                    tail = exact_tail(model, n * (eps + delta))
                    bound = combined_tail_bound(eps, delta, n, c, m)
                    violations += int(tail > bound + 1e-12)
                    checks += 1
    assert checks == 3 * 4 * 3 * 15
    assert violations == 0
    assert time.monotonic() - started < 120.0


def test_06_iid_scaling_flags_exponential_lifetime():
    # memoryless 5% noise with distance 0.3 n: exact per-epoch failure
    # probabilities over n in {32, 64, 96, 128} fit ln p against n with
    # slope < -0.05 and R^2 >= 0.95; budget 5 s
    started = time.monotonic()
    points = []
    for n in (32, 64, 96, 128):
        model = HiddenErrorModel(
            field=symmetric_binary_field(n, 0.0),
            channel=PerSiteChannel(table=np.full((n, 2), 0.05)),
        )
        points.append((model, CodeModel(n=n, k=1, d=math.ceil(0.3 * n))))
    result = scaling_experiment(points)
    assert result.slope < -0.05
    assert result.r_squared >= 0.95
    assert result.status == "exponential-lifetime-consistent"
    assert time.monotonic() - started < 5.0


def test_07_lipschitz_constant_separates_channel_families():
    # brute force must report exactly n - B for every global-threshold
    # model (n <= 10, integer cutoffs) and at most 1 for every per-site
    # model: the two families are machine-distinguishable; budget 30 s
    started = time.monotonic()
    for n in range(1, 11):
        field = symmetric_binary_field(n, 0.0)
        for cutoff in range(n):
            model = HiddenErrorModel(
                field=field, channel=GlobalThresholdChannel(threshold=float(cutoff))
            )
            c = brute_force_lipschitz(model)
            assert c == pytest.approx(n - cutoff, abs=1e-12)
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        model = random_per_site_model(rng, n)
        assert brute_force_lipschitz(model) <= 1.0 + 1e-12
    assert time.monotonic() - started < 30.0


def test_08_verification_suite_byte_reproducible(tmp_path):
    # verify-all twice with one seed, then once with 8 worker threads:
    # all three CSV reports must be byte-identical; budget 60 s
    started = time.monotonic()
    outputs = []
    for name, threads in (("first", 1), ("second", 1), ("wide", 8)):
        cfg = parse_config({"kind": "verify-all", "master_seed": 0, "out": str(tmp_path / name)})
        result = run(cfg, threads=threads)
        assert result.exit_code == 0
        outputs.append((tmp_path / name / "verify-all.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]
    assert time.monotonic() - started < 60.0
