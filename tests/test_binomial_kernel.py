"""The threshold family's binomial kernel against 40-digit mpmath.

``adversarial`` evaluates every binomial sum with Loader anchors, a ratio
recurrence between them and a walk that stops once the terms are negligible.
The references here sum the same series exactly in mpmath instead, so any
loss from the anchors, the recurrence or the truncation shows up as a
relative error.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmem import ThresholdModelSpec, adversarial
from corrmem.adversarial import (
    _binom_tail_gt,
    _log_pmf,
    _stirlerr,
    _tail_and_covariance,
)

ROOT = Path(__file__).resolve().parents[1]

REL = 5e-13
DIGITS = 40


def mp_pmf(m, p, k):
    p = mpmath.mpf(p)
    return mpmath.binomial(m, k) * p**k * (1 - p) ** (m - k)


def mp_upper_terms(m, p, lo):
    """``[(j, P(Bin(m, p) = j))]`` for ``j >= lo``, until the rest is negligible."""
    odds = mpmath.mpf(p) / (1 - mpmath.mpf(p))
    term = mp_pmf(m, p, lo)
    total = mpmath.mpf(0)
    out = []
    tiny = mpmath.mpf(10) ** -(mpmath.mp.dps + 10)
    for j in range(lo, m + 1):
        if j > lo:
            term *= (m - j + 1) * odds / j
        out.append((j, term))
        total += term
        if j >= (m + 1) * p and term < tiny * total:
            break
    return out


def mp_full_pmf(m, p):
    """Every ``P(Bin(m, p) = j)``, ``j = 0..m``, by the exact ratio recurrence."""
    odds = mpmath.mpf(p) / (1 - mpmath.mpf(p))
    out = [(1 - mpmath.mpf(p)) ** m]
    for j in range(1, m + 1):
        out.append(out[-1] * (m - j + 1) * odds / j)
    return out


def mp_tail_gt(m, p, t):
    k = math.floor(t)
    if k >= m:
        return mpmath.mpf(0)
    if k < 0:
        return mpmath.mpf(1)
    return mpmath.fsum(w for _, w in mp_upper_terms(m, p, k + 1))


def mp_pair_covariance(n, p, k):
    """``E[Y_i Y_j] - E[Y_i] E[Y_j]`` from the binomial moments, at enough digits."""
    p = mpmath.mpf(p)
    terms = mp_upper_terms(n, p, k + 1)
    t0 = mpmath.fsum(w for _, w in terms)
    t1 = mpmath.fsum(w * j / n for j, w in terms)
    t2 = mpmath.fsum(w * j * (j - 1) / (n * (n - 1)) for j, w in terms)
    # E[X_i; calm] = p - t1 and E[X_i X_j; calm] = p^2 - t2
    mean = t0 + p - t1
    return t0 + p * p - t2 - mean * mean


def assert_rel(got, want, rel=REL):
    want = float(want)
    assert got == pytest.approx(want, rel=rel, abs=0.0), (got, want)


def threshold_at(n, eps, z):
    return n * eps + z * math.sqrt(n * eps * (1.0 - eps))


sizes = st.integers(min_value=3, max_value=2**14)
rates = st.floats(min_value=0.001, max_value=0.45, exclude_min=True, exclude_max=True)
sigmas = st.floats(min_value=-3.0, max_value=25.0)


@settings(max_examples=60, deadline=None)
@given(n=sizes, eps=rates, z=sigmas, drop=st.sampled_from([0, 1, 2]))
def test_tail_matches_mpmath(n, eps, z, drop):
    t = threshold_at(n, eps, z) - drop
    with mpmath.workdps(DIGITS):
        want = mp_tail_gt(n - drop, eps, t)
    if want == 0 or want < mpmath.mpf("1e-300"):
        return
    assert_rel(_binom_tail_gt(n - drop, eps, t), want)


@settings(max_examples=40, deadline=None)
@given(n=sizes, eps=rates, z=sigmas)
def test_exact_covariance_matches_mpmath(n, eps, z):
    spec = ThresholdModelSpec.from_threshold(n, eps, threshold_at(n, eps, z))
    k = math.floor(spec.threshold)
    if not 0 <= k < n:
        return
    with mpmath.workdps(DIGITS):
        tail = mp_tail_gt(n, eps, k)
        # the moment difference cancels about -log10 of the smaller side's mass
        spare = int(-mpmath.log10(min(tail, 1 - tail))) + 10
    with mpmath.workdps(DIGITS + spare):
        want = mp_pair_covariance(n, eps, k)
    if want < mpmath.mpf("1e-300"):
        return
    assert_rel(spec.moments().covariance, want)


def mp_calm_terms(m, p, k):
    """``[(j, P(Bin(m, p) = j))]`` for ``j = 0..k``, by the exact ratio recurrence."""
    odds = mpmath.mpf(p) / (1 - mpmath.mpf(p))
    out = [(0, (1 - mpmath.mpf(p)) ** m)]
    for j in range(1, k + 1):
        out.append((j, out[-1][1] * (m - j + 1) * odds / j))
    return out


def mp_spec_moments(n, p, k):
    """``E[Y_i] - eps`` and the two decomposition terms, each summed on the side that holds it.

    The deviation is ``E[1 - X_i; trigger]``.  Given no trigger the errors
    are the latent bits, so the conditional term is ``s2 - s1^2 / s0`` over
    the calm weights and the between term ``P(trigger) (s0 - s1)^2 / s0``.
    A calm set ``{W = 0}`` gives ``s1 = s2 = 0``, an exact zero.
    """
    trig = mp_upper_terms(n, p, k + 1)
    calm = mp_calm_terms(n, p, k)
    dev = mpmath.fsum(w * (1 - mpmath.mpf(j) / n) for j, w in trig)
    s0 = mpmath.fsum(w for _, w in calm)
    s1 = mpmath.fsum(w * j / n for j, w in calm)
    s2 = mpmath.fsum(w * j * (j - 1) / (n * (n - 1)) for j, w in calm)
    between = mpmath.fsum(w for _, w in trig) * (s0 - s1) ** 2 / s0
    return dev, s2 - s1 * s1 / s0, between


def assert_moments_match_mpmath(spec):
    k = math.floor(spec.threshold)
    with mpmath.workdps(DIGITS):
        calm = mpmath.fsum(w for _, w in mp_calm_terms(spec.n, spec.eps, k))
        # the calm sums cancel about -log10 of the smaller side's mass
        spare = int(-mpmath.log10(min(mp_tail_gt(spec.n, spec.eps, k), calm))) + 10
    with mpmath.workdps(DIGITS + spare):
        dev, conditional, between = mp_spec_moments(spec.n, spec.eps, k)
        value = spec.eps + dev
    m = spec.moments()
    for got, want in [
        (m.rate, value),
        (m.deviation, dev),
        (m.conditional_term, conditional),
        (m.between_term, between),
    ]:
        if want == 0:
            assert got == 0.0, (got, spec)
        elif abs(want) > mpmath.mpf("1e-300"):
            assert_rel(got, want, rel=1e-12)
    scale = max(abs(m.conditional_term), abs(m.between_term))
    assert abs(m.conditional_term + m.between_term - m.covariance) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(n=sizes, eps=rates, z=sigmas)
def test_marginal_rate_and_decomposition_match_mpmath(n, eps, z):
    spec = ThresholdModelSpec.from_threshold(n, eps, threshold_at(n, eps, z))
    if 0 <= math.floor(spec.threshold) < n:
        assert_moments_match_mpmath(spec)


@pytest.mark.parametrize(
    "spec",
    [
        # deep trigger tails, where the shifted-tail difference of two
        # O(eps^2) numbers read 0.0 and a positive conditional term
        ThresholdModelSpec(n=64, eps=0.1, margin=4.0),
        ThresholdModelSpec(n=256, eps=0.1, margin=3.0),
        # calm set {W = 0}: the conditional term is exactly 0, on either side of the mean
        ThresholdModelSpec.from_threshold(64, 0.01, 0.5),
        ThresholdModelSpec.from_threshold(64, 0.1, 0.5),
        # trigger only at the all-ones state: the deviation is exactly 0
        ThresholdModelSpec.from_threshold(3, 0.5, 2.0),
        # deep on the calm side, where 1 - P(trigger) is 3.4e-10
        ThresholdModelSpec.from_threshold(4096, 0.3, 1050.5),
    ],
    ids=["n64-margin4", "n256-margin3", "calm-zero-above", "calm-zero-below", "all-ones", "deep-calm"],
)
def test_marginal_rate_and_decomposition_pinned(spec):
    assert_moments_match_mpmath(spec)


def test_spec_covariance_matrix_matches_mpmath():
    # 6.3e-16 off the diagonal: the table kernels of the same field and
    # channel read it 49% low, so covariance() must take the spec's walk
    spec = ThresholdModelSpec(n=1024, eps=0.1, margin_rate=1.0)
    k = math.floor(spec.threshold)
    cov = spec.covariance()
    with mpmath.workdps(DIGITS + 30):
        pair = mp_pair_covariance(spec.n, spec.eps, k)
        rate = spec.eps + mp_spec_moments(spec.n, spec.eps, k)[0]
    assert_rel(cov[0, 1], pair, rel=1e-12)
    assert_rel(cov[-1, 0], pair, rel=1e-12)
    assert_rel(cov[3, 3], rate * (1 - rate), rel=1e-12)


@pytest.mark.parametrize("threshold", [130.0, 70.5], ids=["above-the-mean", "below-the-mean"])
def test_each_spec_quantity_makes_one_walk(monkeypatch, threshold):
    spec = ThresholdModelSpec.from_threshold(1000, 0.1, threshold)
    walks = []
    real = adversarial._pmf_walk
    monkeypatch.setattr(adversarial, "_pmf_walk", lambda *args, **kw: walks.append(args) or real(*args, **kw))
    for quantity in (spec.moments, spec.mean_rate, spec.site_rates, spec.covariance):
        walks.clear()
        quantity()
        assert len(walks) == 1


@settings(max_examples=25, deadline=None)
@given(n=sizes, eps=rates, z=sigmas)
def test_weight_distribution_matches_mpmath(n, eps, z):
    spec = ThresholdModelSpec.from_threshold(n, eps, threshold_at(n, eps, z))
    k = math.floor(spec.threshold)
    law = spec.weight_law()
    with mpmath.workdps(DIGITS):
        pmf = mp_full_pmf(n, eps)
        for j in range(min(k, n) + 1):
            want = pmf[j]
            if want >= mpmath.mpf("1e-300"):
                assert_rel(law[j], want)
            else:
                assert law[j] < 1e-299
        if k < n:
            assert not law[max(k + 1, 0) : n].any()
            assert_rel(law[n], mp_tail_gt(n, eps, k))


def test_stirling_error_term_matches_mpmath():
    with mpmath.workdps(DIGITS):
        for k in [*range(1, 600), 10**4, 2**19]:
            stirling = (k + mpmath.mpf(0.5)) * mpmath.log(k) - k + mpmath.log(mpmath.sqrt(2 * mpmath.pi))
            want = mpmath.loggamma(k + 1) - stirling
            assert abs(_stirlerr(k) - float(want)) < 2e-16, k


def deep_point(m, p, target):
    """The largest k above the mean whose log pmf (lgamma form) exceeds ``target``, or None."""

    def log_pmf(k):
        return math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1) + k * math.log(p) + (m - k) * math.log1p(-p)

    lo, hi = math.ceil(m * p), m
    if log_pmf(hi) > target:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if log_pmf(mid) > target else (lo, mid)
    return lo


def test_log_pmf_holds_deep_in_the_tail():
    # pmf values between 1e-300 and 1e-130, n up to 2^19: the deviance terms
    # are then in the hundreds, where one lost ulp is already 1e-13
    rng = np.random.default_rng(20)
    checked = 0
    with mpmath.workdps(DIGITS):
        for _ in range(150):
            m = int(rng.integers(16, 2**19))
            p = float(rng.uniform(0.001, 0.45))
            k = deep_point(m, p, -float(rng.uniform(300.0, 690.0)))
            if k is not None:
                assert_rel(math.exp(_log_pmf(k, m, p)), mp_pmf(m, p, k))
                checked += 1
    assert checked > 100


@pytest.mark.parametrize(
    "n, eps, threshold",
    [
        (1000, 0.1, 130.0),  # above the mean
        (2**19, 0.1, 52900.5),  # above the mean, a walk of more than one round
        (1000, 0.1, 70.5),  # below the mean
        (1000, 0.9, 880.0),  # below the mean, eps above 1/2
        (50, 0.3, -0.5),  # floor(B) < 0: the trigger is certain
        (50, 0.3, 50.0),  # floor(B) >= n: the trigger is impossible
        (1, 0.3, 0.5),
        (1, 0.3, -1.0),
        (1, 0.3, 1.0),
        (2, 0.3, 1.0),  # above the mean
        (2, 0.9, 0.5),  # below the mean
        (2, 0.3, 2.5),
    ],
)
def test_one_walk_gives_the_trigger_probability_and_the_covariance(n, eps, threshold):
    assert_moments_are_the_walk(ThresholdModelSpec.from_threshold(n, eps, threshold))


def assert_moments_are_the_walk(spec):
    """Each field of ``spec.moments()`` is the raw walk's value, bit for bit."""
    log_scale, mass, dev, cov, conditional, between = _tail_and_covariance(spec.n, spec.eps, spec.threshold)
    p = math.exp(log_scale) * mass
    got = spec.moments()
    want = {
        "trigger_prob": p,
        "log_trigger_prob": log_scale + math.log(mass) if mass > 0.0 else -math.inf,
        "rate": spec.eps + dev,
        "deviation": dev,
        "covariance": cov,
        "conditional_term": conditional,
        "between_term": between,
        "retention_upper_bound": math.inf if p == 0.0 else 1.0 / p,
    }
    for name, value in want.items():
        assert getattr(got, name).hex() == value.hex(), (name, spec)
    if spec.n < 2:
        assert got.covariance == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 64, 257, 1024, 4096])
def test_every_moment_is_the_walk_bit_for_bit(n):
    for eps in (0.01, 0.1, 0.3, 0.7):
        assert_moments_are_the_walk(ThresholdModelSpec(n=n, eps=eps, margin_rate=1.0))
        for margin in range(-50, 41, 5):
            assert_moments_are_the_walk(ThresholdModelSpec(n=n, eps=eps, margin=margin))


def test_weight_distribution_keeps_every_representable_entry():
    # n = 2^17, eps = 0.1: no entry is cut against the mode, only underflow ends a walk
    law = ThresholdModelSpec(n=2**17, eps=0.1, margin=1e4).weight_law()
    nonzero = np.flatnonzero(law)
    assert law[nonzero].min() < 1e-320
    assert np.array_equal(nonzero, np.arange(nonzero[0], nonzero[-1] + 1))
    assert law.sum() == pytest.approx(1.0, abs=1e-13)


def test_log_trigger_probability_resolves_below_the_float_range():
    # margin rate 6: every trigger probability lies below 1e-308
    specs = [ThresholdModelSpec(n=2**k, eps=0.1, margin_rate=6.0) for k in (10, 13, 16, 19)]
    logs = [s.moments().log_trigger_prob for s in specs]
    assert all(s.moments().trigger_prob == 0.0 for s in specs)
    with mpmath.workdps(DIGITS):
        for spec, got in zip(specs, logs):
            want = mpmath.log(mp_tail_gt(spec.n, spec.eps, spec.threshold))
            assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_log_trigger_probability_edges():
    assert ThresholdModelSpec.from_threshold(8, 0.3, 8.0).moments().log_trigger_prob == -math.inf
    assert ThresholdModelSpec.from_threshold(8, 0.3, -0.5).moments().log_trigger_prob == 0.0


_FOOTPRINT_PROBE = """
import json, sys
import numpy

def heavy_modules():
    return {
        name for name in sys.modules
        if name.partition(".")[0] in ("scipy", "concurrent", "logging")
        or name.startswith("numpy.random")
        or name == "_hashlib"
    }

# NumPy 1.x imports numpy.random with numpy itself; only what corrmem adds counts
before = heavy_modules()

def added():
    return sorted(heavy_modules() - before)

from corrmem import clopper_pearson, parse_config, run

out = sys.argv[1]
chain = {"field": {"theta": 0.5, "n": 8}, "channel": {"type": "per_site", "rates": [0.05, 0.15]}}
seen = {"import corrmem": added()}
for name, config in [
    ("exact tails", {"kind": "tails", "model": chain, "params": {"method": "exact", "deltas": [0.1, 0.2]}}),
    ("adversarial-scan", {"kind": "adversarial-scan", "grid": {"n_values": [64, 1024]}, "params": {"eps": 0.1, "margin_rates": [1.0, 2.0]}}),
    ("exact covariance", {"kind": "covariance", "model": chain, "params": {"method": "exact"}}),
    ("exact scaling", {
        "kind": "scaling",
        "model": {"type": "threshold", "n": 6, "eps": 0.1, "margin": 1.0},
        "grid": {"n_values": [8, 12, 16, 20]},
        "params": {"distance_fraction": 0.5},
    }),
    ("verify-all", {"kind": "verify-all"}),
]:
    run(parse_config({**config, "out": out}))
    seen[name + " run"] = added()
# two deltas, so two worker threads
run(parse_config({"kind": "tails", "out": out, "model": chain, "params": {"method": "exact", "deltas": [0.1, 0.2]}}), threads=2)
seen["exact tails run at threads=2"] = added()
run(parse_config({"kind": "tails", "out": out, "model": chain, "params": {"method": "mc", "deltas": [0.1]}, "budget": {"trials": 1000}}))
seen["mc tails run"] = "numpy.random" in sys.modules
clopper_pearson(3, 10)
seen["clopper_pearson"] = "scipy.special" in sys.modules
print(json.dumps(seen))
"""


def test_scipy_loads_only_for_a_clopper_pearson_interval(tmp_path):
    # scipy.special takes longer to import than every exact computation of a
    # run together, and numpy.random and OpenSSL's libcrypto (behind
    # hashlib) cost a tenth of an exact run's peak memory, so no path that
    # draws no random numbers may load any of them; nor may any run load
    # concurrent.futures or the logging it pulls in, which worker threads do
    # not need and every import would pay for
    out = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == {
        "import corrmem": [],
        "exact tails run": [],
        "adversarial-scan run": [],
        "exact tails run at threads=2": [],
        "exact covariance run": [],
        "exact scaling run": [],
        "verify-all run": [],
        "mc tails run": True,
        "clopper_pearson": True,
    }
