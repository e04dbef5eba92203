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

from corrmem import (
    ThresholdModelSpec,
    ValidationError,
    exact_covariance,
    log_trigger_probability,
    tail_scaling_fit,
    trigger_probability,
)
from corrmem.adversarial import (
    _binom_tail_gt,
    _log_pmf,
    _stirlerr,
    _tail_and_covariance,
    weight_distribution,
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
    assert_rel(exact_covariance(spec), want)


@settings(max_examples=25, deadline=None)
@given(n=sizes, eps=rates, z=sigmas)
def test_weight_distribution_matches_mpmath(n, eps, z):
    spec = ThresholdModelSpec.from_threshold(n, eps, threshold_at(n, eps, z))
    k = math.floor(spec.threshold)
    law = weight_distribution(spec)
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
    spec = ThresholdModelSpec.from_threshold(n, eps, threshold)
    log_scale, mass, cov = _tail_and_covariance(n, eps, spec.threshold)
    assert (math.exp(log_scale) * mass).hex() == trigger_probability(spec).hex()
    if n < 2:
        assert cov == 0.0
        with pytest.raises(ValidationError, match="n >= 2"):
            exact_covariance(spec)
    else:
        assert cov.hex() == exact_covariance(spec).hex()


def test_weight_distribution_keeps_every_representable_entry():
    # n = 2^17, eps = 0.1: no entry is cut against the mode, only underflow ends a walk
    law = weight_distribution(ThresholdModelSpec(n=2**17, eps=0.1, margin=1e4))
    nonzero = np.flatnonzero(law)
    assert law[nonzero].min() < 1e-320
    assert np.array_equal(nonzero, np.arange(nonzero[0], nonzero[-1] + 1))
    assert law.sum() == pytest.approx(1.0, abs=1e-13)


def test_log_trigger_probability_resolves_below_the_float_range():
    # margin rate 6: every trigger probability lies below 1e-308
    specs = [ThresholdModelSpec(n=2**k, eps=0.1, margin_rate=6.0) for k in (10, 13, 16, 19)]
    logs = [log_trigger_probability(s) for s in specs]
    assert all(trigger_probability(s) == 0.0 for s in specs)
    with mpmath.workdps(DIGITS):
        for spec, got in zip(specs, logs):
            want = mpmath.log(mp_tail_gt(spec.n, spec.eps, spec.threshold))
            assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)
    fit = tail_scaling_fit(specs)
    assert fit.slope < 0.0
    assert fit.retention_exponent is not None and fit.retention_exponent > 0.0


def test_log_trigger_probability_edges():
    assert log_trigger_probability(ThresholdModelSpec.from_threshold(8, 0.3, 8.0)) == -math.inf
    assert log_trigger_probability(ThresholdModelSpec.from_threshold(8, 0.3, -0.5)) == 0.0


def test_tail_scaling_fit_refuses_only_impossible_triggers():
    specs = [ThresholdModelSpec(n=n, eps=0.1, margin_rate=1.0) for n in (256, 1024, 4096)]
    with pytest.raises(ValidationError, match="never trigger"):
        tail_scaling_fit([*specs, ThresholdModelSpec.from_threshold(64, 0.1, 64.0)])


_FOOTPRINT_PROBE = """
import json, sys
import numpy

def heavy_modules():
    return {
        name for name in sys.modules
        if name.partition(".")[0] == "scipy" or name.startswith("numpy.random") or name == "_hashlib"
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
    # draws no random numbers may load any of them
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
        "exact covariance run": [],
        "exact scaling run": [],
        "verify-all run": [],
        "mc tails run": True,
        "clopper_pearson": True,
    }
