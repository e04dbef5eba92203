"""The transfer-matrix exact backend against the enumeration oracles.

Weight laws, site rates, covariances, Lipschitz constants and decay
profiles come from forward passes over the latent chain; here each is
compared with the same quantity read off a full enumeration, on random
inhomogeneous models whose kernels may forbid some transitions.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrmem
from corrmem import (
    GlobalThresholdChannel,
    HiddenErrorModel,
    MarkovFieldSpec,
    PerSiteChannel,
    ThresholdModelSpec,
    WindowChannel,
    correlation_decay_profile,
    covariance_matrix,
    error_rate,
    lipschitz_constant,
    site_error_rates,
    site_marginals,
    symmetric_binary_field,
    weight_law,
)
from corrmem.channel import weight_distribution
from corrmem.oracle import brute_force_lipschitz, exact_error_distribution, exact_field_distribution

TOL = 1e-12

# per-site, window radius 0..2, and a threshold below 0, inside [0, n), at or
# above n, and on an integer 0..n (so b = 0 and b = n come up)
CHANNELS = ("per_site", "window0", "window1", "window2", "below", "inside", "above", "integer")


def sparse_field(rng, n, alphabet_size):
    """Random inhomogeneous chain; about a third of its entries are zero."""

    def rows(shape):
        p = rng.dirichlet(np.ones(alphabet_size), size=shape)
        p *= rng.random(p.shape) > 0.35
        dead = p.sum(axis=-1) == 0.0
        p[dead, rng.integers(alphabet_size)] = 1.0
        return p / p.sum(axis=-1, keepdims=True)

    return MarkovFieldSpec(
        n=n,
        alphabet_size=alphabet_size,
        initial=rows(()),
        kernels=rows((n - 1, alphabet_size)),
    )


def random_model(seed, n, alphabet_size, channel):
    rng = np.random.default_rng(seed)
    if channel.startswith("window"):
        radius = int(channel[-1])
        table = rng.random((n, alphabet_size ** (2 * radius + 1)))
        return HiddenErrorModel(
            field=sparse_field(rng, n, alphabet_size),
            channel=WindowChannel(radius=radius, table=table),
        )
    if channel == "per_site":
        table = rng.random((n, alphabet_size))
        return HiddenErrorModel(
            field=sparse_field(rng, n, alphabet_size), channel=PerSiteChannel(table=table)
        )
    threshold = {
        "below": rng.uniform(-3.0, 0.0),
        "inside": rng.uniform(0.0, n),
        "above": rng.uniform(n, n + 3.0),
        "integer": float(rng.integers(0, n + 1)),
    }[channel]
    return HiddenErrorModel(
        field=sparse_field(rng, n, 2), channel=GlobalThresholdChannel(threshold=threshold)
    )


def models():
    """(seed, n, alphabet size, channel); ternary chains stop at n = 8 to keep
    the 2**n * 3**n enumeration cheap."""
    return st.tuples(
        st.integers(0, 2**32 - 1),
        st.integers(1, 10),
        st.sampled_from((2, 3)),
        st.sampled_from(CHANNELS),
    ).filter(lambda t: t[2] == 2 or t[1] <= 8)


def error_vectors(n):
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=float)


@settings(max_examples=120, deadline=None)
@given(models())
def test_weight_law_rates_and_covariance_match_error_vector_law(params):
    model = random_model(*params)
    n = model.n
    law = exact_error_distribution(model)
    y = error_vectors(n)
    weights = np.bincount(y.sum(axis=1).astype(int), weights=law, minlength=n + 1)
    rates = y.T @ law
    pair = (y * law[:, None]).T @ y
    cov = pair - np.outer(rates, rates)
    np.fill_diagonal(cov, rates * (1.0 - rates))

    np.testing.assert_allclose(weight_distribution(model), weights, rtol=0, atol=TOL)
    np.testing.assert_allclose(site_error_rates(model), rates, rtol=0, atol=TOL)
    assert error_rate(model) == pytest.approx(rates.mean(), rel=0, abs=TOL)
    np.testing.assert_allclose(covariance_matrix(model), cov, rtol=0, atol=TOL)
    # every tail is the last column of its own capped pass, off the range too
    tails = [model.tail(k) for k in range(-2, n + 2)]
    expected = [weights[max(k + 1, 0) :].sum() for k in range(-2, n + 2)]
    np.testing.assert_allclose(tails, expected, rtol=0, atol=TOL)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 69), st.integers(2, 4))
def test_per_site_rates_equal_site_marginal_read_out(seed, n, alphabet_size):
    # per-site rates run through the r = 0 window pass; they must equal the
    # site-marginal read-out bit for bit, as the mc-tails CSV prints them
    rng = np.random.default_rng(seed)
    table = rng.random((n, alphabet_size))
    model = HiddenErrorModel(
        field=sparse_field(rng, n, alphabet_size), channel=PerSiteChannel(table=table)
    )
    expected = (site_marginals(model.field) * table).sum(axis=1)
    assert np.array_equal(site_error_rates(model), expected)


@settings(max_examples=150, deadline=None)
@given(models())
def test_lipschitz_auto_matches_brute_force(params):
    model = random_model(*params)
    auto = lipschitz_constant(model)
    assert auto == pytest.approx(brute_force_lipschitz(model), rel=0, abs=TOL)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10))
def test_decay_profile_matches_field_enumeration(seed, n):
    spec = sparse_field(np.random.default_rng(seed), n, 2)
    law = exact_field_distribution(spec).reshape((2,) * n)
    for site in range(n - 1):
        marginal = law.sum(axis=tuple(a for a in range(n) if a != site))
        expected = np.zeros(n - 1 - site)
        if marginal.min() > 0.0:
            for k in range(site + 1, n):
                joint = law.sum(axis=tuple(a for a in range(n) if a not in (site, k)))
                expected[k - site - 1] = abs(
                    joint[1, 1] / marginal[1] - joint[0, 1] / marginal[0]
                )
        np.testing.assert_allclose(
            correlation_decay_profile(spec, site), expected, rtol=0, atol=TOL
        )


def test_window_weight_law_at_two_thousand_sites():
    n = 2000
    row = [0.02 + 0.08 * bin(j).count("1") for j in range(8)]
    model = HiddenErrorModel(
        field=symmetric_binary_field(n, 0.5),
        channel=WindowChannel(radius=1, table=np.tile(row, (n, 1))),
    )
    law = weight_law(model)
    assert law.sum() == pytest.approx(1.0, abs=1e-10)
    assert law @ np.arange(n + 1) == pytest.approx(n * error_rate(model), rel=1e-9, abs=0)
    # below, at and far above the mean weight of 280, down to 1e-244 and to 0
    for k in (0, 280, 600, 1000, 1999):
        assert model.tail(k) == pytest.approx(math.fsum(law[k + 1 :].tolist()), rel=1e-12, abs=0)


def test_covariance_has_no_cancellation_at_long_lags():
    n = 14
    model = HiddenErrorModel(
        field=symmetric_binary_field(n, 0.1),
        channel=PerSiteChannel(table=np.tile([0.05, 0.15], (n, 1))),
    )
    cov = covariance_matrix(model)
    for k in range(1, n):
        assert cov[0, k] == pytest.approx(0.0025 * 0.1**k, rel=1e-12, abs=0)


@pytest.mark.parametrize("threshold", [-3.0, 41.5, 300.5, 320.0])
def test_threshold_channel_covariance_at_three_hundred_sites(threshold):
    # below 0, inside [0, n), and at or above n: the pair pass against the
    # threshold family's closed forms, far past any enumeration
    spec = ThresholdModelSpec.from_threshold(300, 0.1, threshold)
    cov = covariance_matrix(HiddenErrorModel(spec.field, spec.channel))
    np.testing.assert_allclose(cov, spec.covariance(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("offset", [-1.5, -1.0, -0.5, 0.0, 0.5, 1e6])
def test_identity_threshold_channel_reads_out_like_a_table(monkeypatch, offset):
    # with floor(B) >= n - 1 only the all-ones state triggers, and it maps to
    # itself: the channel is the identity and skips the threshold pair pass
    n = 300
    field = symmetric_binary_field(n, 0.7)
    model = HiddenErrorModel(field=field, channel=GlobalThresholdChannel(threshold=n + offset))
    calls = []
    real = corrmem.channel._threshold_joint
    monkeypatch.setattr(corrmem.channel, "_threshold_joint", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    rates, cov = site_error_rates(model), covariance_matrix(model)
    if offset < -1.0:
        assert len(calls) == 2
        return
    assert not calls
    table = HiddenErrorModel(field=field, channel=PerSiteChannel(table=np.tile([0.0, 1.0], (n, 1))))
    np.testing.assert_allclose(rates, site_error_rates(table), rtol=0, atol=1e-15)
    np.testing.assert_allclose(cov, covariance_matrix(table), rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_threshold_below_zero_fires_on_every_configuration(seed):
    # every error vector is all ones: rates exactly 1 and covariance exactly
    # 0, even where the chain's total mass does not round to 1
    field = sparse_field(np.random.default_rng(seed), 40, 2)
    model = HiddenErrorModel(field=field, channel=GlobalThresholdChannel(threshold=-0.5))
    assert np.array_equal(site_error_rates(model), np.ones(40))
    assert np.array_equal(covariance_matrix(model), np.zeros((40, 40)))


def test_exact_threshold_covariance_leaves_the_oracle_unimported(tmp_path):
    config = {
        "kind": "covariance",
        "out": str(tmp_path),
        "model": {
            "type": "hidden",
            "field": {"theta": 0.5, "n": 12},
            "channel": {"type": "global_threshold", "threshold": 5.0},
        },
        "params": {"method": "exact"},
    }
    script = (
        "import json, sys\n"
        "import corrmem\n"
        f"corrmem.run(corrmem.parse_config(json.loads({json.dumps(config)!r})))\n"
        "print('corrmem.oracle' in sys.modules)\n"
    )
    src = str(Path(corrmem.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    assert (tmp_path / "covariance.csv").is_file()
