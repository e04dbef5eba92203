"""Streamed sampling: skip-ahead cursors, bounded memory and exact pooling.

Samplers draw and read out their uniforms ``field._STACK_ROWS`` rows at a
time.  An epoch block (a walk block, then an error block) longer than that
is read through two cursors on the caller's generator, the second placed by
``Philox.advance``.  Every block is drawn into one reused buffer and read
out site by site; these tests hold the cursors to the whole-block draw and
the memory to that one block of uniforms.
"""

import tracemalloc

import numpy as np
import pytest

import corrmem.field as field
from corrmem import (
    HiddenErrorModel,
    PerSiteChannel,
    ThresholdModelSpec,
    ValidationError,
    WindowChannel,
    count_exceedances,
    covariance_matrix,
    error_rate,
    make_generator,
    sample_errors_batch,
)
from corrmem.channel import _skipped
from corrmem.oracle import expected_errors

from conftest import chain, random_per_site_model

WINDOW_ROW = [0.02 + 0.1 * bin(j).count("1") for j in range(8)]


def window_model(n):
    return HiddenErrorModel(field=chain(n, 0.6), channel=WindowChannel(radius=1, table=np.array([WINDOW_ROW] * n)))


@pytest.mark.parametrize("start", range(9))
def test_skip_lands_on_the_double_a_whole_draw_reaches(start):
    # Philox hands out four doubles per counter step: starts 0-8 cover every
    # position in the buffered block, skips 0-257 every remainder mod 4.
    for skip in range(258):
        gen = make_generator(99)
        gen.random(start)
        cursor = np.random.Generator(np.random.Philox(key=0))
        cursor.bit_generator.state = _skipped(gen.bit_generator, skip)
        whole = make_generator(99).random(start + skip + 6)
        assert np.array_equal(cursor.random(6), whole[start + skip :]), skip
        # the generator skipped from is left where it was
        assert np.array_equal(gen.random(2), whole[start : start + 2]), skip


def test_skip_refuses_a_generator_that_is_not_philox():
    with pytest.raises(ValidationError, match="Philox"):
        _skipped(np.random.PCG64(1), 10)


@pytest.mark.parametrize("count", [64, 250, 700])
def test_streamed_epochs_leave_the_generator_where_a_whole_draw_would(count, monkeypatch):
    model = window_model(9)
    # 100-row slices: one slice, three with a short one, and seven
    monkeypatch.setattr(field, "_STACK_ROWS", 100)
    gen = make_generator(5)
    gen.random(3)
    model.sample_weights([gen], count)
    after = make_generator(5)
    after.random(3 + 2 * count * model.n)
    assert np.array_equal(gen.random(5), after.random(5))


@pytest.mark.parametrize("count", [30, 64, 250])
def test_sample_weights_is_the_concatenation_of_per_generator_calls(count, monkeypatch):
    monkeypatch.setattr(field, "_STACK_ROWS", 100)
    for model in (window_model(9), ThresholdModelSpec(n=9, eps=0.2, margin=0.5)):
        together = model.sample_weights([make_generator(s) for s in range(7)], count)
        apart = np.concatenate([model.sample_weights([make_generator(s)], count) for s in range(7)])
        assert together.shape == (7 * count,)
        assert np.array_equal(together, apart)


def test_count_exceedances_holds_only_a_few_slices_in_memory():
    model = HiddenErrorModel(field=chain(64, 0.5), channel=PerSiteChannel(table=np.tile([0.05, 0.15], (64, 1))))
    gen = make_generator(0)
    tracemalloc.start()
    try:
        count_exceedances(model, gen, 100_000, 6.4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole (2, 100 000, 64) block would be 100 MiB
    assert peak < 16 * 2**20


def traced_peak(call):
    """The tracemalloc peak of ``call()`` in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_exceedances_holds_one_block_of_uniforms():
    model = HiddenErrorModel(field=chain(64, 0.5), channel=PerSiteChannel(table=np.tile([0.05, 0.15], (64, 1))))
    gen = make_generator(0)
    # one (2048, 64) uniform block is 1 MiB and the 100 000 weights 0.76 MiB;
    # a second float block, or an (n, rows) index or probability block, is 1 MiB more
    assert traced_peak(lambda: count_exceedances(model, gen, 100_000, 6.4)) < 2.75 * 2**20


def test_stacked_sample_weights_hold_one_block_of_uniforms():
    model = window_model(64)
    gens = [make_generator(s) for s in range(640)]
    # 20 stacks of 32 generators' 64-epoch blocks; the uniforms take 1 MiB
    assert traced_peak(lambda: model.sample_weights(gens, 64)) < 3 * 2**20


def test_mc_error_rate_streams_its_per_trial_means():
    model = HiddenErrorModel(field=chain(64, 0.5), channel=PerSiteChannel(table=np.tile([0.05, 0.15], (64, 1))))
    # one (2048, 128) uniform block is 2 MiB and the 50 000 per-trial means
    # 0.38 MiB; the (50 000, 64) uint8 error block would be 3.05 MiB more
    assert traced_peak(lambda: error_rate(model, mode="mc", trials=50_000, seed=0)) < 3.5 * 2**20


def int64_covariance(model, seed, trials):
    """The Monte Carlo covariance pooled from the whole sample in int64."""
    y = sample_errors_batch(model, seed, trials).astype(np.int64)
    mu = y.sum(axis=0) / trials
    second = (y.T @ y) / trials
    cov = second - np.outer(mu, mu)
    np.fill_diagonal(cov, mu * (1.0 - mu))
    a = 1.0 - 2.0 * mu
    fourth = second * np.outer(a, a) + np.outer(mu * a, mu**2) + np.outer(mu**2, mu * a) + np.outer(mu**2, mu**2)
    return cov, np.sqrt(np.maximum(fourth - cov**2, 0.0) / trials)


@pytest.mark.parametrize("name", ["per-site", "window"])
def test_covariance_mc_pools_slices_exactly(name):
    model = random_per_site_model(np.random.default_rng(3), 6) if name == "per-site" else window_model(7)
    # 5 000 trials: two full 2048-row slices and a short one
    est = covariance_matrix(model, mode="mc", trials=5000, seed=17)
    values, stderr = int64_covariance(model, 17, 5000)
    assert np.array_equal(est.values, values)
    assert np.array_equal(est.stderr, stderr)


@pytest.mark.parametrize("x", [[0, -1, 0, 1], [0.5, 1, 0, 1], [0, np.nan, 0, 1], ["0", "1", "0", "1"]])
def test_expected_errors_rejects_symbols_that_are_not_non_negative_integers(x):
    model = HiddenErrorModel(field=chain(4, 0.5), channel=PerSiteChannel(table=np.tile([0.1, 0.4], (4, 1))))
    with pytest.raises(ValidationError, match="non-negative integer"):
        expected_errors(model, x)


def test_expected_errors_accepts_integer_valued_floats():
    model = HiddenErrorModel(field=chain(4, 0.5), channel=PerSiteChannel(table=np.tile([0.1, 0.4], (4, 1))))
    assert expected_errors(model, [0.0, 1.0, 0.0, 1.0]) == expected_errors(model, [0, 1, 0, 1])


@pytest.mark.parametrize("trials", [-5, 2.5, 1000.0])
def test_count_exceedances_rejects_trials_that_are_not_non_negative_integers(trials):
    with pytest.raises(ValidationError, match="non-negative integer"):
        count_exceedances(window_model(5), make_generator(0), trials, 1.0)


def test_count_exceedances_of_no_trials_is_zero():
    assert count_exceedances(window_model(5), make_generator(0), 0, 1.0) == 0
    assert count_exceedances(window_model(5), make_generator(0), np.int64(3), -1.0) == 3


@pytest.mark.parametrize(
    "model", [window_model(5), ThresholdModelSpec(n=5, eps=0.2, margin=0.5)], ids=["hidden", "threshold"]
)
def test_degenerate_sample_weights_agree_across_families(model):
    for gens, count in (([make_generator(0)], 0), ([], 5), ([], 0)):
        weights = model.sample_weights(gens, count)
        assert weights.dtype == np.intp and weights.shape == (0,)
    assert model.sample_weights([make_generator(0)], np.int64(3)).shape == (3,)
    for count in (-1, 2.5, 3.0):
        with pytest.raises(ValidationError, match="non-negative integer"):
            model.sample_weights([make_generator(0)], count)
