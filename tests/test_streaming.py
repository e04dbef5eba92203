"""Streamed sampling: skip-ahead cursors, bounded memory and exact pooling.

Every sampler draws its uniforms through one slicer, ``field._blocks``, in
slices of at most ``field._STACK_ROWS`` rows.  Blocks that fit are stacked
across generators into one buffer.  A longer block is cut into slices, and
when a generator supplies several consecutive blocks (an epoch's walk block,
then its error block), each is read through its own cursor, placed by
``Philox.advance``.  These tests hold the cursors to the whole-block draw and
the memory to that one buffer of uniforms.
"""

import tracemalloc

import numpy as np
import pytest

import corrmem.field as field
from corrmem import (
    CodeModel,
    HiddenErrorModel,
    MarkovFieldSpec,
    PerSiteChannel,
    ThresholdModelSpec,
    ValidationError,
    WindowChannel,
    chain_tail_bound,
    clopper_pearson,
    combined_tail_bound,
    correlation_decay_profile,
    count_exceedances,
    hoeffding_conditional_bound,
    ks_critical_value,
    lifetime_lower_bound,
    make_generator,
    sample_errors_batch,
    sample_field_batch,
    sampled_covariance,
    simulate_retention,
)
from corrmem.field import _blocks, _skipped
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


def by_first_column(rows):
    return rows[np.argsort(rows[:, 0])]


# two parts are an epoch's walk and error blocks, as sample_weights draws them
@pytest.mark.parametrize(
    "count, parts",
    [
        pytest.param(count, parts, id=str(count) if parts == 2 else f"{count}-one-part")
        for parts in (2, 1)
        for count in (30, 64, 100, 101, 250, 700)
    ],
)
def test_streamed_epochs_leave_the_generator_where_a_whole_draw_would(count, parts, monkeypatch):
    # 100-row slices: stacks of three and of one generator, one whole slice,
    # then two with a short one, three and seven
    monkeypatch.setattr(field, "_STACK_ROWS", 100)
    gens = [make_generator(seed) for seed in range(3)]
    for gen in gens:
        gen.random(3)
    drawn = np.concatenate([block.copy() for block in _blocks(gens, count, 9, parts)])
    whole = [make_generator(seed) for seed in range(3)]
    for w in whole:
        w.random(3)
    wanted = np.concatenate([w.random((parts * count, 9)) for w in whole])
    # every row of every generator's blocks is drawn once, and one part's in stream order
    assert np.array_equal(by_first_column(drawn), by_first_column(wanted))
    assert parts == 2 or np.array_equal(drawn, wanted)
    for gen, w in zip(gens, whole):
        assert np.array_equal(gen.random(5), w.random(5))


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


def test_mc_covariance_streams_its_trials():
    model = HiddenErrorModel(field=chain(64, 0.5), channel=PerSiteChannel(table=np.tile([0.05, 0.15], (64, 1))))
    # one (2048, 128) uniform block is 2 MiB and its (2048, 64) float error
    # bits 1 MiB; the (50 000, 64) uint8 error block would be 3.05 MiB more
    assert traced_peak(lambda: sampled_covariance(model, trials=50_000, seed=0)) < 5 * 2**20


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
    est = sampled_covariance(model, trials=5000, seed=17)
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


COUNTED = {
    "simulate_retention-max_epochs": lambda k: simulate_retention(window_model(5), CodeModel(n=5, k=1, d=3), k, 10, 0),
    "simulate_retention-trials": lambda k: simulate_retention(window_model(5), CodeModel(n=5, k=1, d=3), 10, k, 0),
    "sample_errors_batch": lambda k: sample_errors_batch(window_model(5), 0, k),
    "sample_field_batch": lambda k: sample_field_batch(chain(5, 0.5), 0, k),
    "sampled_covariance": lambda k: sampled_covariance(window_model(5), k, 0),
    "count_exceedances": lambda k: count_exceedances(window_model(5), make_generator(0), k, 1.0),
    "sample_weights": lambda k: window_model(5).sample_weights([make_generator(0)], k),
    "threshold-sample_weights": lambda k: ThresholdModelSpec(n=5, eps=0.2, margin=0.5).sample_weights([make_generator(0)], k),
    "clopper_pearson-count": lambda k: clopper_pearson(k, 5000),
    "clopper_pearson-trials": lambda k: clopper_pearson(1, k),
    "MarkovFieldSpec-n": lambda k: MarkovFieldSpec(n=k, alphabet_size=2, initial=[0.5, 0.5], kernels=chain(5, 0.5).kernels),
    "MarkovFieldSpec-alphabet_size": lambda k: MarkovFieldSpec(n=5, alphabet_size=k, initial=[0.5, 0.5], kernels=chain(5, 0.5).kernels),
    "ThresholdModelSpec-n": lambda k: ThresholdModelSpec(n=k, eps=0.2, margin=0.5),
    "ThresholdModelSpec.from_threshold-n": lambda k: ThresholdModelSpec.from_threshold(k, 0.1, 3.0),
    "CodeModel-n": lambda k: CodeModel(n=k, k=0, d=1),
    "CodeModel-k": lambda k: CodeModel(n=5, k=k, d=1),
    "CodeModel-d": lambda k: CodeModel(n=5, k=0, d=k),
    "WindowChannel-radius": lambda k: WindowChannel(radius=k, table=np.full((5, 8), 0.1)),
    "lifetime_lower_bound-n": lambda k: lifetime_lower_bound(k, 0.3),
    "hoeffding_conditional_bound-n": lambda k: hoeffding_conditional_bound(0.1, k),
    "chain_tail_bound-n": lambda k: chain_tail_bound(0.1, k, 1.0, 2.0),
    "combined_tail_bound-n": lambda k: combined_tail_bound(0.1, 0.2, k, 1.0, 2.0),
    "ks_critical_value-samples": lambda k: ks_critical_value(k),
    "tail-k": lambda k: window_model(5).tail(k),
    "threshold-tail-k": lambda k: ThresholdModelSpec(n=5, eps=0.2, margin=0.5).tail(k),
    "correlation_decay_profile-site": lambda k: correlation_decay_profile(chain(5, 0.5), k),
}


@pytest.mark.parametrize("count", [2.5, 2.0, 1000.5, 2000.0, np.float64(3.0), True, "3"], ids=repr)
@pytest.mark.parametrize("call", sorted(COUNTED))
def test_every_count_is_checked_as_an_integer(call, count):
    with pytest.raises(ValidationError, match="integer"):
        COUNTED[call](count)


def test_numpy_sizes_are_accepted_as_ints():
    spec = MarkovFieldSpec(n=np.int64(5), alphabet_size=np.uint8(2), initial=[0.5, 0.5], kernels=chain(5, 0.5).kernels)
    code = CodeModel(n=np.int64(5), k=np.int32(1), d=np.int16(3))
    sizes = (spec.n, spec.alphabet_size, code.n, code.k, code.d, ThresholdModelSpec(n=np.int64(5), eps=0.2, margin=0.5).n)
    assert sizes == (5, 2, 5, 1, 3, 5)
    assert all(type(size) is int for size in sizes)
    assert type(WindowChannel(radius=np.int64(1), table=np.full((5, 8), 0.1)).radius) is int
    assert hoeffding_conditional_bound(0.1, np.int64(3)) == hoeffding_conditional_bound(0.1, 3)
    assert ks_critical_value(np.uint16(30)) == ks_critical_value(30)
    assert window_model(5).tail(np.int8(1)) == window_model(5).tail(1)
    assert np.array_equal(correlation_decay_profile(chain(5, 0.5), np.int32(1)), correlation_decay_profile(chain(5, 0.5), 1))


NON_MODEL_SAMPLERS = {
    "sampled_covariance": lambda: sampled_covariance("not a model", 1000, 0),
    "sample_errors_batch": lambda: sample_errors_batch("not a model", 0, 10),
    "sample_field_batch": lambda: sample_field_batch("x", 0, 10),
}


@pytest.mark.parametrize("call", sorted(NON_MODEL_SAMPLERS))
def test_samplers_reject_what_is_not_a_model(call):
    with pytest.raises(ValidationError, match="unsupported (model|field) type str"):
        NON_MODEL_SAMPLERS[call]()


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
