"""The Monte Carlo hot path against the per-trial sampler it replaced.

The chain walk gathers one CDF column per symbol, retention stacks the
64-epoch blocks of many trials, each drawn from its own stream, and every
sampler reads out its rows in slices.  All must reproduce the
straightforward implementations below draw for draw; the references are
kept here for that purpose only.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrmem.bounds as bounds
import corrmem.channel as channel
import corrmem.field as field
from corrmem import (
    CodeModel,
    GlobalThresholdChannel,
    HiddenErrorModel,
    MarkovFieldSpec,
    PerSiteChannel,
    ThresholdModelSpec,
    WindowChannel,
    count_exceedances,
    derive_seed,
    make_generator,
    parse_config,
    run,
    sample_errors_batch,
    sample_field_batch,
    simulate_retention,
)
from corrmem.channel import _error_bits, _site_probabilities
from corrmem.field import _inverse_cdf_walk

from conftest import chain, random_field

ROOT = Path(__file__).resolve().parents[1]
SHORT = 1.0 - 2.0**-53  # the largest double below 1, and the largest uniform


def reference_walk(spec, u):
    """Inverse-CDF walk that compares each uniform with a whole CDF row."""
    s = spec.alphabet_size
    x = np.empty((u.shape[0], spec.n), dtype=np.uint8)
    cdf0 = np.cumsum(spec.initial)
    x[:, 0] = np.minimum((cdf0[None, :] <= u[:, 0, None]).sum(axis=1), s - 1)
    for i in range(spec.n - 1):
        rows = np.cumsum(spec.kernels[i], axis=1)[x[:, i]]
        x[:, i + 1] = np.minimum((rows <= u[:, i + 1, None]).sum(axis=1), s - 1)
    return x


def reference_probabilities(model, x):
    """Trial-major ``q_i(1 | x)`` of trial-major symbols ``x``, by one flat ``take`` on the raveled table."""
    c = model.channel
    if isinstance(c, GlobalThresholdChannel):
        return np.maximum(x, x.sum(axis=1, keepdims=True) > c.threshold).astype(float)
    n, s, r, width = model.n, model.field.alphabet_size, c.radius, c.table.shape[1]
    pad = np.zeros((x.shape[0], n + 2 * r), dtype=np.intp)
    pad[:, r : r + n] = x
    code = sum(pad[:, d : d + n] * s ** (2 * r - d) for d in range(2 * r + 1))
    return c.table.ravel().take(code + np.arange(n) * width)


def reference_weights(model, gen, count):
    """One trial's ``count`` epoch weights, drawn and read out in one go."""
    if isinstance(model, ThresholdModelSpec):
        s = gen.binomial(model.n, model.eps, size=count)
        return np.where(s <= model.threshold, s, model.n)
    x = reference_walk(model.field, gen.random((count, model.n)))
    q = reference_probabilities(model, x)
    return (gen.random((count, model.n)) < q).sum(axis=1)


def reference_retention(model, code, max_epochs, trials, seed):
    """First failing epoch per trial (0 if censored), one trial at a time."""
    tau = code.correction_threshold
    epochs = np.zeros(trials, dtype=np.int64)
    for t in range(trials):
        gen = make_generator(derive_seed(seed, "retention-trial", t))
        done = 0
        while done < max_epochs:
            block = min(64, max_epochs - done)
            hits = np.nonzero(reference_weights(model, gen, block) > tau)[0]
            if hits.size:
                epochs[t] = done + int(hits[0]) + 1
                break
            done += block
    return epochs


def random_row(rng, s, short):
    """A kernel row with likely zero entries; ``short`` rows sum to 1 - 2**-53."""
    w = rng.integers(0, 3, size=s).astype(float)
    if short or not w.any():
        w[-1] += 1.0  # a short row needs a positive last entry
    row = w / w.sum()
    if short:
        head = np.cumsum(row[:-1])[-1]
        row[-1] = SHORT - head
        while head + row[-1] > SHORT:
            row[-1] = np.nextafter(row[-1], 0.0)
        while head + row[-1] < SHORT:
            row[-1] = np.nextafter(row[-1], 1.0)
    return row


@st.composite
def walk_cases(draw):
    s = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 6))
    trials = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    short = rng.random((n, s)) < 0.4
    kernels = np.array([[random_row(rng, s, short[i, a]) for a in range(s)] for i in range(n - 1)])
    spec = MarkovFieldSpec(
        n=n,
        alphabet_size=s,
        initial=random_row(rng, s, short[-1, 0]),
        kernels=kernels.reshape(n - 1, s, s),
    )
    # uniforms hit CDF values exactly, including a last column below 1
    cdf_values = np.concatenate([np.cumsum(spec.initial), np.cumsum(spec.kernels, axis=2).ravel(), [0.0, SHORT]])
    u = rng.random((trials, n))
    exact = rng.random((trials, n)) < 0.5
    u[exact] = rng.choice(cdf_values, size=int(exact.sum()))
    return spec, u


@settings(max_examples=300, deadline=None)
@given(walk_cases())
def test_walk_matches_row_comparison_walk(case):
    spec, u = case
    assert np.array_equal(_inverse_cdf_walk(spec, u.T).T, reference_walk(spec, u))


def test_walk_short_row_at_largest_uniform_takes_last_symbol():
    kernels = np.array([[[0.5, 0.5 - 2.0**-53], [0.25, 0.75 - 2.0**-53]]])
    spec = MarkovFieldSpec(n=2, alphabet_size=2, initial=np.array([0.5, 0.5]), kernels=kernels)
    assert np.cumsum(spec.kernels, axis=2)[0, :, -1].tolist() == [SHORT, SHORT]
    u = np.array([[0.0, SHORT], [SHORT, SHORT], [0.0, 0.5], [SHORT, 0.25]])
    expected = [[0, 1], [1, 1], [0, 1], [1, 1]]
    assert _inverse_cdf_walk(spec, u.T).T.tolist() == expected
    assert reference_walk(spec, u).tolist() == expected


def biased_field(n):
    """Binary chain that mostly sits at 0 (stationary P(1) = 1/6)."""
    kernel = [[0.9, 0.1], [0.5, 0.5]]
    return MarkovFieldSpec(n=n, alphabet_size=2, initial=np.array([0.8, 0.2]), kernels=np.tile(kernel, (n - 1, 1, 1)))


def ternary_field(n):
    kernel = [[0.8, 0.2, 0.0], [0.3, 0.4, 0.3], [0.0, 0.5, 0.5]]
    return MarkovFieldSpec(
        n=n, alphabet_size=3, initial=np.array([0.5, 0.3, 0.2]), kernels=np.tile(kernel, (n - 1, 1, 1))
    )


N = 12
WINDOW_ROW = [0.02 + 0.1 * bin(j).count("1") for j in range(8)]
# (model, code): per-epoch failure probabilities of 0.4% to 2%, so 150
# epochs leave a share of the trials censored
RETENTION_CASES = {
    "per-site": (
        HiddenErrorModel(field=chain(N, 0.6), channel=PerSiteChannel(table=np.tile([0.05, 0.4], (N, 1)))),
        CodeModel(n=N, k=1, d=8, mode="full_distance"),
    ),
    "per-site-ternary": (
        HiddenErrorModel(field=ternary_field(N), channel=PerSiteChannel(table=np.tile([0.01, 0.1, 0.4], (N, 1)))),
        CodeModel(n=N, k=1, d=6, mode="full_distance"),
    ),
    "window": (
        HiddenErrorModel(field=chain(N, 0.6), channel=WindowChannel(radius=1, table=np.array([WINDOW_ROW] * N))),
        CodeModel(n=N, k=1, d=8, mode="full_distance"),
    ),
    "global-threshold": (
        HiddenErrorModel(field=biased_field(N), channel=GlobalThresholdChannel(threshold=7.0)),
        CodeModel(n=N, k=1, d=8, mode="full_distance"),
    ),
    "threshold-family": (
        ThresholdModelSpec(n=N, eps=0.1, margin_rate=1.0),
        CodeModel(n=N, k=1, d=9),
    ),
}


@pytest.mark.parametrize("name", sorted(RETENTION_CASES))
def test_stacked_retention_matches_per_trial_loop(name, monkeypatch):
    model, code = RETENTION_CASES[name]
    # 100-row stacks: one trial per stack for 64-epoch blocks, four for the
    # last 22 epochs of 150
    monkeypatch.setattr(field, "_STACK_ROWS", 100)
    est = simulate_retention(model, code, max_epochs=150, trials=40, seed=11)
    expected = reference_retention(model, code, 150, 40, 11)
    assert np.array_equal(est.failure_epochs, expected)
    assert np.array_equal(est.censored, expected == 0)
    assert 0 < est.censored_count < 40


def test_hidden_retention_short_run_is_prefix_of_long_run():
    model, code = RETENTION_CASES["per-site"]
    short = simulate_retention(model, code, max_epochs=150, trials=20, seed=5)
    long = simulate_retention(model, code, max_epochs=150, trials=200, seed=5)
    assert np.array_equal(short.failure_epochs, long.failure_epochs[:20])


@pytest.mark.parametrize("name", ["window", "threshold-family"])
def test_count_exceedances_matches_block_loop(name, monkeypatch):
    model, _ = RETENTION_CASES[name]
    # 1000-epoch blocks read out 300 rows at a time
    monkeypatch.setattr(bounds, "_MC_BLOCK", 1000)
    monkeypatch.setattr(field, "_STACK_ROWS", 300)
    gen = make_generator(7)
    expected = sum(int((reference_weights(model, gen, block) > 3.5).sum()) for block in (1000, 1000, 500))
    assert count_exceedances(model, make_generator(7), 2500, 3.5) == expected


def test_sample_errors_batch_slices_match_whole_block(monkeypatch):
    model, _ = RETENTION_CASES["window"]
    u = make_generator(3).random((250, 2, N))
    expected = (u[:, 1] < reference_probabilities(model, reference_walk(model.field, u[:, 0]))).astype(np.uint8)
    # 250 rows read out 64 at a time: three full slices and a partial one
    monkeypatch.setattr(field, "_STACK_ROWS", 64)
    got = sample_errors_batch(model, 3, 250)
    assert got.dtype == np.uint8
    assert np.array_equal(got, expected)


def test_sample_field_batch_slices_match_whole_block(monkeypatch):
    spec = ternary_field(N)
    expected = reference_walk(spec, make_generator(4).random((250, N)))
    # 250 rows walked 64 at a time: three full slices and a partial one
    monkeypatch.setattr(field, "_STACK_ROWS", 64)
    got = sample_field_batch(spec, 4, 250)
    assert got.dtype == np.uint8
    assert np.array_equal(got, expected)


def readout_model(rng, radius, s, n=6):
    """A window model whose table holds exact zeros and ones besides random rates."""
    table = rng.random((n, s ** (2 * radius + 1)))
    pick = rng.random(table.shape)
    table[pick < 0.2] = 0.0
    table[pick > 0.8] = 1.0
    return HiddenErrorModel(field=random_field(rng, n, s), channel=WindowChannel(radius=radius, table=table))


READOUT_CASES = [(radius, s) for radius in range(4) for s in (2, 3, 4)]


@pytest.mark.parametrize("radius, s", READOUT_CASES)
def test_chunked_readout_matches_flat_take(radius, s, monkeypatch):
    rng = np.random.default_rng(100 * radius + s)
    model = readout_model(rng, radius, s)
    walk, err = rng.random((2, 300, model.n))
    x = reference_walk(model.field, walk)
    q = reference_probabilities(model, x)
    # half the error uniforms equal their probability, which must read as no error
    tie = rng.random(err.shape) < 0.5
    err[tie] = q[tie]
    (bits,) = _error_bits(model, [walk, err])
    assert np.array_equal(bits, err < q)
    assert not bits[tie].any()
    assert np.array_equal(_site_probabilities(model, x.T), q.T)
    # 50-cell chunks hold 8 rows of 6 sites: one row, fewer rows than a
    # chunk, an exact multiple of it and a ragged last chunk
    monkeypatch.setattr(channel, "_READ_CELLS", 50)
    for rows in (1, 5, 64, 300):
        (bits,) = _error_bits(model, [walk[:rows], err[:rows]])
        assert np.array_equal(bits, err[:rows] < q[:rows])


def test_threshold_channel_readout_matches_reference(monkeypatch):
    rng = np.random.default_rng(5)
    model = HiddenErrorModel(field=biased_field(9), channel=GlobalThresholdChannel(threshold=2.0))
    walk, err = rng.random((2, 400, model.n))
    q = reference_probabilities(model, reference_walk(model.field, walk))
    err[:, ::2] = q[:, ::2]
    (bits,) = _error_bits(model, [walk, err])
    assert np.array_equal(bits, err < q)
    # some trials trigger and some do not
    assert 0 < q.all(axis=1).sum() < len(q)
    # 50-cell chunks hold 5 rows of 9 sites: one row, fewer rows than a
    # chunk, an exact multiple of it and a ragged last chunk
    monkeypatch.setattr(channel, "_READ_CELLS", 50)
    for rows in (1, 3, 40, 398):
        (bits,) = _error_bits(model, [walk[:rows], err[:rows]])
        assert np.array_equal(bits, err[:rows] < q[:rows])


@pytest.mark.parametrize("radius, s", READOUT_CASES)
@pytest.mark.parametrize("count", [3, 7])
def test_stacked_weights_match_flat_take_in_uneven_groups(radius, s, count, monkeypatch):
    model = readout_model(np.random.default_rng(10 * radius + s), radius, s)
    # 20-row stacks: two generators per stack at count 7, six at count 3,
    # and a short last stack of the eleven
    monkeypatch.setattr(field, "_STACK_ROWS", 20)
    got = model.sample_weights([make_generator(seed) for seed in range(11)], count)
    expected = np.concatenate([reference_weights(model, make_generator(seed), count) for seed in range(11)])
    assert np.array_equal(got, expected)


def load_benchmark_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("part", ["mc-tails", "retention"])
def test_benchmark_sampled_csv_is_unchanged(part, tmp_path):
    (cfg,) = load_benchmark_workloads().PARTS[part][1](0)
    result = run(parse_config(dict(cfg, out=str(tmp_path))))
    name = f"0-{Path(result.csv_path).name}"
    expected = (ROOT / "perfbench" / "expected" / part / name).read_bytes()
    assert Path(result.csv_path).read_bytes() == expected
