"""Checks on the benchmark's own instruments, on tiny models.

They catch a broken wrapper or counter before it reads as a speed-up; they
do not pin corrmem's current work counts.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import threading

import numpy as np
import pytest

import corrmem
from check import per_site_weight_law, window_weight_law
from layertrace import LAYERS, Span, Tracer, adopt_orphans, summarize
from run import parse_importtime
from workloads import win


def _field(n, alphabet_size):
    rng = np.random.default_rng(7)
    return corrmem.MarkovFieldSpec(
        n=n,
        alphabet_size=alphabet_size,
        initial=rng.dirichlet(np.ones(alphabet_size)),
        kernels=rng.dirichlet(np.ones(alphabet_size), size=(n - 1, alphabet_size)),
    )


def _window_model(n, alphabet_size):
    width = alphabet_size**3
    table = np.random.default_rng(8).random((n, width)) * 0.3
    return corrmem.HiddenErrorModel(field=_field(n, alphabet_size), channel=corrmem.WindowChannel(radius=1, table=table))


def _tails_config(tmp_path, deltas):
    return corrmem.parse_config(
        {
            "kind": "tails",
            "out": str(tmp_path),
            "model": {
                "type": "hidden",
                "field": {"theta": 0.5, "n": 6},
                "channel": {"type": "per_site", "rates": [0.05, 0.15]},
            },
            "params": {"method": "exact", "deltas": deltas},
        }
    )


@pytest.mark.parametrize("alphabet_size", [2, 3])
def test_states_enumerated_is_s_to_the_n_per_enumeration(alphabet_size):
    model = _window_model(5, alphabet_size)
    with Tracer() as tracer:
        corrmem.verify_bound(model, 0.2, method="exact")
    layers = summarize(tracer.spans, tracer.counts)
    enumerations = layers["field.exact_field_distribution.calls"]
    assert enumerations >= 1
    assert layers["field.states_enumerated"] == enumerations * alphabet_size**5


def test_uniforms_drawn_is_trials_times_2n_and_draws_are_unchanged():
    model = _window_model(7, 2)
    plain = corrmem.sample_errors_batch(model, 11, 50)
    with Tracer() as tracer:
        traced = corrmem.sample_errors_batch(model, 11, 50)
    layers = summarize(tracer.spans, tracer.counts)
    assert layers["rng.uniforms_drawn"] == 50 * 2 * 7
    assert layers["rng.streams_opened"] == 1
    np.testing.assert_array_equal(traced, plain)


def test_binomials_are_counted_for_threshold_sampling():
    spec = corrmem.ThresholdModelSpec(n=12, eps=0.2, margin=1.0)
    with Tracer() as tracer:
        corrmem.empirical_tail(spec, 4.0, trials=1500, seed=3)
    assert summarize(tracer.spans, tracer.counts)["rng.binomials_drawn"] == 1500


def test_epochs_survived_counts_censored_trials_at_max_epochs():
    model = _window_model(6, 2)
    code = corrmem.CodeModel(n=6, k=1, d=3)
    with Tracer() as tracer:
        est = corrmem.simulate_retention(model, code, max_epochs=5, trials=40, seed=2)
    lived = np.where(est.censored, 5, est.failure_epochs).sum()
    assert summarize(tracer.spans, tracer.counts)["memory.epochs_survived"] == lived


def test_self_time_never_exceeds_inclusive_time(tmp_path):
    with Tracer() as tracer:
        corrmem.run(_tails_config(tmp_path, [0.1, 0.2, 0.3]), threads=2)
    layers = summarize(tracer.spans, tracer.counts)
    for layer in LAYERS:
        assert 0.0 <= layers[f"{layer}.self_s"] <= layers[f"{layer}.inclusive_s"] + 1e-9
    assert layers["harness.calls"] >= 1
    assert layers["harness.csv_bytes"] == (tmp_path / "tails.csv").stat().st_size


def _span(name, start, end, parent=None, thread=1):
    span = Span(name, parent, thread)
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_the_union_of_overlapping_worker_spans():
    run = _span("harness.run", 0.0, 10.0)
    spans = [
        run,
        _span("bounds.verify_bound", 1.0, 5.0, thread=2),
        _span("bounds.verify_bound", 3.0, 8.0, thread=3),
    ]
    layers = summarize(spans, {})
    assert layers["harness.self_s"] == pytest.approx(3.0)
    assert layers["bounds.self_s"] == pytest.approx(9.0)
    assert layers["bounds.verify_bound_s"] == pytest.approx(9.0)


def test_worker_thread_spans_land_under_harness_run(tmp_path):
    with Tracer() as tracer:
        corrmem.run(_tails_config(tmp_path, [0.1, 0.2, 0.3, 0.4]), threads=2)
    spans = tracer.spans
    adopt_orphans(spans)
    main = threading.get_ident()
    assert any(span.thread != main for span in spans)
    for span in spans:
        root = span
        while root.parent is not None:
            root = root.parent
        assert root.name == "harness.run"


def test_uninstall_restores_every_function():
    before = corrmem.channel.weight_distribution
    alias = corrmem.memory._hidden_weight_distribution
    with Tracer():
        assert corrmem.channel.weight_distribution is not before
        assert corrmem.memory._hidden_weight_distribution is not alias
    assert corrmem.channel.weight_distribution is before
    assert corrmem.memory._hidden_weight_distribution is alias


@pytest.mark.parametrize("n", [1, 2, 7])
def test_output_check_oracles_match_enumeration(n):
    field = corrmem.symmetric_binary_field(n, 0.5)
    per_site = corrmem.HiddenErrorModel(field=field, channel=corrmem.PerSiteChannel(table=np.tile([0.05, 0.15], (n, 1))))
    np.testing.assert_allclose(per_site_weight_law(n, 0.5, [0.05, 0.15]), corrmem.weight_law(per_site), atol=1e-15)
    table = np.asarray(win(n)["table"])
    window = corrmem.HiddenErrorModel(field=field, channel=corrmem.WindowChannel(radius=1, table=table))
    np.testing.assert_allclose(window_weight_law(n, 0.5, table[0]), corrmem.weight_law(window), atol=1e-15)


def test_importtime_uses_outermost_lines_of_each_module():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |         scipy.special._ufuncs",
            "import time:        10 |         60 |       scipy.special",
            "import time:        40 |        100 |     scipy.stats._a",
            "import time:        70 |         70 |     scipy.stats._b",
            "import time:         5 |        180 |   corrmem.adversarial",
            "import time:         1 |        482 | corrmem",
        ]
    )
    got = parse_importtime(log)
    assert got["setup.import_numpy_s"] == pytest.approx(300e-6)
    assert got["setup.import_scipy_special_s"] == pytest.approx(60e-6)
    assert got["setup.import_scipy_stats_s"] == pytest.approx(170e-6)
    assert got["setup.import_corrmem_s"] == pytest.approx(482e-6)
