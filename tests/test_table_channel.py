"""One table channel: a per-site channel is the radius-0 window.

``PerSiteChannel(table=t)`` builds ``WindowChannel(radius=0, table=t)`` and
has no validation or behaviour of its own, so a model built on either
answers every method with the same bits.  A radius-0 table's Lipschitz
constant is the row max-min closed form, which equals the flip
neighbourhood enumeration bit for bit; wider windows still enumerate, on
the window codes the read-out builds.
"""

import json
import math

import numpy as np
import pytest

import corrmem.channel as channel
from corrmem import (
    HiddenErrorModel,
    PerSiteChannel,
    ValidationError,
    WindowChannel,
    make_generator,
    sample_errors_batch,
)
from corrmem.cli import main
from corrmem.oracle import brute_force_lipschitz

from conftest import chain, random_field


def twin_models(rng, n, alphabet_size):
    """The same random field read out through a per-site and a radius-0 window channel."""
    field = random_field(rng, n, alphabet_size)
    table = rng.random((n, alphabet_size))
    return (
        HiddenErrorModel(field=field, channel=PerSiteChannel(table=table)),
        HiddenErrorModel(field=field, channel=WindowChannel(radius=0, table=table)),
    )


def test_per_site_channel_is_a_radius_0_window():
    table = np.tile([0.05, 0.15], (4, 1))
    c = PerSiteChannel(table=table)
    assert isinstance(c, WindowChannel)
    assert c.radius == 0
    assert np.array_equal(c.table, table)
    assert not c.table.flags.writeable


@pytest.mark.parametrize("seed, n, alphabet_size", [(0, 6, 2), (1, 9, 3), (2, 1, 2), (3, 12, 4)])
def test_per_site_model_matches_the_radius_0_window_bit_for_bit(seed, n, alphabet_size):
    per_site, window = twin_models(np.random.default_rng(seed), n, alphabet_size)
    assert per_site.mean_rate() == window.mean_rate()
    assert per_site.lipschitz() == window.lipschitz()
    assert np.array_equal(per_site.weight_law(), window.weight_law())
    assert [per_site.tail(k) for k in range(-1, n + 1)] == [window.tail(k) for k in range(-1, n + 1)]
    assert np.array_equal(per_site.covariance(), window.covariance())
    # a stacked block and a streamed one, over several generators
    for count in (5, 3000):
        a = per_site.sample_weights([make_generator(s) for s in range(3)], count)
        b = window.sample_weights([make_generator(s) for s in range(3)], count)
        assert np.array_equal(a, b)
    assert np.array_equal(sample_errors_batch(per_site, 7, 2500), sample_errors_batch(window, 7, 2500))


def test_radius_0_lipschitz_is_the_closed_form(monkeypatch):
    models = twin_models(np.random.default_rng(5), 8, 3)
    enumerated = [channel._window_lipschitz(m) for m in models]

    def refuse(model):
        raise AssertionError("a radius-0 table needs no enumeration")

    monkeypatch.setattr(channel, "_window_lipschitz", refuse)
    table = models[0].channel.table
    closed_form = float((table.max(axis=1) - table.min(axis=1)).max())
    assert [m.lipschitz() for m in models] == enumerated == [closed_form, closed_form]
    wider = HiddenErrorModel(field=chain(4, 0.5), channel=WindowChannel(radius=1, table=np.full((4, 8), 0.5)))
    with pytest.raises(AssertionError, match="no enumeration"):
        wider.lipschitz()


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("alphabet_size", [2, 3])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_window_lipschitz_matches_brute_force(radius, alphabet_size, n):
    # n < 2r + 1 leaves every window hanging over a chain end, and
    # n < 4r + 1 every flip neighbourhood
    rng = np.random.default_rng(100 * radius + 10 * alphabet_size + n)
    table = rng.random((n, alphabet_size ** (2 * radius + 1)))
    table[rng.random(table.shape) < 0.2] = 0.0
    field = random_field(rng, n, alphabet_size)
    model = HiddenErrorModel(field=field, channel=WindowChannel(radius=radius, table=table))
    assert model.lipschitz() == pytest.approx(brute_force_lipschitz(model), rel=0, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda t: PerSiteChannel(table=t),
        lambda t: WindowChannel(radius=0, table=t),
        lambda t: WindowChannel(radius=1, table=np.tile(t, (1, 4))),
    ],
    ids=["per_site", "window_r0", "window_r1"],
)
def test_non_finite_table_entries_are_rejected(build, bad):
    table = np.tile([0.05, 0.15], (3, 1))
    table[1, 0] = bad
    with pytest.raises(ValidationError, match="must lie in"):
        build(table)


def test_cli_rejects_nan_channel_rates(tmp_path, capsys):
    path = tmp_path / "cov.json"
    path.write_text(
        json.dumps(
            {
                "model": {
                    "type": "hidden",
                    "field": {"theta": 0.5, "n": 4},
                    "channel": {"type": "per_site", "rates": [math.nan, 0.15]},
                }
            }
        )
    )
    assert main(["covariance", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "must lie in" in capsys.readouterr().err
    assert not (tmp_path / "covariance.csv").exists()
