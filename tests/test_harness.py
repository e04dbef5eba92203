import hashlib
import json
import math
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import corrmem.adversarial as adversarial
import corrmem.bounds as bounds
import corrmem.harness as harness
from corrmem import (
    ConfigError,
    HiddenErrorModel,
    bundled_verification_suite,
    load_config,
    mixing_coefficients,
    parse_config,
    run,
    symmetric_binary_field,
)
from corrmem.cli import main


CHAIN_MODEL = {
    "type": "hidden",
    "field": {"theta": 0.5, "n": 8},
    "channel": {"type": "per_site", "rates": [0.05, 0.15]},
}


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# --- config validation --------------------------------------------------------


def test_parse_requires_a_kind():
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"master_seed": 3})


def test_parse_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="warp"):
        parse_config({"kind": "warp"})


def test_parse_rejects_kind_mismatch():
    with pytest.raises(ConfigError, match="does not match"):
        parse_config({"kind": "mixing", "model": {"field": {"theta": 0.1, "n": 4}}}, kind="tails")


def test_parse_rejects_unknown_top_level_field():
    with pytest.raises(ConfigError, match="trails"):
        parse_config({"kind": "verify-all", "trails": 5})


def test_parse_rejects_bad_master_seed():
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config({"kind": "verify-all", "master_seed": -1})
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config({"kind": "verify-all", "master_seed": "zero"})
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config({"kind": "verify-all", "master_seed": 2**64 + 5})
    assert parse_config({"kind": "verify-all", "master_seed": 2**64 - 1}).master_seed == 2**64 - 1
    for seed in (True, 2.5, "3"):
        with pytest.raises(ConfigError, match="master_seed must be an integer"):
            harness.ExperimentConfig(kind="verify-all", master_seed=seed)
        with pytest.raises(ConfigError, match="master_seed must be an integer"):
            parse_config({"kind": "verify-all", "master_seed": seed})


def test_an_integral_master_seed_reads_as_an_int():
    for cfg in (harness.ExperimentConfig(kind="verify-all", master_seed=7.0), parse_config({"kind": "verify-all", "master_seed": 7.0})):
        assert cfg.master_seed == 7 and type(cfg.master_seed) is int
    assert type(harness.ExperimentConfig(kind="verify-all", master_seed=np.uint64(7)).master_seed) is int


def test_parse_rejects_non_object_block():
    with pytest.raises(ConfigError, match="'model'"):
        parse_config({"kind": "covariance", "model": [1, 2]})


def test_retention_config_names_missing_pieces():
    base = {"kind": "retention", "model": CHAIN_MODEL}
    with pytest.raises(ConfigError, match="code"):
        parse_config({**base, "budget": {"trials": 10, "max_epochs": 5}})
    with pytest.raises(ConfigError, match="max_epochs"):
        parse_config({**base, "code": {"d": 3}, "budget": {"trials": 10}})
    with pytest.raises(ConfigError, match="trials"):
        parse_config({**base, "code": {"d": 3}, "budget": {"max_epochs": 5}})


def test_tails_config_requires_deltas():
    with pytest.raises(ConfigError, match="deltas"):
        parse_config({"kind": "tails", "model": CHAIN_MODEL})


def test_adversarial_scan_config_names_missing_params():
    with pytest.raises(ConfigError, match="n_values"):
        parse_config({"kind": "adversarial-scan", "params": {"eps": 0.1, "margin_rates": [1.0]}})
    with pytest.raises(ConfigError, match="margin_rates"):
        parse_config(
            {"kind": "adversarial-scan", "grid": {"n_values": [4]}, "params": {"eps": 0.1}}
        )


def test_grid_sizes_must_be_a_nonempty_list():
    with pytest.raises(ConfigError, match="n_values"):
        parse_config(
            {
                "kind": "scaling",
                "model": CHAIN_MODEL,
                "grid": {"n_values": []},
                "params": {"distance_fraction": 0.3},
            }
        )


@pytest.mark.parametrize(
    "kind, config, key",
    [
        ("tails", {"model": CHAIN_MODEL, "params": {"method": "exact", "deltas": []}}, "params.deltas"),
        ("adversarial-scan", {"grid": {"n_values": [8]}, "params": {"eps": 0.1, "margin_rates": []}}, "params.margin_rates"),
    ],
)
def test_a_runs_parameter_lists_must_be_nonempty(tmp_path, capsys, kind, config, key):
    path = write_config(tmp_path, "config.json", config)
    assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {key} must be a non-empty list" in capsys.readouterr().err
    assert not (tmp_path / "out" / f"{kind}.csv").exists()


def test_a_config_built_directly_is_checked():
    with pytest.raises(ConfigError, match="unknown experiment kind 'warp'; expected one of"):
        run(harness.ExperimentConfig(kind="warp"))
    with pytest.raises(ConfigError, match="kind 'tails' requires a 'model' block"):
        run(harness.ExperimentConfig(kind="tails"))


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "kind": "mixing",,\n}\n')
    with pytest.raises(ConfigError, match=r"line 2"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json")


def test_homogeneous_field_hits_requested_stickiness():
    spec = symmetric_binary_field(9, 0.4)
    assert np.allclose(mixing_coefficients(spec), 0.4)


# --- runs write the documented files -------------------------------------------


def test_mixing_run_outputs(tmp_path):
    cfg = parse_config(
        {
            "kind": "mixing",
            "out": str(tmp_path),
            "model": {"field": {"theta": 0.5}},
            "grid": {"n_values": [4, 8, 16]},
        }
    )
    result = run(cfg)
    assert result.exit_code == 0
    assert result.rows == 3
    lines = Path(result.csv_path).read_text().splitlines()
    assert lines[0] == "n,theta_max,m_bound"
    assert lines[1].startswith("4,0.5,")
    payload = json.loads(Path(result.summary_path).read_text())
    assert payload["kind"] == "mixing"
    assert payload["rows"] == 3
    assert payload["config"]["grid"]["n_values"] == [4, 8, 16]
    assert "version" in payload and "seed_tree" in payload


def test_grid_sizes_beat_a_blocks_own_n(tmp_path):
    mixing = parse_config(
        {
            "kind": "mixing",
            "out": str(tmp_path / "mixing"),
            "model": {"field": {"theta": 0.3, "n": 8}},
            "grid": {"n_values": [16, 32]},
        }
    )
    result = run(mixing)
    assert result.exit_code == 0
    lines = Path(result.csv_path).read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["16", "32"]
    scaling = parse_config(
        {
            "kind": "scaling",
            "out": str(tmp_path / "scaling"),
            "model": {"type": "threshold", "n": 6, "eps": 0.1, "margin": 1.0},
            "grid": {"n_values": [8, 12, 16, 20]},
            "params": {"distance_fraction": 0.5},
        }
    )
    lines = Path(run(scaling).csv_path).read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["8", "12", "16", "20"]


def test_covariance_exact_run(tmp_path):
    cfg = parse_config(
        {
            "kind": "covariance",
            "out": str(tmp_path),
            "model": {
                "type": "hidden",
                "field": {"theta": 0.25, "n": 5},
                "channel": {"type": "per_site", "rates": [0.1, 0.3]},
            },
        }
    )
    result = run(cfg)
    lines = Path(result.csv_path).read_text().splitlines()
    assert lines[0] == "i,j,cov,stderr"
    assert result.rows == 5 * 6 // 2  # upper triangle including diagonal
    assert all(line.endswith(",0.0") for line in lines[1:])


def test_covariance_run_streams_its_rows(tmp_path):
    n = 512
    cfg = parse_config(
        {
            "kind": "covariance",
            "out": str(tmp_path),
            "model": {
                "type": "hidden",
                "field": {"theta": 0.25, "n": n},
                "channel": {"type": "per_site", "rates": [0.1, 0.3]},
            },
        }
    )
    tracemalloc.start()
    try:
        result = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.rows == n * (n + 1) // 2
    assert json.loads(Path(result.summary_path).read_text())["rows"] == result.rows
    # the covariance and its stderr are two (n, n) float arrays; a list of
    # all n (n + 1) / 2 rows would hold about eleven
    assert peak < 5 * n * n * 8


def test_csv_cells_are_written_as_they_are(tmp_path):
    # None is an empty cell; Python and numpy floats take their shortest form
    path = tmp_path / "cells.csv"
    rows = [(None, np.float64(0.1), 1e-20, np.int64(3), 1, "dominated"), (0, math.inf, np.float64(2.5e16), -0.0, 0.1 + 0.2, "")]
    assert harness._write_csv(path, ["a", "b", "c", "d", "e", "f"], iter(rows)) == 2
    assert path.read_text() == "a,b,c,d,e,f\n,0.1,1e-20,3,1,dominated\n0,inf,2.5e+16,-0.0,0.30000000000000004,\n"


def test_covariance_threshold_exact_uses_exchangeability(tmp_path):
    cfg = parse_config(
        {
            "kind": "covariance",
            "out": str(tmp_path),
            "model": {"type": "threshold", "n": 6, "eps": 0.2, "margin": 0.5},
        }
    )
    result = run(cfg)
    rows = Path(result.csv_path).read_text().splitlines()[1:]
    off_diag = {line.rsplit(",", 2)[1] for line in rows if line.split(",")[0] != line.split(",")[1]}
    assert len(off_diag) == 1  # every site pair shares one covariance


def test_adversarial_scan_run(tmp_path):
    cfg = parse_config(
        {
            "kind": "adversarial-scan",
            "out": str(tmp_path),
            "grid": {"n_values": [4, 9]},
            "params": {"eps": 0.2, "margin_rates": [0.5, 1.0, 2.0]},
        }
    )
    result = run(cfg)
    lines = Path(result.csv_path).read_text().splitlines()
    assert lines[0] == "n,eps,a,C_n,B_n,P_A,cov12,retention_bound"
    assert result.rows == 6
    first = lines[1].split(",")
    # n=4, a=0.5: margin 0.5*sqrt(ln 4), threshold 0.8 + 2*margin
    margin = 0.5 * math.sqrt(math.log(4.0))
    assert first[:3] == ["4", "0.2", "0.5"]
    assert float(first[3]) == pytest.approx(margin)
    assert float(first[4]) == pytest.approx(0.8 + 2.0 * margin)


def test_adversarial_scan_walks_once_per_grid_point(tmp_path, monkeypatch):
    walks = []
    real = adversarial._pmf_walk

    def counted(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(adversarial, "_pmf_walk", counted)
    cfg = parse_config(
        {
            "kind": "adversarial-scan",
            "out": str(tmp_path),
            "grid": {"n_values": [2**k for k in range(8, 20)]},
            "params": {"eps": 0.1, "margin_rates": [0.5, 1.0, 1.5, 2.0]},
        }
    )
    assert run(cfg).rows == 48
    assert len(walks) == 48


def test_adversarial_scan_reuses_each_walks_first_anchor(tmp_path, monkeypatch):
    calls = []
    real = adversarial._log_pmf

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(adversarial, "_log_pmf", counted)
    cfg = parse_config(
        {
            "kind": "adversarial-scan",
            "out": str(tmp_path),
            "grid": {"n_values": [2**k for k in range(8, 20)]},
            "params": {"eps": 0.1, "margin_rates": [0.5, 1.0, 1.5, 2.0]},
        }
    )
    assert run(cfg).rows == 48
    # five anchors per walk; the one at the walk's start is evaluated once
    assert len(calls) == 240
    assert len(set(calls)) == 240


def test_cli_rejects_a_nan_field_law(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "cov.json",
        {
            "model": {
                "type": "hidden",
                "field": {"initial": [math.nan, 0.5], "kernels": [[[0.5, 0.5], [0.5, 0.5]]]},
                "channel": {"type": "per_site", "rates": [0.05, 0.15]},
            }
        },
    )
    assert main(["covariance", "--config", path, "--out", str(tmp_path)]) == 2
    assert "initial has entries outside" in capsys.readouterr().err
    assert not (tmp_path / "covariance.csv").exists()


@pytest.mark.parametrize(
    "margin",
    [{"margin": 1e308}, {"margin": -1e308}, {"margin_rate": 1e308}],
    ids=["margin", "negative-margin", "margin-rate"],
)
def test_cli_rejects_a_threshold_that_overflows(tmp_path, capsys, margin):
    path = write_config(
        tmp_path,
        "tails.json",
        {
            "model": {"type": "threshold", "n": 4, "eps": 0.2, **margin},
            "params": {"method": "exact", "deltas": [0.2]},
        },
    )
    assert main(["tails", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "threshold n * eps + sqrt(n) * margin must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "tails.csv").exists()


def test_retention_unit_channel_rows(tmp_path):
    cfg = parse_config(
        {
            "kind": "retention",
            "out": str(tmp_path),
            "model": {
                "type": "hidden",
                "field": {"theta": 0.0, "n": 4},
                "channel": {"type": "per_site", "rates": [1.0, 1.0]},
            },
            "code": {"d": 3},
            "budget": {"trials": 16, "max_epochs": 10},
        }
    )
    result = run(cfg)
    lines = Path(result.csv_path).read_text().splitlines()
    assert lines[0] == "trial,failure_epoch,censored"
    assert lines[1:] == [f"{t},1,0" for t in range(16)]
    payload = json.loads(Path(result.summary_path).read_text())
    assert payload["summary"]["mean"] == 1.0
    assert payload["summary"]["censored_count"] == 0


def test_retention_threshold_summary_reports_ceiling(tmp_path):
    cfg = parse_config(
        {
            "kind": "retention",
            "out": str(tmp_path),
            "model": {"type": "threshold", "n": 4, "eps": 0.5, "margin": 0.5},
            "code": {"d": 4, "mode": "full_distance"},
            "budget": {"trials": 200, "max_epochs": 500},
        }
    )
    result = run(cfg)
    payload = json.loads(Path(result.summary_path).read_text())
    assert payload["summary"]["trigger_prob"] == pytest.approx(1.0 / 16.0)
    assert payload["summary"]["retention_upper_bound"] == pytest.approx(16.0)


def strict_json(text):
    """``text`` parsed as JSON, refusing the NaN and Infinity tokens that strict parsers reject."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "model, trials, nulls",
    [
        ({**CHAIN_MODEL, "channel": {"type": "per_site", "rates": [0.0, 0.0]}}, 8, {"mean", "stderr"}),
        ({**CHAIN_MODEL, "channel": {"type": "per_site", "rates": [1.0, 1.0]}}, 1, {"stderr"}),
        ({"type": "threshold", "n": 8, "eps": 0.5, "margin": 10.0}, 8, {"retention_upper_bound"}),
    ],
    ids=["all-censored", "one-failure", "never-triggers"],
)
def test_summary_writes_values_that_are_not_finite_as_null(tmp_path, model, trials, nulls):
    data = {"kind": "retention", "out": str(tmp_path), "model": model, "code": {"d": 3}}
    result = run(parse_config({**data, "budget": {"trials": trials, "max_epochs": 20}}))
    summary = strict_json(Path(result.summary_path).read_text())["summary"]
    assert {key for key, value in summary.items() if value is None} == nulls


def test_tails_run_and_summary(tmp_path):
    cfg = parse_config(
        {
            "kind": "tails",
            "out": str(tmp_path),
            "model": CHAIN_MODEL,
            "params": {"deltas": [0.2, 0.3], "method": "exact", "model_id": "demo"},
        }
    )
    result = run(cfg)
    lines = Path(result.csv_path).read_text().splitlines()
    assert lines[0] == "model_id,n,eps,delta,c,m_n,empirical,ci_lo,ci_hi,bound,verdict"
    assert all(line.startswith("demo,8,") for line in lines[1:])
    payload = json.loads(Path(result.summary_path).read_text())
    assert payload["summary"]["violated"] == 0
    assert payload["summary"]["dominated"] + payload["summary"]["unresolved"] == 2


def test_scaling_run_exact(tmp_path):
    cfg = parse_config(
        {
            "kind": "scaling",
            "out": str(tmp_path),
            "model": {
                "type": "hidden",
                "field": {"theta": 0.0},
                "channel": {"type": "per_site", "rates": [0.05, 0.05]},
            },
            "grid": {"n_values": [8, 12, 16, 20]},
            "params": {"distance_fraction": 0.5},
        }
    )
    result = run(cfg)
    lines = Path(result.csv_path).read_text().splitlines()
    assert lines[0] == "n,b,trials,failures,p_fail,ci_lo,ci_hi"
    assert result.rows == 4
    payload = json.loads(Path(result.summary_path).read_text())
    assert payload["summary"]["status"] in (
        "exponential-lifetime-consistent",
        "not-flagged",
        "inconclusive",
    )
    assert payload["summary"]["slope"] < 0


def test_a_threshold_scaling_run_reads_not_flagged_and_writes_its_order(tmp_path):
    # the benchmark's threshold-scan scaling config: ln p fits ln n, not n
    cfg = parse_config(
        {
            "kind": "scaling",
            "out": str(tmp_path),
            "model": {"type": "threshold", "eps": 0.1, "margin_rate": 1.0},
            "grid": {"n_values": [2**k for k in range(10, 18)]},
            "params": {"method": "exact", "distance_fraction": 0.3},
        }
    )
    summary = json.loads(Path(run(cfg).summary_path).read_text())["summary"]
    assert set(summary) == {"slope", "intercept", "r_squared", "order", "order_r_squared", "status"}
    assert summary["status"] == "not-flagged"
    assert summary["order"] > 0.0
    assert summary["r_squared"] < summary["order_r_squared"]


# SHA-256 of each CSV at seed 0, recorded while exact and sampled tails still
# took separate code paths: a change to the tail path that moves a byte fails here
PINNED_CSVS = {
    "scaling-exact": "3c9a8fc550555ea37a2653d61956f31ddd6788ce3f7bc632913d9d19eef34c02",
    "scaling-mc": "6a56ae3caeecd6b17d3209ac4fddbdbd8814236984175c334d8c89b4611d4069",
    "tails-mc": "d85363284825f4a3b1df39aa21fa8dc629e3d0fa994cd751ef922437ec0799e2",
}


@pytest.mark.parametrize("name", sorted(PINNED_CSVS))
def test_tail_csvs_keep_their_bytes(tmp_path, name):
    kind, method = name.split("-")
    config = {"kind": kind, "out": str(tmp_path), "model": CHAIN_MODEL, "budget": {"trials": 2000}}
    if kind == "scaling":
        config.update(grid={"n_values": [4, 6, 8, 10]}, params={"method": method, "distance_fraction": 0.3})
    else:
        config.update(params={"method": method, "deltas": [0.1, 0.2]})
    csv = Path(run(parse_config(config)).csv_path).read_bytes()
    assert hashlib.sha256(csv).hexdigest() == PINNED_CSVS[name]


def test_verify_all_run_all_dominated(tmp_path):
    cfg = parse_config({"kind": "verify-all", "out": str(tmp_path)})
    result = run(cfg)
    assert result.exit_code == 0
    payload = json.loads(Path(result.summary_path).read_text())
    assert payload["summary"]["violated"] == 0
    assert payload["summary"]["checks"] == result.rows
    assert payload["summary"]["checks"] == sum(
        len(deltas) for _, _, deltas in bundled_verification_suite()
    )


def test_verify_all_exits_4_on_a_violated_bound(tmp_path, monkeypatch, capsys):
    # a ceiling of 0 lies below every positive tail
    monkeypatch.setattr(bounds, "combined_tail_bound", lambda *args: 0.0)
    result = run(parse_config({"kind": "verify-all", "out": str(tmp_path / "run")}))
    assert result.exit_code == 4
    payload = json.loads(Path(result.summary_path).read_text())
    assert payload["exit_code"] == 4 and payload["summary"]["violated"] > 0
    code = main(["verify-all", "--out", str(tmp_path / "cli")])
    assert code == 4
    assert "verify-all detected a violated bound" in capsys.readouterr().err
    lines = (tmp_path / "cli" / "verify-all.csv").read_text().splitlines()
    assert len(lines) == 1 + result.rows
    assert any(line.endswith(",violated") for line in lines[1:])


def test_a_ceiling_inside_the_interval_is_unresolved(tmp_path, monkeypatch):
    config = {"model": CHAIN_MODEL, "params": {"method": "mc", "deltas": [0.05, 0.1]}, "budget": {"trials": 2000}}
    first = run(parse_config({"kind": "tails", "out": str(tmp_path / "first"), **config}))
    rows = [line.split(",") for line in Path(first.csv_path).read_text().splitlines()[1:]]
    # a ceiling at the estimate itself: with 0 < exceedances < trials it lies strictly inside the interval
    estimates = {float(row[3]): float(row[6]) for row in rows}
    assert all(float(row[7]) < float(row[6]) < float(row[8]) for row in rows)
    monkeypatch.setattr(bounds, "combined_tail_bound", lambda eps, delta, n, c, m: estimates[delta])
    path = write_config(tmp_path, "tails.json", config)
    assert main(["tails", "--config", path, "--out", str(tmp_path / "cli")]) == 0
    lines = (tmp_path / "cli" / "tails.csv").read_text().splitlines()
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["unresolved", "unresolved"]
    payload = json.loads((tmp_path / "cli" / "tails.summary.json").read_text())
    assert payload["exit_code"] == 0
    assert {key: payload["summary"][key] for key in ("dominated", "violated", "unresolved")} == {
        "dominated": 0,
        "violated": 0,
        "unresolved": 2,
    }


def test_exact_tails_rows_match_the_suites(tmp_path):
    model_id = "chain-n6-theta0.25"
    tails = parse_config(
        {
            "kind": "tails",
            "out": str(tmp_path / "tails"),
            "model": {
                "type": "hidden",
                "field": {"theta": 0.25, "n": 6},
                "channel": {"type": "per_site", "rates": [0.05, 0.15]},
            },
            "params": {"method": "exact", "model_id": model_id, "deltas": [0.15, 0.25, 0.35]},
        }
    )
    suite = run(parse_config({"kind": "verify-all", "out": str(tmp_path / "suite")}))
    suite_lines = Path(suite.csv_path).read_text().splitlines()
    tails_lines = Path(run(tails).csv_path).read_text().splitlines()
    assert tails_lines[0] == suite_lines[0]
    assert tails_lines[1:] == [line for line in suite_lines if line.startswith(model_id + ",")]
    assert len(tails_lines) == 4


# --- determinism ----------------------------------------------------------------


def read_pair(result):
    csv_bytes = Path(result.csv_path).read_bytes()
    payload = json.loads(Path(result.summary_path).read_text())
    payload.pop("wall_clock_seconds")
    return csv_bytes, payload


def test_verify_all_byte_identical_across_threads(tmp_path):
    runs = []
    for sub, threads in (("a", 1), ("b", 1), ("c", 8)):
        cfg = parse_config({"kind": "verify-all", "out": str(tmp_path / sub)})
        runs.append(read_pair(run(cfg, threads=threads)))
    assert runs[0][0] == runs[1][0] == runs[2][0]
    assert runs[0][1]["summary"] == runs[2][1]["summary"]
    assert runs[0][1]["threads"] == 1 and runs[2][1]["threads"] == 8


@pytest.mark.parametrize("threads", [True, 2.5, "3", 0], ids=repr)
def test_threads_is_checked_as_a_positive_integer(tmp_path, threads):
    cfg = parse_config({"kind": "mixing", "out": str(tmp_path), "model": {"field": {"theta": 0.3}}, "grid": {"n_values": [4]}})
    with pytest.raises(ConfigError, match="threads must be a positive integer"):
        run(cfg, threads=threads)
    assert not (tmp_path / "mixing.csv").exists()
    assert run(cfg, threads=2).exit_code == 0


def test_seeded_tails_byte_identical_across_threads(tmp_path):
    data = {
        "kind": "tails",
        "master_seed": 77,
        "model": CHAIN_MODEL,
        "params": {"deltas": [0.1, 0.2, 0.3]},
        "budget": {"trials": 2000},
    }
    runs = []
    for sub, threads in (("a", 1), ("b", 8)):
        cfg = parse_config({**data, "out": str(tmp_path / sub)})
        runs.append(read_pair(run(cfg, threads=threads)))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1]["seed_tree"] == runs[1][1]["seed_tree"]


def test_seed_changes_seeded_output(tmp_path):
    base = {
        "kind": "tails",
        "model": CHAIN_MODEL,
        "params": {"deltas": [0.25]},
        "budget": {"trials": 2000},
    }
    a = run(parse_config({**base, "master_seed": 1, "out": str(tmp_path / "a")}))
    b = run(parse_config({**base, "master_seed": 2, "out": str(tmp_path / "b")}))
    assert Path(a.csv_path).read_bytes() != Path(b.csv_path).read_bytes()


def _within(seconds, call):
    """``call()`` on a daemon thread, failing rather than hanging past ``seconds``."""
    box = {}

    def target():
        try:
            box["value"] = call()
        except BaseException as exc:
            box["error"] = exc

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"no result within {seconds} s"
    return box


@pytest.mark.parametrize("threads", [2, 8])
@pytest.mark.parametrize("count", [3, 24])
def test_parallel_map_keeps_item_order_and_raises_the_lowest_failure(threads, count):
    # 8 threads outnumber 3 items and, on fewer than 8 cores, the cores
    idents = set()

    def square(i):
        idents.add(threading.get_ident())
        time.sleep(0.001 * ((count - i) % 4))  # later items often finish first
        return i * i

    def fail_late_at_one(i):
        if i == 1:
            time.sleep(0.05)  # item 2 fails first in time
        if i in (1, 2):
            raise ValueError(i)
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        baseline = threading.active_count()
        box = _within(30.0, lambda: harness._parallel_map(square, range(count), threads))
        assert box["value"] == [i * i for i in range(count)]
        assert len(idents) <= min(threads, count)
        assert threading.active_count() == baseline
        box = _within(30.0, lambda: harness._parallel_map(fail_late_at_one, range(count), threads))
        assert isinstance(box["error"], ValueError) and box["error"].args == (1,)
        assert threading.active_count() == baseline
    finally:
        sys.setswitchinterval(interval)


# --- command line ----------------------------------------------------------------


def test_cli_runs_mixing(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "mix.json",
        {"model": {"field": {"theta": 0.3}}, "grid": {"n_values": [4, 6]}},
    )
    code = main(["mixing", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "mixing: 2 rows" in out
    assert (tmp_path / "out" / "mixing.csv").exists()
    assert (tmp_path / "out" / "mixing.summary.json").exists()


def test_cli_verify_all_needs_no_config(tmp_path, capsys):
    code = main(["verify-all", "--out", str(tmp_path)])
    assert code == 0
    assert "verify-all:" in capsys.readouterr().out


def test_cli_config_error_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "bad.json", {"kind": "tails"})  # no model/deltas
    code = main(["tails", "--config", path])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_zero_threads_exit_2(tmp_path, capsys):
    assert main(["verify-all", "--out", str(tmp_path), "--threads", "0"]) == 2
    assert "threads must be a positive integer" in capsys.readouterr().err


def test_cli_kind_mismatch_exit_2(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "mix.json",
        {"kind": "mixing", "model": {"field": {"theta": 0.3}}, "grid": {"n_values": [4]}},
    )
    assert main(["scaling", "--config", path]) == 2


def test_cli_negative_seed_exit_2(tmp_path):
    path = write_config(
        tmp_path,
        "mix.json",
        {"model": {"field": {"theta": 0.3}}, "grid": {"n_values": [4]}},
    )
    assert main(["mixing", "--config", path, "--seed", "-5"]) == 2


def test_cli_seed_at_or_above_2_to_the_64_exit_2(tmp_path):
    # a master seed is a u64: 2**64 + 5 must not quietly run as seed 5
    path = write_config(tmp_path, "mix.json", {"model": {"field": {"theta": 0.3}}, "grid": {"n_values": [4]}})
    for seed, code in ((2**64, 2), (2**64 + 5, 2), (2**64 - 1, 0)):
        assert main(["mixing", "--config", path, "--out", str(tmp_path), "--seed", str(seed)]) == code


def test_seed_tree_holds_only_the_seeds_a_tails_run_draws_from(tmp_path):
    base = {"kind": "tails", "master_seed": 77, "model": CHAIN_MODEL, "budget": {"trials": 1000}}

    def seed_tree(method):
        cfg = parse_config({**base, "out": str(tmp_path / method), "params": {"method": method, "deltas": [0.1, 0.2]}})
        return json.loads(Path(run(cfg).summary_path).read_text())["seed_tree"]

    assert seed_tree("exact") == {"master_seed": 77}
    assert seed_tree("mc") == {
        "master_seed": 77,
        "tails-delta-0": 14306057885688778529,
        "tails-delta-1": 5613265280076203362,
    }


@pytest.mark.parametrize("delta", [math.nan, math.inf])
@pytest.mark.parametrize("method", ["exact", "mc"])
def test_cli_non_finite_delta_exit_2(tmp_path, capsys, method, delta):
    path = write_config(
        tmp_path,
        "tails.json",
        {
            "model": {"type": "threshold", "n": 12, "eps": 0.2, "margin": 1.0},
            "params": {"method": method, "deltas": [0.2, delta]},
            "budget": {"trials": 1000},
        },
    )
    code = main(["tails", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "delta must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "tails.csv").exists()


PER_SITE = {"type": "per_site", "rates": [0.05, 0.15]}
THRESHOLD_MODEL = {"type": "threshold", "n": 8, "eps": 0.1, "margin": 1.0}
SCALING = {
    "model": {"type": "threshold", "eps": 0.1, "margin_rate": 1.0},
    "grid": {"n_values": [8, 16, 32, 64]},
    "params": {"method": "exact", "distance_fraction": 0.3},
}
RETENTION = {"model": CHAIN_MODEL, "code": {"d": 3}, "budget": {"trials": 10, "max_epochs": 5}}


def hidden(field, channel):
    return {"model": {"type": "hidden", "field": field, "channel": channel}}


def tails(model, **params):
    return {"model": model, "params": {"method": "exact", "deltas": [0.2], **params}}


def scan(**params):
    return {"grid": {"n_values": [8]}, "params": {"eps": 0.1, "margin_rates": [1.0], **params}}


def set_in(config, block, **values):
    return {**config, block: {**config[block], **values}}


@pytest.mark.parametrize(
    "kind, config",
    [("tails", tails(CHAIN_MODEL)), ("scaling", SCALING), ("covariance", {"model": CHAIN_MODEL})],
)
def test_params_method_is_checked_when_the_config_is_built(kind, config):
    cfg = parse_config({"kind": kind, **config})
    message = f"{kind} params.method must be 'exact' or 'mc'"
    with pytest.raises(ConfigError, match=message):
        parse_config({"kind": kind, **config, "params": {**cfg.params, "method": "warp"}})
    with pytest.raises(ConfigError, match=message):
        replace(cfg, params={**cfg.params, "method": "warp"})


@pytest.mark.parametrize(
    "kind, config, name",
    [
        ("tails", tails(CHAIN_MODEL, deltas=0.2), "params.deltas"),
        ("tails", tails(CHAIN_MODEL, deltas=["x"]), "params.deltas[0]"),
        ("tails", tails(CHAIN_MODEL, model_id=[1]), "params.model_id"),
        ("tails", tails({**THRESHOLD_MODEL, "eps": [0.1]}), "model.eps"),
        ("tails", tails({**THRESHOLD_MODEL, "n": 8.5}), "model.n"),
        ("adversarial-scan", scan(margin_rates=1.0), "params.margin_rates"),
        ("adversarial-scan", scan(eps=[0.1]), "params.eps"),
        ("scaling", set_in(SCALING, "grid", n_values=[8, 16, "x", 64]), "grid.n_values[2]"),
        ("scaling", set_in(SCALING, "grid", n_values=[8.7, 16]), "grid.n_values[0]"),
        ("scaling", set_in(SCALING, "params", distance_fraction="x"), "params.distance_fraction"),
        ("covariance", hidden({"theta": "x", "n": 8}, PER_SITE), "field.theta"),
        (
            "covariance",
            hidden({"theta": 0.5, "n": 8}, {"type": "global_threshold", "threshold": "x"}),
            "channel.threshold",
        ),
        (
            "covariance",
            hidden({"initial": [0.5, 0.5], "kernels": [[[0.5, 0.5], [0.5]]]}, PER_SITE),
            "field.kernels",
        ),
        (
            "covariance",
            hidden({"theta": 0.5, "n": 4}, {"type": "window", "radius": 0.5, "table": [[0.1, 0.2]] * 4}),
            "channel.radius",
        ),
        ("retention", set_in(RETENTION, "code", d=3.9), "code.d"),
        ("retention", set_in(RETENTION, "budget", max_epochs=True), "budget.max_epochs"),
    ],
)
def test_cli_config_value_of_the_wrong_type_exit_2(tmp_path, capsys, kind, config, name):
    path = write_config(tmp_path, "config.json", config)
    assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {name} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, config, message",
    [
        ("mixing", {"model": {"field": {"theta": 1.5, "n": 4}}}, "theta must lie in [0, 1]"),
        ("mixing", {"model": {"field": {"n": 4}}}, "field block must contain either 'kernels' or 'theta'"),
        (
            "covariance",
            hidden({"theta": 0.5, "n": 4}, {"type": "bogus"}),
            "channel type must be one of 'per_site', 'window', 'global_threshold'",
        ),
        ("covariance", {"model": {"type": "bogus"}}, "model type must be 'hidden' or 'threshold'"),
        ("scaling", set_in(SCALING, "params", distance_fraction=1.5), "scaling params.distance_fraction must lie in (0, 1]"),
        (
            "mixing",
            {"model": {"field": {"initial": [0.5, 0.5], "kernels": [[[0.5, 0.5], [0.5, 0.5]]] * 2}}, "grid": {"n_values": [5]}},
            "field has n=3 but 5 was requested",
        ),
        ("covariance", hidden({"theta": 0.5, "n": 4}, {"type": "per_site", "rates": [0.1, 0.2, 0.3]}), "per_site rates must list 2 values"),
    ],
    ids=["theta", "field-block", "channel-type", "model-type", "distance-fraction", "kernels-against-grid", "rates-length"],
)
def test_config_values_out_of_range_are_config_errors(tmp_path, capsys, kind, config, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run(parse_config({"kind": kind, "out": str(tmp_path / "run"), **config}))
    path = write_config(tmp_path, "config.json", config)
    assert main([kind, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", [None, 5, {}], ids=repr)
def test_an_out_that_is_not_a_string_exit_2(tmp_path, monkeypatch, capsys, out):
    # run from an empty directory, where a str() of the value would have been made
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, "config.json", {"kind": "verify-all", "out": out})
    assert main(["verify-all", "--config", path]) == 2
    assert "config error: config field 'out' must be a string" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    with pytest.raises(ConfigError, match="config field 'out' must be a string"):
        replace(parse_config({"kind": "verify-all"}), out=out)


@pytest.mark.parametrize("kind", ["tails", "scaling", "covariance"])
def test_a_monte_carlo_budget_below_the_floor_exit_2_before_any_model_quantity(tmp_path, monkeypatch, capsys, kind):
    ran = []
    for name in ("mean_rate", "lipschitz", "mixing_bound"):
        original = getattr(HiddenErrorModel, name)
        monkeypatch.setattr(HiddenErrorModel, name, lambda self, _f=original, _n=name: ran.append(_n) or _f(self))
    configs = {"tails": tails(CHAIN_MODEL), "scaling": {**SCALING, "model": CHAIN_MODEL}, "covariance": {"model": CHAIN_MODEL, "params": {}}}
    config = {**configs[kind], "budget": {"trials": 5}}
    path = write_config(tmp_path, "mc.json", set_in(config, "params", method="mc"))
    assert main([kind, "--config", path, "--out", str(tmp_path / "mc")]) == 2
    assert "config error: budget.trials must be an integer >= 1000" in capsys.readouterr().err
    assert ran == [] and not (tmp_path / "mc").exists()
    # an exact run takes the same budget, and reads none: not even trials 0
    for trials in (5, 0):
        path = write_config(tmp_path, f"exact-{trials}.json", {**config, "budget": {"trials": trials}})
        assert main([kind, "--config", path, "--out", str(tmp_path / f"exact-{trials}")]) == 0


@pytest.mark.parametrize(
    "kind, config, key, message",
    [
        ("tails", {**tails(CHAIN_MODEL, method="mc"), "budget": {"trials": 1000}}, "deltas", "delta must be positive and finite"),
        ("adversarial-scan", scan(), "margin_rates", "margin_rate must be positive"),
    ],
    ids=["tails-delta", "adversarial-scan-margin-rate"],
)
def test_a_bad_last_list_entry_exit_2_before_any_model_quantity(tmp_path, monkeypatch, capsys, kind, config, key, message):
    ran = []
    for name in ("mean_rate", "lipschitz", "mixing_bound"):
        original = getattr(HiddenErrorModel, name)
        monkeypatch.setattr(HiddenErrorModel, name, lambda self, _f=original, _n=name: ran.append(_n) or _f(self))
    counted, moments = bounds.count_exceedances, adversarial.ThresholdModelSpec.moments
    monkeypatch.setattr(bounds, "count_exceedances", lambda *args: ran.append("count_exceedances") or counted(*args))
    monkeypatch.setattr(adversarial.ThresholdModelSpec, "moments", lambda self: ran.append("moments") or moments(self))
    path = write_config(tmp_path, "bad.json", set_in(config, "params", **{key: [*config["params"][key], -0.1]}))
    assert main([kind, "--config", path, "--out", str(tmp_path / "bad")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert ran == [] and not (tmp_path / "bad").exists()
    # the wrappers do record a run that gets that far
    path = write_config(tmp_path, "good.json", config)
    assert main([kind, "--config", path, "--out", str(tmp_path / "good")]) == 0
    assert ran


def test_config_root_must_be_an_object():
    with pytest.raises(ConfigError, match="^config root must be a JSON object$"):
        parse_config([{"kind": "mixing"}])


def test_mixing_without_a_grid_reads_the_blocks_own_size(tmp_path):
    # m = 1 + 0.25 + 0.25**2 + 0.25**3 + 0.25**4 over the four bonds
    result = run(parse_config({"kind": "mixing", "out": str(tmp_path), "model": {"field": {"theta": 0.25, "n": 5}}}))
    assert Path(result.csv_path).read_text() == "n,theta_max,m_bound\n5,0.25,1.33203125\n"
    assert json.loads(Path(result.summary_path).read_text())["summary"]["sizes"] == [5]


def test_a_per_site_table_reads_as_its_rates_tiled(tmp_path):
    def covariance_csv(channel, out):
        return Path(run(parse_config({"kind": "covariance", "out": str(tmp_path / out), **hidden({"theta": 0.5, "n": 4}, channel)})).csv_path).read_bytes()

    tiled = covariance_csv({"type": "per_site", "table": [[0.05, 0.15]] * 4}, "table")
    assert tiled == covariance_csv(PER_SITE, "rates")
    skewed = covariance_csv({"type": "per_site", "table": [[0.05, 0.15]] * 3 + [[0.5, 0.5]]}, "skewed")
    # the last site's rate no longer depends on its symbol, so it covaries with nothing
    assert skewed.decode().splitlines()[-1] == "3,3,0.25,0.0"


def test_summary_numpy_scalars_are_written_as_python_values():
    plain = harness._plain({"a": np.float64(0.5), "b": [np.int64(3), np.bool_(True)], "c": np.float32(np.inf)})
    assert plain == {"a": 0.5, "b": [3, True], "c": None}
    assert [type(v) for v in (plain["a"], *plain["b"])] == [float, int, bool]


# SHA-256 of the Monte Carlo covariance CSV of CHAIN_MODEL at seed 0 and 2000
# trials, recorded before the test existed: a change that moves a byte fails here
MC_COVARIANCE_CSV = "515c17609bbd10dafa1537403ba69500d9677293c5428c121dc929fe52f8abac"


def test_mc_covariance_run_is_the_same_on_any_thread_count(tmp_path):
    config = {"kind": "covariance", "model": CHAIN_MODEL, "params": {"method": "mc"}, "budget": {"trials": 2000}}
    runs = []
    for threads in (1, 2):
        csv_bytes, payload = read_pair(run(parse_config({**config, "out": str(tmp_path / str(threads))}), threads=threads))
        # the summary records where it was written and on how many threads, and nothing else differs
        assert (payload["config"].pop("out"), payload.pop("threads")) == (str(tmp_path / str(threads)), threads)
        runs.append((csv_bytes, payload))
    assert runs[0] == runs[1]
    csv_bytes, payload = runs[0]
    assert hashlib.sha256(csv_bytes).hexdigest() == MC_COVARIANCE_CSV
    assert len(csv_bytes.decode().splitlines()) == 1 + 8 * 9 // 2
    assert set(payload["seed_tree"]) == {"master_seed", "covariance"}
    assert payload["summary"] == {"method": "mc", "trials": 2000}


def test_cli_resource_limit_exit_3(tmp_path, capsys):
    n, s, r = 13, 3, 3
    path = write_config(
        tmp_path,
        "tails.json",
        {
            "kind": "tails",
            "model": {
                "type": "hidden",
                "field": {
                    "initial": [1.0 / s] * s,
                    "kernels": np.full((n - 1, s, s), 1.0 / s).tolist(),
                },
                "channel": {
                    "type": "window",
                    "radius": r,
                    "table": np.full((n, s ** (2 * r + 1)), 0.1).tolist(),
                },
            },
            "params": {"method": "exact", "deltas": [0.2]},
        },
    )
    # the Lipschitz constant of a window read-out enumerates each flip's
    # neighbourhood: 3**13 configurations, past the limit
    code = main(["tails", "--config", path, "--out", str(tmp_path)])
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


def test_cli_exact_threshold_covariance_past_the_enumeration_limit(tmp_path):
    path = write_config(
        tmp_path,
        "cov.json",
        {
            "model": {
                "type": "hidden",
                "field": {"theta": 0.5, "n": 25},
                "channel": {"type": "global_threshold", "threshold": 12.0},
            }
        },
    )
    # 2**25 latent states, none of them enumerated
    assert main(["covariance", "--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "covariance.csv").read_text().splitlines()
    assert len(lines) == 1 + 325


OVERSIZED_THRESHOLD = {"type": "threshold", "n": 2**19, "eps": 0.1, "margin": 3.0}
JUST_TOO_LARGE_CHAIN = {**CHAIN_MODEL, "field": {"theta": 0.5, "n": harness._COVARIANCE_SITE_LIMIT + 1}}
JUST_TOO_LARGE_THRESHOLD = {**OVERSIZED_THRESHOLD, "n": harness._COVARIANCE_SITE_LIMIT + 1}


@pytest.mark.parametrize(
    "model, method",
    [
        (OVERSIZED_THRESHOLD, "exact"),
        (OVERSIZED_THRESHOLD, "mc"),
        (JUST_TOO_LARGE_CHAIN, "exact"),
        (JUST_TOO_LARGE_THRESHOLD, "mc"),
    ],
    ids=["threshold-exact", "threshold-mc", "chain-exact", "threshold-mc-just-too-large"],
)
def test_cli_oversized_covariance_exit_3_before_allocating(tmp_path, capsys, model, method):
    # an (n, n) array at n = 2**19 would take 2 TiB
    path = write_config(tmp_path, "cov.json", {"model": model, "params": {"method": method}})
    tracemalloc.start()
    try:
        code = main(["covariance", "--config", path, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "resource limit: covariance over n=" in capsys.readouterr().err
    assert peak < 2**20
    assert not (tmp_path / "out").exists()


def test_cli_seed_override_matches_config_seed(tmp_path):
    body = {
        "model": CHAIN_MODEL,
        "params": {"deltas": [0.2]},
        "budget": {"trials": 2000},
    }
    via_file = write_config(tmp_path, "seeded.json", {**body, "master_seed": 9})
    plain = write_config(tmp_path, "plain.json", body)
    assert main(["tails", "--config", via_file, "--out", str(tmp_path / "a")]) == 0
    assert main(["tails", "--config", plain, "--seed", "9", "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "tails.csv").read_bytes()
    b = (tmp_path / "b" / "tails.csv").read_bytes()
    assert a == b
