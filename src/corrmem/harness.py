"""Experiment orchestration: configs in, CSV data plus JSON summaries out.

A run is described by a single JSON config with one top-level experiment
kind.  Sweeps are explicit lists (never implicit ranges), so a config file
is a complete, diff-able record of the experiment.  Every run writes

* ``<kind>.csv`` — the data table, LF line endings, ``.`` decimal point,
  shortest round-trip float formatting; identical config and seed produce a
  byte-identical file, independent of the worker count;
* ``<kind>.summary.json`` — the echoed config, the resolved seed tree,
  the library version, wall-clock time, and kind-specific aggregates.

Grid points are dispatched to a thread pool when ``threads > 1``; results
are collected in submission order, so parallelism never changes output.
"""

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .adversarial import (
    ThresholdModelSpec,
    as_hidden_model,
    exact_covariance,
    trigger_probability,
)
from .bounds import verify_bound
from .channel import (
    GlobalThresholdChannel,
    HiddenErrorModel,
    PerSiteChannel,
    WindowChannel,
    covariance_matrix,
)
from .errors import ValidationError
from .field import MarkovFieldSpec, mixing_coefficients, mixing_bound
from .memory import CodeModel, scaling_experiment, simulate_retention
from .rng import derive_seed

__all__ = [
    "KINDS",
    "ConfigError",
    "ExperimentConfig",
    "RunResult",
    "bundled_verification_suite",
    "load_config",
    "run",
    "symmetric_binary_field",
]

KINDS = (
    "mixing",
    "covariance",
    "adversarial-scan",
    "retention",
    "tails",
    "scaling",
    "verify-all",
)


class ConfigError(ValidationError):
    """A config file is malformed or missing a required field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description.

    ``model``, ``code``, ``grid``, ``budget``, and ``params`` hold the raw
    config blocks; which ones must be present depends on ``kind``.
    """

    kind: str
    master_seed: int = 0
    out: str = "."
    model: dict | None = None
    code: dict | None = None
    grid: dict = field(default_factory=dict)
    budget: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "master_seed": self.master_seed,
            "out": self.out,
            "model": self.model,
            "code": self.code,
            "grid": self.grid,
            "budget": self.budget,
            "params": self.params,
        }


@dataclass(frozen=True)
class RunResult:
    """Where a run wrote its outputs and how it ended."""

    exit_code: int
    csv_path: str
    summary_path: str
    rows: int


def load_config(path, kind: str | None = None) -> ExperimentConfig:
    """Read and validate a JSON config file.

    ``kind`` (e.g. from the command line) must agree with any ``kind`` key
    inside the file; supplying it on one side only is fine.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return parse_config(data, kind)


def parse_config(data: dict, kind: str | None = None) -> ExperimentConfig:
    """Validate a decoded config dict; see :func:`load_config`."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    file_kind = data.get("kind")
    if file_kind is None and kind is None:
        raise ConfigError("experiment kind missing (no 'kind' field and none given)")
    if file_kind is not None and kind is not None and file_kind != kind:
        raise ConfigError(f"config kind {file_kind!r} does not match requested {kind!r}")
    resolved = kind if kind is not None else file_kind
    if resolved not in KINDS:
        raise ConfigError(f"unknown experiment kind {resolved!r}; expected one of {KINDS}")
    known = {"kind", "master_seed", "out", "model", "code", "grid", "budget", "params"}
    extra = set(data) - known
    if extra:
        raise ConfigError(f"unknown config field(s): {sorted(extra)}")
    seed = data.get("master_seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("master_seed must be a non-negative integer")
    for block in ("model", "code", "grid", "budget", "params"):
        if block in data and not isinstance(data[block], dict):
            raise ConfigError(f"config field {block!r} must be an object")
    cfg = ExperimentConfig(
        kind=resolved,
        master_seed=seed,
        out=str(data.get("out", ".")),
        model=data.get("model"),
        code=data.get("code"),
        grid=dict(data.get("grid", {})),
        budget=dict(data.get("budget", {})),
        params=dict(data.get("params", {})),
    )
    _validate_kind_blocks(cfg)
    return cfg


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _validate_kind_blocks(cfg: ExperimentConfig) -> None:
    kind = cfg.kind
    if kind in ("covariance", "retention", "tails"):
        _require(cfg.model is not None, f"kind {kind!r} requires a 'model' block")
    if kind == "mixing":
        _require(cfg.model is not None, "kind 'mixing' requires a 'model' block")
        _require("field" in (cfg.model or {}), "mixing model block must contain 'field'")
    if kind == "retention":
        _require(cfg.code is not None, "kind 'retention' requires a 'code' block")
        _require("trials" in cfg.budget, "retention budget must set 'trials'")
        _require("max_epochs" in cfg.budget, "retention budget must set 'max_epochs'")
    if kind == "adversarial-scan":
        _require("n_values" in cfg.grid, "adversarial-scan grid must set 'n_values'")
        _require("eps" in cfg.params, "adversarial-scan params must set 'eps'")
        _require(
            "margin_rates" in cfg.params,
            "adversarial-scan params must set 'margin_rates'",
        )
    if kind == "tails":
        _require("deltas" in cfg.params, "tails params must set 'deltas'")
    if kind == "scaling":
        _require(cfg.model is not None, "kind 'scaling' requires a 'model' block")
        _require("n_values" in cfg.grid, "scaling grid must set 'n_values'")
        _require(
            "distance_fraction" in cfg.params,
            "scaling params must set 'distance_fraction'",
        )
    for key in ("n_values",):
        if key in cfg.grid:
            values = cfg.grid[key]
            _require(
                isinstance(values, list) and len(values) > 0,
                f"grid.{key} must be a non-empty list",
            )
    for key in ("trials", "max_epochs"):
        if key in cfg.budget:
            _require(
                isinstance(cfg.budget[key], int) and cfg.budget[key] >= 1,
                f"budget.{key} must be a positive integer",
            )


# ---------------------------------------------------------------------------
# model construction from config blocks


def symmetric_binary_field(n: int, theta: float) -> MarkovFieldSpec:
    """Homogeneous binary chain with uniform start and stickiness ``theta``.

    Every kernel keeps the current symbol with probability ``(1 + theta)/2``,
    so its mixing coefficient is exactly ``theta``.
    """
    if not 0.0 <= theta <= 1.0:
        raise ConfigError("theta must lie in [0, 1]")
    keep = (1.0 + theta) / 2.0
    kernel = np.array([[keep, 1.0 - keep], [1.0 - keep, keep]])
    return MarkovFieldSpec(
        n=int(n),
        alphabet_size=2,
        initial=np.array([0.5, 0.5]),
        kernels=np.tile(kernel, (max(n - 1, 0), 1, 1)).reshape(n - 1, 2, 2),
    )


def _build_field(block: dict, n: int | None = None) -> MarkovFieldSpec:
    if "kernels" in block:
        _require("initial" in block, "explicit field block must contain 'initial'")
        initial = np.asarray(block["initial"], dtype=float)
        kernels = np.asarray(block["kernels"], dtype=float)
        spec = MarkovFieldSpec(
            n=len(kernels) + 1,
            alphabet_size=initial.shape[0] if initial.ndim == 1 else 0,
            initial=initial,
            kernels=kernels,
        )
        if n is not None and spec.n != n:
            raise ConfigError(f"field has n={spec.n} but {n} was requested")
        return spec
    if "theta" in block:
        size = block.get("n", n)
        _require(size is not None, "homogeneous field block needs 'n' (or a grid)")
        return symmetric_binary_field(int(size), float(block["theta"]))
    raise ConfigError("field block must contain either 'kernels' or 'theta'")


def _build_channel(block: dict, n: int, alphabet_size: int):
    kind = block.get("type")
    if kind == "per_site":
        if "table" in block:
            return PerSiteChannel(table=np.asarray(block["table"], dtype=float))
        _require("rates" in block, "per_site channel needs 'table' or 'rates'")
        rates = np.asarray(block["rates"], dtype=float)
        if rates.shape != (alphabet_size,):
            raise ConfigError(f"per_site rates must list {alphabet_size} values")
        return PerSiteChannel(table=np.tile(rates, (n, 1)))
    if kind == "window":
        _require("table" in block, "window channel needs 'table'")
        return WindowChannel(
            radius=int(block.get("radius", 1)),
            table=np.asarray(block["table"], dtype=float),
        )
    if kind == "global_threshold":
        _require("threshold" in block, "global_threshold channel needs 'threshold'")
        return GlobalThresholdChannel(threshold=float(block["threshold"]))
    raise ConfigError(
        "channel type must be one of 'per_site', 'window', 'global_threshold'"
    )


def _build_model(block: dict, n: int | None = None):
    """Build a hidden or threshold model from a config block.

    ``n`` overrides the block's own size, which lets one block act as a
    family template across a grid of sizes.
    """
    kind = block.get("type", "hidden")
    if kind == "threshold":
        size = int(block.get("n", n) or 0)
        _require(size >= 1, "threshold model needs 'n' (or a grid)")
        _require("eps" in block, "threshold model needs 'eps'")
        margin = block.get("margin")
        rate = block.get("margin_rate")
        return ThresholdModelSpec(
            n=size,
            eps=float(block["eps"]),
            margin=None if margin is None else float(margin),
            margin_rate=None if rate is None else float(rate),
        )
    if kind == "hidden":
        _require("field" in block, "hidden model needs a 'field' block")
        _require("channel" in block, "hidden model needs a 'channel' block")
        spec = _build_field(block["field"], n)
        channel = _build_channel(block["channel"], spec.n, spec.alphabet_size)
        return HiddenErrorModel(field=spec, channel=channel)
    raise ConfigError("model type must be 'hidden' or 'threshold'")


def _build_code(block: dict, n: int) -> CodeModel:
    _require("d" in block, "code block must set 'd'")
    return CodeModel(
        n=n,
        k=int(block.get("k", 1)),
        d=int(block["d"]),
        mode=block.get("mode", "half_distance"),
    )


# ---------------------------------------------------------------------------
# output formatting


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _parallel_map(fn, items, threads: int) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# experiment kinds


def _run_mixing(cfg, seed_tree, threads):
    block = cfg.model["field"]
    sizes = cfg.grid.get("n_values")
    if sizes is None:
        specs = [_build_field(block)]
    else:
        specs = [_build_field(block, int(n)) for n in sizes]

    def one(spec):
        theta = mixing_coefficients(spec)
        return (
            spec.n,
            float(theta.max(initial=0.0)),
            mixing_bound(theta),
        )

    rows = _parallel_map(one, specs, threads)
    summary = {
        "m_bound_max": max(r[2] for r in rows),
        "sizes": [r[0] for r in rows],
    }
    return ["n", "theta_max", "m_bound"], rows, summary, 0


def _run_covariance(cfg, seed_tree, threads):
    model = _build_model(cfg.model)
    method = cfg.params.get("method", "exact")
    if method not in ("exact", "mc"):
        raise ConfigError("covariance params.method must be 'exact' or 'mc'")
    if method == "exact":
        cov = model.covariance()
        err = np.zeros_like(cov)
        trials = None
    else:
        if isinstance(model, ThresholdModelSpec):
            # sampled through its hidden-model embedding
            model = as_hidden_model(model)
        seed = derive_seed(cfg.master_seed, "covariance")
        seed_tree["covariance"] = seed
        trials = int(cfg.budget.get("trials", 100_000))
        est = covariance_matrix(model, mode="mc", trials=trials, seed=seed)
        cov, err = est.values, est.stderr
    rows = [
        (i, j, float(cov[i, j]), float(err[i, j]))
        for i in range(model.n)
        for j in range(i, model.n)
    ]
    summary = {"method": method, "trials": trials}
    return ["i", "j", "cov", "stderr"], rows, summary, 0


def _run_adversarial_scan(cfg, seed_tree, threads):
    eps = float(cfg.params["eps"])
    rates = [float(a) for a in cfg.params["margin_rates"]]
    sizes = [int(n) for n in cfg.grid["n_values"]]

    def one(point):
        n, a = point
        spec = ThresholdModelSpec(n=n, eps=eps, margin_rate=a)
        p = trigger_probability(spec)
        return (
            n,
            eps,
            a,
            spec.resolved_margin,
            spec.threshold,
            p,
            exact_covariance(spec) if n >= 2 else 0.0,
            math.inf if p == 0.0 else 1.0 / p,
        )

    points = [(n, a) for n in sizes for a in rates]
    rows = _parallel_map(one, points, threads)
    header = ["n", "eps", "a", "C_n", "B_n", "P_A", "cov12", "retention_bound"]
    summary = {"points": len(rows)}
    return header, rows, summary, 0


def _run_retention(cfg, seed_tree, threads):
    model = _build_model(cfg.model)
    size = model.n
    code = _build_code(cfg.code, size)
    trials = int(cfg.budget["trials"])
    max_epochs = int(cfg.budget["max_epochs"])
    seed = derive_seed(cfg.master_seed, "retention")
    seed_tree["retention"] = seed
    seed_tree["retention-trial"] = {"base": seed, "label": "retention-trial", "count": trials}
    est = simulate_retention(model, code, max_epochs=max_epochs, trials=trials, seed=seed)
    rows = []
    for t in range(trials):
        censored = bool(est.censored[t])
        epoch = max_epochs if censored else int(est.failure_epochs[t])
        rows.append((t, epoch, censored))
    summary = {
        "mean": est.mean,
        "stderr": est.stderr,
        "censored_count": est.censored_count,
        "trials": est.trials,
    }
    if isinstance(model, ThresholdModelSpec):
        p = trigger_probability(model)
        summary["trigger_prob"] = p
        summary["retention_upper_bound"] = math.inf if p == 0.0 else 1.0 / p
    return ["trial", "failure_epoch", "censored"], rows, summary, 0


def _tail_row(model_id: str, report) -> tuple:
    return (
        model_id,
        report.n,
        report.eps,
        report.delta,
        report.c,
        report.m,
        report.estimate,
        report.ci_lo,
        report.ci_hi,
        report.bound,
        report.verdict,
    )


_TAILS_HEADER = [
    "model_id",
    "n",
    "eps",
    "delta",
    "c",
    "m_n",
    "empirical",
    "ci_lo",
    "ci_hi",
    "bound",
    "verdict",
]


def _run_tails(cfg, seed_tree, threads):
    model = _build_model(cfg.model)
    deltas = [float(d) for d in cfg.params["deltas"]]
    method = cfg.params.get("method", "mc")
    trials = int(cfg.budget.get("trials", 20_000))
    model_id = str(cfg.params.get("model_id", "model-0"))

    seeds = [derive_seed(cfg.master_seed, "tails-delta", idx) for idx in range(len(deltas))]
    seed_tree.update({f"tails-delta-{idx}": seed for idx, seed in enumerate(seeds)})
    eps, c, m = model.mean_rate(), model.lipschitz(), model.mixing_bound()

    def one(item):
        delta, seed = item
        return verify_bound(model, delta, eps, c, m, trials=trials, seed=seed, method=method)

    reports = _parallel_map(one, list(zip(deltas, seeds)), threads)
    rows = [_tail_row(model_id, r) for r in reports]
    verdicts = [r.verdict for r in reports]
    summary = {
        "method": method,
        "dominated": verdicts.count("dominated"),
        "violated": verdicts.count("violated"),
        "unresolved": verdicts.count("unresolved"),
        "vacuous": sum(r.vacuous for r in reports),
    }
    return _TAILS_HEADER, rows, summary, 0


def _run_scaling(cfg, seed_tree, threads):
    sizes = [int(n) for n in cfg.grid["n_values"]]
    fraction = float(cfg.params["distance_fraction"])
    if not 0.0 < fraction <= 1.0:
        raise ConfigError("scaling params.distance_fraction must lie in (0, 1]")
    mode = cfg.params.get("method", "exact")
    code_block = dict(cfg.code or {})
    points = []
    for n in sizes:
        model = _build_model(cfg.model, n)
        code_block["d"] = max(1, math.ceil(fraction * n))
        points.append((model, _build_code(code_block, n)))
    trials = cfg.budget.get("trials")
    seed = None
    if mode == "mc":
        trials = int(trials or 100_000)
        seed = derive_seed(cfg.master_seed, "scaling")
        seed_tree["scaling"] = seed
        seed_tree["scaling-point"] = {"base": seed, "label": "scaling-point", "count": len(points)}
    result = scaling_experiment(points, mode=mode, trials=trials, seed=seed)
    rows = []
    for point in result.points:
        exact = point.trials is None
        rows.append(
            (
                point.n,
                fraction,
                0 if exact else point.trials,
                0 if exact else point.failures,
                point.p_fail,
                point.p_fail if exact else point.ci_lo,
                point.p_fail if exact else point.ci_hi,
            )
        )
    summary = {
        "slope": result.slope,
        "intercept": result.intercept,
        "r_squared": result.r_squared,
        "status": result.status,
    }
    header = ["n", "b", "trials", "failures", "p_fail", "ci_lo", "ci_hi"]
    return header, rows, summary, 0


def bundled_verification_suite() -> list:
    """The fixed small-model suite behind ``verify-all``.

    Returns ``(model_id, model, deltas)`` triples: binary chains over a
    stickiness grid with a two-rate per-site channel, plus two threshold
    specs.  Everything is small enough for exact tails, so a run of the
    suite is fully deterministic.
    """
    entries = []
    deltas = [0.15, 0.25, 0.35]
    for n in (6, 8):
        for theta in (0.0, 0.25, 0.5, 0.75):
            model = HiddenErrorModel(
                field=symmetric_binary_field(n, theta),
                channel=PerSiteChannel(table=np.tile([0.05, 0.15], (n, 1))),
            )
            entries.append((f"chain-n{n}-theta{theta}", model, deltas))
    entries.append(
        ("threshold-n12-margin1", ThresholdModelSpec(n=12, eps=0.2, margin=1.0), deltas)
    )
    entries.append(
        ("threshold-n12-rate1.5", ThresholdModelSpec(n=12, eps=0.2, margin_rate=1.5), deltas)
    )
    return entries


def _run_verify_all(cfg, seed_tree, threads):
    suite = bundled_verification_suite()
    jobs = []
    for model_id, model, deltas in suite:
        inputs = (model.mean_rate(), model.lipschitz(), model.mixing_bound())
        jobs += [(model_id, model, delta, inputs) for delta in deltas]

    def one(job):
        model_id, model, delta, (eps, c, m) = job
        return model_id, verify_bound(model, delta, eps, c, m, method="exact")

    results = _parallel_map(one, jobs, threads)
    rows = [_tail_row(model_id, report) for model_id, report in results]
    verdicts = [report.verdict for _, report in results]
    violated = verdicts.count("violated")
    summary = {
        "models": len(suite),
        "checks": len(rows),
        "dominated": verdicts.count("dominated"),
        "violated": violated,
        "unresolved": verdicts.count("unresolved"),
    }
    return _TAILS_HEADER, rows, summary, 4 if violated else 0


_RUNNERS = {
    "mixing": _run_mixing,
    "covariance": _run_covariance,
    "adversarial-scan": _run_adversarial_scan,
    "retention": _run_retention,
    "tails": _run_tails,
    "scaling": _run_scaling,
    "verify-all": _run_verify_all,
}


def run(cfg: ExperimentConfig, threads: int = 1) -> RunResult:
    """Execute one experiment; write ``<kind>.csv`` and ``<kind>.summary.json``.

    Returns the exit status the command line should report: 0 on success,
    4 when ``verify-all`` finds a violated bound.  Validation and resource
    errors propagate as exceptions for the caller to map to exit codes.
    """
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    started = time.monotonic()
    seed_tree: dict = {"master_seed": cfg.master_seed}
    header, rows, summary, exit_code = _RUNNERS[cfg.kind](cfg, seed_tree, threads)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{cfg.kind}.csv"
    summary_path = out_dir / f"{cfg.kind}.summary.json"
    _write_csv(csv_path, header, rows)
    payload = {
        "kind": cfg.kind,
        "version": __version__,
        "config": cfg.as_dict(),
        "threads": threads,
        "seed_tree": seed_tree,
        "rows": len(rows),
        "csv": csv_path.name,
        "exit_code": exit_code,
        "wall_clock_seconds": time.monotonic() - started,
        "summary": summary,
    }
    with open(summary_path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_json_default, sort_keys=True)
        fh.write("\n")
    return RunResult(
        exit_code=exit_code,
        csv_path=str(csv_path),
        summary_path=str(summary_path),
        rows=len(rows),
    )
