"""Experiment orchestration: configs in, CSV data plus JSON summaries out.

A run is described by a single JSON config with one top-level experiment
kind.  Sweeps are explicit lists (never implicit ranges), so a config file
is a complete, diff-able record of the experiment.  Every run writes

* ``<kind>.csv`` — the data table, LF line endings, ``.`` decimal point,
  shortest round-trip float formatting; identical config and seed produce a
  byte-identical file, independent of the worker count;
* ``<kind>.summary.json`` — the echoed config, the resolved seed tree,
  the library version, wall-clock time, and kind-specific aggregates.

Grid points are shared out among worker threads when ``threads > 1``;
results are collected in grid order, so parallelism never changes output.
"""

import csv
import json
import math
import numbers
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .adversarial import ThresholdModelSpec, _tail_and_covariance, trigger_probability
from .bounds import verify_bound
from .channel import (
    GlobalThresholdChannel,
    HiddenErrorModel,
    PerSiteChannel,
    WindowChannel,
    covariance_matrix,
)
from .errors import ResourceLimitError, ValidationError
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

    def __post_init__(self):
        # seeds are u64: a larger one would quietly run as itself mod 2**64
        _require(0 <= self.master_seed < 1 << 64, "master_seed must lie in [0, 2**64)")


class RunResult(NamedTuple):
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
    seed = _integer(data.get("master_seed", 0), "master_seed")
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


# Typed readers for config values, each naming the value it rejects.  A
# bool is never a number, and an integer may be written 8 or 8.0, not 8.5.


def _number(value, name: str) -> float:
    """A number as a float."""
    _require(isinstance(value, numbers.Real) and not isinstance(value, bool), f"{name} must be a number")
    return float(value)


def _integer(value, name: str, least: int | None = None) -> int:
    """An integer or an integral float as an int, at least ``least`` if given."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    valid = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not valid or (least is not None and value < least):
        bound = {None: "an", 0: "a non-negative", 1: "a positive"}[least]
        raise ConfigError(f"{name} must be {bound} integer")
    return int(value)


def _list_of(read, value, name: str, least: int = 0) -> list:
    """A list of at least ``least`` entries, each read by ``read``."""
    what = "a non-empty list" if least else "a list"
    _require(isinstance(value, list) and len(value) >= least, f"{name} must be {what}")
    return [read(item, f"{name}[{i}]") for i, item in enumerate(value)]


def _array(value, name: str) -> np.ndarray:
    """A rectangular JSON array of numbers as a float array."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged list
        array = None
    _require(array is not None and array.dtype.kind in "iuf", f"{name} must be a rectangular array of numbers")
    return array.astype(float)


# The blocks and keys each kind requires, in the order checked.  A key of
# None asks for the block itself.
_REQUIRED_BY_KIND = {
    "covariance": [("model", None)],
    "retention": [("model", None), ("code", None), ("budget", "trials"), ("budget", "max_epochs")],
    "tails": [("model", None), ("params", "deltas")],
    "mixing": [("model", None), ("model", "field")],
    "adversarial-scan": [("grid", "n_values"), ("params", "eps"), ("params", "margin_rates")],
    "scaling": [("model", None), ("grid", "n_values"), ("params", "distance_fraction")],
}


def _validate_kind_blocks(cfg: ExperimentConfig) -> None:
    kind = cfg.kind
    for block, key in _REQUIRED_BY_KIND.get(kind, ()):
        given = getattr(cfg, block)
        if key is None:
            _require(given is not None, f"kind {kind!r} requires a {block!r} block")
        elif block == "model":
            _require(key in given, f"{kind} model block must contain {key!r}")
        else:
            _require(key in given, f"{kind} {block} must set {key!r}")
    if "n_values" in cfg.grid:
        _sizes(cfg)


def _sizes(cfg: ExperimentConfig) -> list:
    """The grid's ``n_values``, a non-empty list of integers."""
    return _list_of(_integer, cfg.grid["n_values"], "grid.n_values", least=1)

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
        initial = _array(block["initial"], "field.initial")
        kernels = _array(block["kernels"], "field.kernels")
        spec = MarkovFieldSpec(
            n=len(np.atleast_1d(kernels)) + 1,
            alphabet_size=initial.shape[0] if initial.ndim == 1 else 0,
            initial=initial,
            kernels=kernels,
        )
        if n is not None and spec.n != n:
            raise ConfigError(f"field has n={spec.n} but {n} was requested")
        return spec
    if "theta" in block:
        size = block.get("n") if n is None else n
        _require(size is not None, "homogeneous field block needs 'n' (or a grid)")
        return symmetric_binary_field(_integer(size, "field.n"), _number(block["theta"], "field.theta"))
    raise ConfigError("field block must contain either 'kernels' or 'theta'")


def _build_channel(block: dict, n: int, alphabet_size: int):
    kind = block.get("type")
    if kind == "per_site":
        if "table" in block:
            return PerSiteChannel(table=_array(block["table"], "channel.table"))
        _require("rates" in block, "per_site channel needs 'table' or 'rates'")
        rates = _array(block["rates"], "channel.rates")
        if rates.shape != (alphabet_size,):
            raise ConfigError(f"per_site rates must list {alphabet_size} values")
        return PerSiteChannel(table=np.tile(rates, (n, 1)))
    if kind == "window":
        _require("table" in block, "window channel needs 'table'")
        return WindowChannel(
            radius=_integer(block.get("radius", 1), "channel.radius"),
            table=_array(block["table"], "channel.table"),
        )
    if kind == "global_threshold":
        _require("threshold" in block, "global_threshold channel needs 'threshold'")
        return GlobalThresholdChannel(threshold=_number(block["threshold"], "channel.threshold"))
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
        size = _integer((block.get("n") if n is None else n) or 0, "model.n")
        _require(size >= 1, "threshold model needs 'n' (or a grid)")
        _require("eps" in block, "threshold model needs 'eps'")
        margin = block.get("margin")
        rate = block.get("margin_rate")
        return ThresholdModelSpec(
            n=size,
            eps=_number(block["eps"], "model.eps"),
            margin=None if margin is None else _number(margin, "model.margin"),
            margin_rate=None if rate is None else _number(rate, "model.margin_rate"),
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
        k=_integer(block.get("k", 1), "code.k"),
        d=_integer(block["d"], "code.d"),
        mode=block.get("mode", "half_distance"),
    )


# ---------------------------------------------------------------------------
# output formatting


def _fmt(value) -> str:
    if type(value) is float:  # most cells: skip the type ladder below
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list, rows) -> int:
    """Write ``header`` and the ``rows`` iterable; return the number of rows."""
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for count, row in enumerate(rows, 1):
            writer.writerow([_fmt(v) for v in row])
    return count


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
    """``[fn(item) for item in items]`` on up to ``threads`` worker threads.

    Items are claimed in order and none after one fails, so once every worker
    is joined the lowest failing index's error is raised.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors = {}
    pending = iter(range(len(items)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = None if errors else next(pending, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc

    workers = [threading.Thread(target=work) for _ in range(min(threads, len(items)))]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[min(errors)]
    return results


# ---------------------------------------------------------------------------
# experiment kinds


def _run_mixing(cfg, seed_tree, threads):
    block = cfg.model["field"]
    sizes = cfg.grid.get("n_values")
    if sizes is None:
        specs = [_build_field(block)]
    else:
        specs = [_build_field(block, n) for n in _sizes(cfg)]

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


# the covariance kind holds two (n, n) float arrays and writes n (n + 1) / 2
# rows: 32 MiB each and about 2.1 million rows at this size
_COVARIANCE_SITE_LIMIT = 1 << 11


def _run_covariance(cfg, seed_tree, threads):
    model = _build_model(cfg.model)
    method = cfg.params.get("method", "exact")
    if method not in ("exact", "mc"):
        raise ConfigError("covariance params.method must be 'exact' or 'mc'")
    if model.n > _COVARIANCE_SITE_LIMIT:
        raise ResourceLimitError(f"covariance over n={model.n} sites exceeds the limit of {_COVARIANCE_SITE_LIMIT}")
    if method == "exact":
        cov = model.covariance()
        err = np.zeros_like(cov)
        trials = None
    else:
        seed = derive_seed(cfg.master_seed, "covariance")
        seed_tree["covariance"] = seed
        trials = _integer(cfg.budget.get("trials", 100_000), "budget.trials", least=1)
        est = covariance_matrix(model, mode="mc", trials=trials, seed=seed)
        cov, err = est.values, est.stderr
    # rows stream from the matrices to the writer, one matrix row at a time
    rows = (
        (i, j, c, e)
        for i in range(model.n)
        for j, c, e in zip(range(i, model.n), cov[i, i:].tolist(), err[i, i:].tolist())
    )
    summary = {"method": method, "trials": trials}
    return ["i", "j", "cov", "stderr"], rows, summary, 0


def _run_adversarial_scan(cfg, seed_tree, threads):
    eps = _number(cfg.params["eps"], "params.eps")
    rates = _list_of(_number, cfg.params["margin_rates"], "params.margin_rates")
    sizes = _sizes(cfg)

    def one(point):
        n, a = point
        spec = ThresholdModelSpec(n=n, eps=eps, margin_rate=a)
        log_scale, mass, _, cov, *_ = _tail_and_covariance(n, eps, spec.threshold)
        p = math.exp(log_scale) * mass
        return (
            n,
            eps,
            a,
            spec.resolved_margin,
            spec.threshold,
            p,
            cov,
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
    trials = _integer(cfg.budget["trials"], "budget.trials", least=1)
    max_epochs = _integer(cfg.budget["max_epochs"], "budget.max_epochs", least=1)
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


# The tails CSV after its ``model_id`` column: (CSV column, TailReport field).
_TAIL_COLUMNS = [
    ("n", "n"), ("eps", "eps"), ("delta", "delta"), ("c", "c"), ("m_n", "m"), ("empirical", "estimate"),
    ("ci_lo", "ci_lo"), ("ci_hi", "ci_hi"), ("bound", "bound"), ("verdict", "verdict"),
]


def _verify_jobs(jobs, threads, method="exact", trials=0):
    """Check the combined ceiling for ``(model_id, model, deltas, seeds)`` jobs.

    Each model's mean rate, Lipschitz constant and mixing bound are resolved
    once, then ``verify_bound`` runs over the jobs' deltas in order; the
    seeds and ``trials`` matter only to ``method="mc"``.  Returns the
    reports, the tails CSV header and rows, and the count of each verdict.
    """
    checks = []
    for model_id, model, deltas, seeds in jobs:
        inputs = (model.mean_rate(), model.lipschitz(), model.mixing_bound())
        checks += [(model_id, model, delta, seed, inputs) for delta, seed in zip(deltas, seeds)]

    def one(check):
        _, model, delta, seed, (eps, c, m) = check
        return verify_bound(model, delta, eps, c, m, trials=trials, seed=seed, method=method)

    reports = _parallel_map(one, checks, threads)
    header = ["model_id"] + [column for column, _ in _TAIL_COLUMNS]
    rows = [(check[0], *(getattr(r, name) for _, name in _TAIL_COLUMNS)) for check, r in zip(checks, reports)]
    counts = {v: sum(r.verdict == v for r in reports) for v in ("dominated", "violated", "unresolved")}
    return reports, header, rows, counts


def _run_tails(cfg, seed_tree, threads):
    model = _build_model(cfg.model)
    deltas = _list_of(_number, cfg.params["deltas"], "params.deltas")
    method = cfg.params.get("method", "mc")
    trials = _integer(cfg.budget.get("trials", 20_000), "budget.trials", least=1)
    model_id = cfg.params.get("model_id", "model-0")
    _require(isinstance(model_id, str), "params.model_id must be a string")

    seeds = [0] * len(deltas)
    if method == "mc":
        seeds = [derive_seed(cfg.master_seed, "tails-delta", idx) for idx in range(len(deltas))]
        seed_tree.update({f"tails-delta-{idx}": seed for idx, seed in enumerate(seeds)})
    reports, header, rows, summary = _verify_jobs([(model_id, model, deltas, seeds)], threads, method, trials)
    summary.update(method=method, vacuous=sum(r.vacuous for r in reports))
    return header, rows, summary, 0


def _run_scaling(cfg, seed_tree, threads):
    sizes = _sizes(cfg)
    fraction = _number(cfg.params["distance_fraction"], "params.distance_fraction")
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
        trials = _integer(cfg.budget.get("trials", 100_000), "budget.trials", least=1)
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
    jobs = [(model_id, model, deltas, [0] * len(deltas)) for model_id, model, deltas in suite]
    _, header, rows, summary = _verify_jobs(jobs, threads)
    summary.update(models=len(suite), checks=len(rows))
    return header, rows, summary, 4 if summary["violated"] else 0


_RUNNERS = {
    "mixing": _run_mixing,
    "covariance": _run_covariance,
    "adversarial-scan": _run_adversarial_scan,
    "retention": _run_retention,
    "tails": _run_tails,
    "scaling": _run_scaling,
    "verify-all": _run_verify_all,
}

KINDS = tuple(_RUNNERS)


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
    written = _write_csv(csv_path, header, rows)
    payload = {
        "kind": cfg.kind,
        "version": __version__,
        "config": asdict(cfg),
        "threads": threads,
        "seed_tree": seed_tree,
        "rows": written,
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
        rows=written,
    )
