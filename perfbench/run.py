"""corrmem's benchmark: time to the CSVs for fixed workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed run is a fresh Python child (``perfbench/child.py``) that imports
corrmem from ``src/`` and calls ``corrmem.run()`` on the workload's configs
one after another: a closed loop with one caller.  One discarded child warms
the ``.pyc`` files and the file cache first by importing corrmem, which is
all the file access a run does.  Full children then run until ``--seconds``
are used up (at least ``MIN_CHILDREN``).  Each time is the mean over them,
which follows the share of the run the host spent in its slow state;
``peak_rss_mb`` is their median.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs one
child per part with the layer tracer (``perfbench/layertrace.py``), the
determinism probes and ``python -X importtime``, and prints the per-layer
metrics.
Every CSV is checked (``perfbench/check.py``); a config that raises, exits
non-zero, fails its check or misses a probe counts as failed.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with fingerprints and the
environment, goes to ``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150.0
IMPORTS = {
    "numpy": "setup.import_numpy_s",
    "scipy.stats": "setup.import_scipy_stats_s",
    "scipy.special": "setup.import_scipy_special_s",
    "corrmem": "setup.import_corrmem_s",
}
# Sampling-kernel probes: the part's own model at its own block shape.
PROBES = {
    "mc-tails": {"calls": 1, "rows": 100_000, "suffix": ""},
    "retention": {"calls": 1000, "rows": 64, "suffix": "_64rows"},
}


class BenchError(Exception):
    """The benchmark cannot run here at all."""


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def environment():
    import numpy
    import scipy

    return {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, log_path):
    """Run one child to completion; return (exit code, wall s, peak RSS MB)."""
    started = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        # A blocking wait keeps the parent off the CPUs while the child runs.
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Runner:
    """Launches children for one workload and keeps what they reported."""

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch
        self.launched = 0

    def child(self, steps, trace=False, probes=()):
        """Run a child on ``steps``; return its report with wall and RSS."""
        self.launched += 1
        tag = self.scratch / f"child-{self.launched}"
        tag.mkdir(parents=True)
        configs = [dict(step.config, out=str(tag / str(k))) for k, step in enumerate(steps)]
        request = {"configs": configs, "threads": [step.threads for step in steps], "trace": trace, "probes": list(probes)}
        (tag / "request.json").write_text(json.dumps(request))
        argv = [sys.executable, str(HERE / "child.py"), str(tag / "request.json"), str(tag / "report.json")]
        code, wall, rss = spawn(argv, tag / "log.txt")
        if code != 0 or not (tag / "report.json").exists():
            log = (tag / "log.txt").read_text(errors="replace")
            raise BenchError(f"child exited with {code}:\n{log[-3000:]}")
        report = json.loads((tag / "report.json").read_text())
        report.update(wall_s=wall, peak_rss_mb=rss)
        for entry, cfg in zip(report["configs"], configs):
            out = Path(entry["out"]) / f"{cfg['kind']}.csv"
            entry["csv"] = out.read_text() if out.exists() else None
        return report


def _check_config(step, entry, seed):
    """Problems with one config's run and CSV (empty when it passed)."""
    if entry["error"] is not None:
        return [entry["error"].strip().splitlines()[-1]]
    if entry["exit_code"] != 0:
        return [f"exit code {entry['exit_code']}"]
    if entry["csv"] is None:
        return ["no CSV written"]
    text = entry["csv"]
    reference = check.expected_path(step.part, step.index, step.config["kind"]).read_text()
    if step.part not in workloads.BYTE_EXACT:
        return check.compare_rows(reference, text)
    if seed == workloads.DEFAULT_SEED and text != reference:
        return ["CSV differs from the stored seed-commit CSV"]
    try:
        if step.part == "mc-tails":
            return check.check_mc_tails(text, step.config, reference)
        return check.check_retention(text, step.config)
    except ValueError as exc:
        return [f"malformed CSV: {exc}"]


class Tally:
    """Configs attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append({"config": label, "problems": problems[:5]})


def _check_child(tally, steps, report, label, seed):
    for step, entry in zip(steps, report["configs"]):
        tally.record(f"{label} {step.part} config {step.index}", _check_config(step, entry, seed))


def _csvs(report, steps=None, part=None):
    """The report's CSVs; with ``part``, only those of that part's steps."""
    return [entry["csv"] for k, entry in enumerate(report["configs"]) if part is None or steps[k].part == part]


def _probe_children(runner, tally, steps, reference):
    """The determinism probes: each must reproduce ``reference``'s CSVs."""
    parts = {step.part for step in steps}
    for part, threads in (("mc-tails", 2), ("exact-hidden", 1)):
        if part in parts:
            mine = [step._replace(threads=threads) for step in steps if step.part == part]
            same = _csvs(runner.child(mine)) == _csvs(reference, steps, part)
            tally.record(f"probe {part} threads={threads}", [] if same else [f"CSV differs at {threads} thread(s)"])
    if "retention" in parts:
        short = runner.child([workloads.Step("retention", 0, 1, workloads.retention_config(runner.seed, trials=100))])
        full = _csvs(reference, steps, "retention")[0] or ""
        ok = short["configs"][0]["csv"] is not None and full.startswith(short["configs"][0]["csv"])
        tally.record("probe retention 100-trial prefix", [] if ok else ["100-trial CSV is not a prefix"])


def parse_importtime(text):
    """Seconds spent importing each module in ``IMPORTS``, from the log of
    ``python -X importtime``.

    A module's time is the cumulative time of its outermost lines: the line
    named after it, or, where the interpreter logs no such line (scipy loads
    ``scipy.stats`` lazily), the lines of its submodules that sit under no
    other line of the same module.  A module that was never imported reads 0.
    """
    lines = []  # [depth, module, cumulative us, index of enclosing line]
    open_lines = []
    for raw in text.splitlines():
        parts = raw.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        module = parts[2].strip()
        depth = len(parts[2]) - len(parts[2].lstrip())
        while open_lines and lines[open_lines[-1]][0] > depth:
            lines[open_lines.pop()][3] = len(lines)
        open_lines.append(len(lines))
        lines.append([depth, module, int(parts[1]), None])

    def within(module, name):
        return module == name or module.startswith(name + ".")

    def outermost(line, name):
        parent = line[3]
        while parent is not None:
            if within(lines[parent][1], name):
                return False
            parent = lines[parent][3]
        return True

    return {
        metric: sum(line[2] for line in lines if within(line[1], name) and outermost(line, name)) / 1e6
        for name, metric in IMPORTS.items()
    }


def _import_times(runner):
    log = runner.scratch / "importtime.txt"
    code, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import corrmem"], log)
    if code != 0:
        raise BenchError(f"python -X importtime failed:\n{log.read_text()[-3000:]}")
    return parse_importtime(log.read_text())


def _probe_specs(part, steps):
    return [dict(PROBES[part], model=steps[0].config["model"], seed=steps[0].config["master_seed"])]


def _traced_layers(runner, tally, steps):
    """Per-layer metrics summed over one traced child per part.

    Each part runs alone under the tracer, so its counters stay its own:
    ``memory.draw_useful_frac`` comes from the ``retention`` part only, and
    ``<part>.peak_rss_mb`` is the peak of that part's traced child.  The
    sampling-kernel probes run in a child of their own.
    """
    layers = {}
    for part in dict.fromkeys(step.part for step in steps):
        mine = [step for step in steps if step.part == part]
        traced = runner.child(mine, trace=True)
        _check_child(tally, mine, traced, "traced", runner.seed)
        for key, value in traced["layers"].items():
            layers[key] = layers.get(key, 0) + value
        layers["trace.run_s"] = layers.get("trace.run_s", 0.0) + sum(e["run_s"] for e in traced["configs"])
        layers[f"{part}.peak_rss_mb"] = traced["peak_rss_mb"]
        if part in PROBES:
            layers.update(runner.child([], probes=_probe_specs(part, mine))["probes"])
        if part == "retention":
            uniforms = traced["layers"]["rng.uniforms_drawn"]
            n = mine[0].config["model"]["field"]["n"]
            layers["memory.draw_useful_frac"] = traced["layers"]["memory.epochs_survived"] * 2 * n / uniforms
    return layers


def _layer_metrics(layers, samples, import_times):
    """Per-layer metrics; a part, probe or useful fraction not run reads 0."""
    out = {"memory.draw_useful_frac": 0.0}
    for part in workloads.PARTS:
        out[f"{part}.run_s"] = out[f"{part}.peak_rss_mb"] = 0.0
    for shape in PROBES.values():
        out[f"field.walk_probe{shape['suffix']}_s"] = out[f"channel.sample_probe{shape['suffix']}_s"] = 0.0
    for part, runs in samples["part_run_s"].items():
        out[f"{part}.run_s"] = statistics.mean(runs)
    out.update(layers)
    out.update(import_times)
    out["trace.overhead_frac"] = out.pop("trace.run_s") / statistics.mean(samples["run_s"]) - 1.0
    return out


def _declared(trace):
    """(name, unit) of each metric BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def bench(name, seed, seconds, trace):
    steps = workloads.steps(name, seed)
    threads = max(step.threads for step in steps)
    nproc = _nproc()
    if threads > nproc:
        raise BenchError(f"workload {name} needs {threads} threads but only {nproc} CPUs are available")
    scratch = WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    runner = Runner(seed, scratch)
    tally = Tally()
    try:
        warm = runner.child([])
        if not warm["corrmem_file"].startswith(str(ROOT / "src")):
            raise BenchError(f"corrmem was imported from {warm['corrmem_file']}, not from {ROOT / 'src'}")
        started = time.perf_counter()
        timed = []
        # Start another child while it would end nearer --seconds than stopping now.
        while len(timed) < MIN_CHILDREN or time.perf_counter() - started + timed[-1]["wall_s"] / 2 < seconds:
            report = runner.child(steps)
            _check_child(tally, steps, report, f"child {len(timed)}", seed)
            if timed:
                same = _csvs(report) == _csvs(timed[0])
                tally.record(f"child {len(timed)} repeat", [] if same else ["CSV differs from the first child's"])
            timed.append(report)
        samples = {
            "setup_s": [r["setup_s"] for r in timed],
            "run_s": [sum(e["run_s"] for e in r["configs"]) for r in timed],
            "part_run_s": {
                part: [sum(e["run_s"] for e, step in zip(r["configs"], steps) if step.part == part) for r in timed]
                for part in workloads.WORKLOADS[name]
            },
            "wall_s": [r["wall_s"] for r in timed],
            "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        }
        metrics = {key: statistics.mean(samples[key]) for key in ("setup_s", "run_s", "wall_s")}
        metrics["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
        layers = None
        if trace:
            traced = _traced_layers(runner, tally, steps)
            _probe_children(runner, tally, steps, timed[0])
            layers = _layer_metrics(traced, samples, _import_times(runner))
        fingerprints = [
            dict(check.fingerprint(text), part=step.part, kind=step.config["kind"], byte_exact=step.part in workloads.BYTE_EXACT, csv=text)
            for step, text in zip(steps, _csvs(timed[0]))
            if text is not None
        ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "workload": name,
        "parts": list(workloads.WORKLOADS[name]),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "threads": [step.threads for step in steps],
        "environment": environment(),
        "children": len(timed),
        "samples": samples,
        "end_to_end": metrics,
        "per_layer": layers,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "failed_frac": len(tally.failures) / tally.attempted,
        "fingerprints": fingerprints,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "corrmem" / "__init__.py").is_file():
        print(f"perfbench: no corrmem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        declared = _declared(args.trace)
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"environment": result["environment"], "children": result["children"], "failures": result["failures"], "result_file": str(path.relative_to(ROOT))}))
    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    failed = len(result["failures"])
    line = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {key: {"value": chosen[key], "unit": unit} for key, unit in declared},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
