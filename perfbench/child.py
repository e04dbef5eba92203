"""One benchmark child process: import corrmem, run configs, write a report.

Usage::

    PYTHONPATH=src python3 perfbench/child.py REQUEST.json REPORT.json

REQUEST holds ``configs`` (config dicts for ``corrmem.parse_config``, each
with its own ``out`` directory), ``threads`` (one worker count per config),
``trace`` (wrap the layer modules while the configs run) and ``probes``
(time the sampling kernels on one model at one block shape each, after the
configs).  With no configs the child only imports corrmem, which warms the
``.pyc`` files.
"""

import time

_T0 = time.perf_counter()
import corrmem  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402


def _probe_model(block):
    """A hidden model from a per-site or window config block."""
    field = corrmem.symmetric_binary_field(block["field"]["n"], block["field"]["theta"])
    channel = block["channel"]
    if channel["type"] == "per_site":
        table = np.tile(channel["rates"], (field.n, 1))
        return corrmem.HiddenErrorModel(field=field, channel=corrmem.PerSiteChannel(table=table))
    return corrmem.HiddenErrorModel(
        field=field,
        channel=corrmem.WindowChannel(radius=channel["radius"], table=np.asarray(channel["table"])),
    )


def _time_probe(probe):
    """Time the chain walk and the full error sampler at one block shape.

    ``calls`` batches of ``rows`` rows each, every call on its own seed, as
    the sampling layers see them inside the workload.  The metric names end
    in the probe's ``suffix``.
    """
    model = _probe_model(probe["model"])
    seeds = [corrmem.derive_seed(probe["seed"], "probe", k) for k in range(probe["calls"])]
    t0 = time.perf_counter()
    for seed in seeds:
        corrmem.sample_field_batch(model.field, seed, probe["rows"])
    t1 = time.perf_counter()
    for seed in seeds:
        corrmem.sample_errors_batch(model, seed, probe["rows"])
    t2 = time.perf_counter()
    suffix = probe["suffix"]
    return {f"field.walk_probe{suffix}_s": t1 - t0, f"channel.sample_probe{suffix}_s": t2 - t1}


def main(request_path, report_path):
    with open(request_path) as fh:
        request = json.load(fh)
    parsed = [corrmem.parse_config(c) for c in request["configs"]]
    tracer = None
    if request.get("trace"):
        from layertrace import Tracer, summarize

        tracer = Tracer()
        tracer.install()
    results = []
    try:
        for cfg, threads in zip(parsed, request["threads"]):
            entry = {"kind": cfg.kind, "out": cfg.out, "exit_code": None, "error": None}
            t0 = time.perf_counter()
            try:
                entry["exit_code"] = corrmem.run(cfg, threads=threads).exit_code
            except Exception:  # a failed config is reported, the rest still run
                entry["error"] = traceback.format_exc()
            entry["run_s"] = time.perf_counter() - t0
            results.append(entry)
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {"setup_s": SETUP_S, "configs": results, "corrmem_file": corrmem.__file__}
    if tracer is not None:
        report["layers"] = summarize(tracer.spans, tracer.counts)
    report["probes"] = {}
    for probe in request.get("probes", ()):
        report["probes"].update(_time_probe(probe))
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
