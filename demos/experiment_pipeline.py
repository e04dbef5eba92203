"""From a JSON config to CSV + summary, the same way the CLI does it.

Every experiment kind is driven by one JSON object; ``corrmem <kind>
--config file.json`` and the in-process ``run`` below produce identical
bytes for identical seeds, whatever the worker count.  This builds two
configs in a temp directory, runs them, shows what lands on disk, and
removes the directory on exit.
"""

import json
import tempfile
from pathlib import Path

from corrmem import parse_config, run


def show(path, limit=6):
    lines = Path(path).read_text().splitlines()
    for line in lines[:limit]:
        print(f"    {line}")
    if len(lines) > limit:
        print(f"    ... ({len(lines) - limit} more rows)")


def main(out):
    tails = {
        "kind": "tails",
        "master_seed": 42,
        "out": str(out / "tails"),
        "model": {
            "type": "hidden",
            "field": {"theta": 0.5, "n": 10},
            "channel": {"type": "per_site", "rates": [0.05, 0.15]},
        },
        "params": {"deltas": [0.15, 0.25, 0.35], "model_id": "demo-chain"},
        "budget": {"trials": 20000},
    }
    scaling = {
        "kind": "scaling",
        "out": str(out / "scaling"),
        "model": {
            "type": "hidden",
            "field": {"theta": 0.0},
            "channel": {"type": "per_site", "rates": [0.05, 0.05]},
        },
        "grid": {"n_values": [32, 64, 96, 128]},
        "params": {"distance_fraction": 0.3},
    }

    for config in (tails, scaling):
        path = out / f"{config['kind']}.json"
        path.write_text(json.dumps(config, indent=2))
        result = run(parse_config(json.loads(path.read_text())))
        print(f"{config['kind']}: exit {result.exit_code}, {result.rows} rows")
        print(f"  {result.csv_path}:")
        show(result.csv_path)
        summary = json.loads(Path(result.summary_path).read_text())
        print(f"  summary: {json.dumps(summary['summary'], sort_keys=True)}")
        print(f"  seed tree: {json.dumps(summary['seed_tree'])}")
        print()

    # rerunning with 8 threads reproduces the files byte for byte
    rerun = run(parse_config({**tails, "out": str(out / "tails8")}), threads=8)
    a = (out / "tails" / "tails.csv").read_bytes()
    b = Path(rerun.csv_path).read_bytes()
    print(f"tails rerun with 8 threads byte-identical: {a == b}")
    print(f"(outputs under {out}, removed on exit)")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="corrmem-demo-") as tmp:
        main(Path(tmp))
