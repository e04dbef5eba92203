"""The benchmark's workloads: fixed config lists for ``corrmem.run()``.

The configs come in four parts (``exact-hidden``, ``mc-tails``,
``retention`` and ``threshold-scan``), each aimed at one layer.  A workload
runs one or more parts in one child, one config after another.  The two
gated workloads pair the parts that draw no random numbers (``exact``) and
the parts that do (``sampled``); each part also runs on its own under its
own name.

Model inputs are constants; only ``master_seed`` follows the benchmark's
``--seed``.  The outputs of ``exact-hidden`` and ``threshold-scan`` do not
depend on the seed at all.  Why each part exists, and which layer it
stresses, is in ``perfbench/README.md``.
"""

from typing import NamedTuple

DEFAULT_SEED = 0


def chain(n):
    """Sticky symmetric binary chain of ``n`` sites (mixing coefficient 0.5)."""
    return {"theta": 0.5, "n": n}


def win(n):
    """Radius-1 window read-out whose error rate grows with the 1s it sees."""
    row = [0.02 + 0.08 * bin(j).count("1") for j in range(8)]
    return {"type": "window", "radius": 1, "table": [row] * n}


PER_SITE = {"type": "per_site", "rates": [0.05, 0.15]}


def _hidden(n, channel):
    return {"type": "hidden", "field": chain(n), "channel": channel}


def _exact_hidden(seed):
    return [
        {
            "kind": "tails",
            "master_seed": seed,
            "model": _hidden(18, win(18)),
            "params": {"method": "exact", "deltas": [0.1, 0.2, 0.3]},
        },
        {
            "kind": "tails",
            "master_seed": seed,
            "model": _hidden(18, {"type": "global_threshold", "threshold": 11.0}),
            "params": {"method": "exact", "deltas": [0.2]},
        },
        {
            "kind": "covariance",
            "master_seed": seed,
            "model": _hidden(18, PER_SITE),
            "params": {"method": "exact"},
        },
    ]


def _mc_tails(seed):
    return [
        {
            "kind": "tails",
            "master_seed": seed,
            "model": _hidden(64, PER_SITE),
            "params": {"method": "mc", "deltas": [0.05, 0.1, 0.15, 0.2]},
            "budget": {"trials": 100_000},
        }
    ]


def retention_config(seed, trials=1000):
    """The ``retention`` config; the prefix probe reruns it with fewer trials."""
    return {
        "kind": "retention",
        "master_seed": seed,
        "model": _hidden(64, win(64)),
        "code": {"d": 35},
        "budget": {"trials": trials, "max_epochs": 2000},
    }


def _threshold_scan(seed):
    return [
        {
            "kind": "adversarial-scan",
            "master_seed": seed,
            "grid": {"n_values": [2**k for k in range(8, 20)]},
            "params": {"eps": 0.1, "margin_rates": [0.5, 1.0, 1.5, 2.0]},
        },
        {
            "kind": "scaling",
            "master_seed": seed,
            "model": {"type": "threshold", "eps": 0.1, "margin_rate": 1.0},
            "grid": {"n_values": [2**k for k in range(10, 18)]},
            "params": {"method": "exact", "distance_fraction": 0.3},
        },
    ]


# part -> (worker threads, config builder taking the master seed)
PARTS = {
    "exact-hidden": (2, _exact_hidden),
    "mc-tails": (1, _mc_tails),
    "retention": (1, lambda seed: [retention_config(seed)]),
    "threshold-scan": (1, _threshold_scan),
}

# workload -> its parts, in run order
WORKLOADS = {
    "exact": ("exact-hidden", "threshold-scan"),
    "sampled": ("mc-tails", "retention"),
    **{part: (part,) for part in PARTS},
}

# Parts whose CSVs must match a stored SHA-256 byte for byte at the default
# seed; the others are compared row by row with a float tolerance.
BYTE_EXACT = ("mc-tails", "retention")


class Step(NamedTuple):
    """One config of a workload: its part, its index there and its threads."""

    part: str
    index: int
    threads: int
    config: dict


def steps(name, seed):
    """The workload's configs, in run order."""
    return [
        Step(part, index, PARTS[part][0], config)
        for part in WORKLOADS[name]
        for index, config in enumerate(PARTS[part][1](seed))
    ]
