"""Output checks for the benchmark's CSVs, and a fingerprint comparer.

Every CSV a benchmark child writes is checked here:

* ``exact-hidden`` and ``threshold-scan`` do not depend on the seed.  Their
  rows must match the stored seed-commit CSVs in ``perfbench/expected``: same
  header, same row count, every non-float field equal, every float within
  1e-12 relative or 1e-15 absolute, whichever is looser.
* ``mc-tails`` and ``retention`` must match the stored CSV byte for byte at
  the default seed.  At any seed their seed-independent columns must match
  too, and their sampled columns must agree with exact answers computed here
  by a forward pass over the chain, independently of corrmem.

Compare the fingerprints that two benchmark runs recorded (for instance the
parent commit and a change, at the same seed)::

    python3 perfbench/check.py .perfbench/results/A.json .perfbench/results/B.json
"""

import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

EXPECTED = Path(__file__).resolve().parent / "expected"

REL_TOL = 1e-12
ABS_TOL = 1e-15

# Sampled values may sit this many standard errors from the exact answer.
SIGMAS = 6.0


def expected_path(workload, index, kind):
    return EXPECTED / workload / f"{index}-{kind}.csv"


def fingerprint(text):
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "rows": text.count("\n") - 1}


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _is_int(token):
    try:
        int(token)
    except ValueError:
        return False
    return True


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def _field_problem(want, got):
    if _is_int(want) or _is_int(got):
        return None if want == got else f"{got!r} != {want!r}"
    try:
        a, b = float(want), float(got)
    except ValueError:
        return None if want == got else f"{got!r} != {want!r}"
    return None if _close(a, b) else f"{got} differs from {want}"


def compare_rows(want_text, got_text, columns=None):
    """Problems found comparing two CSVs row by row (empty when they agree).

    ``columns`` restricts the field comparison to those header names.
    """
    want, got = _rows(want_text), _rows(got_text)
    if not want or not got or want[0] != got[0]:
        return [f"header {got[:1]} != {want[:1]}"]
    if len(want) != len(got):
        return [f"{len(got) - 1} rows, expected {len(want) - 1}"]
    header = want[0]
    keep = [k for k, name in enumerate(header) if columns is None or name in columns]
    problems = []
    for r, (w, g) in enumerate(zip(want[1:], got[1:])):
        if len(w) != len(g):
            problems.append(f"row {r}: {len(g)} fields, expected {len(w)}")
            continue
        for k in keep:
            issue = _field_problem(w[k], g[k])
            if issue is not None:
                problems.append(f"row {r} {header[k]}: {issue}")
    return problems


# ---------------------------------------------------------------------------
# exact answers for the sampled workloads, by a forward pass over the chain


def _chain_kernel(theta):
    keep = (1.0 + theta) / 2.0
    return np.array([[keep, 1.0 - keep], [1.0 - keep, keep]])


def per_site_weight_law(n, theta, rates):
    """Law of the error weight of ``chain(n)`` read out per site."""
    kernel = _chain_kernel(theta)
    rates = np.asarray(rates, dtype=float)
    law = np.zeros((2, n + 1))  # (current symbol, weight so far)
    law[:, 0] = 0.5
    for i in range(n):
        if i > 0:
            law = kernel.T @ law
        hit = law * rates[:, None]
        law = law * (1.0 - rates[:, None])
        law[:, 1:] += hit[:, :-1]
    return law.sum(axis=0)


def window_weight_law(n, theta, row):
    """Law of the error weight of ``chain(n)`` read out through a radius-1
    window whose table row ``row`` is the same at every site.  Sites outside
    the chain read as symbol 0."""
    kernel = _chain_kernel(theta)
    row = np.asarray(row, dtype=float).reshape(2, 2, 2)  # (left, centre, right)
    law = np.zeros((2, 2, n + 1))  # (x_{i-1}, x_i, weight before site i)
    law[0, :, 0] = 0.5
    for i in range(n):
        step = kernel if i + 1 < n else np.array([[1.0, 0.0], [1.0, 0.0]])
        nxt = np.zeros_like(law)
        for left in range(2):
            for centre in range(2):
                for right in range(2):
                    mass = law[left, centre] * step[centre, right]
                    q = row[left, centre, right]
                    nxt[centre, right] += mass * (1.0 - q)
                    nxt[centre, right, 1:] += mass[:-1] * q
        law = nxt
    return law.sum(axis=(0, 1))


def check_mc_tails(text, config, reference_text):
    """Seed-independent columns match the reference; sampled tails agree
    with the exact tail of the per-site model."""
    problems = compare_rows(reference_text, text, columns={"model_id", "n", "eps", "delta", "c", "m_n", "bound"})
    if problems:
        return problems
    field, rates = config["model"]["field"], config["model"]["channel"]["rates"]
    law = per_site_weight_law(field["n"], field["theta"], rates)
    mean_rate = float(np.dot(np.arange(law.size), law)) / field["n"]
    trials = config["budget"]["trials"]
    for r, row in enumerate(csv.DictReader(io.StringIO(text))):
        eps, delta, n = float(row["eps"]), float(row["delta"]), int(row["n"])
        est, lo, hi = float(row["empirical"]), float(row["ci_lo"]), float(row["ci_hi"])
        if abs(eps - mean_rate) > 1e-12:
            problems.append(f"row {r}: eps {eps} but the exact mean rate is {mean_rate}")
        exact = math.fsum(law[math.floor(n * (eps + delta)) + 1 :].tolist())
        sigma = math.sqrt(exact * (1.0 - exact) / trials) + 1.0 / trials
        if abs(est - exact) > SIGMAS * sigma:
            problems.append(f"row {r}: empirical tail {est} is far from the exact {exact}")
        if not lo <= est <= hi:
            problems.append(f"row {r}: {est} outside its interval [{lo}, {hi}]")
        bound = float(row["bound"])
        verdict = "dominated" if hi <= bound else "violated" if lo > bound else "unresolved"
        if row["verdict"] != verdict:
            problems.append(f"row {r}: verdict {row['verdict']}, expected {verdict}")
    return problems


def check_retention(text, config):
    """Rows are well formed and the mean lifetime agrees with the exact
    per-epoch failure probability of the window model."""
    field, channel = config["model"]["field"], config["model"]["channel"]
    trials, max_epochs = config["budget"]["trials"], config["budget"]["max_epochs"]
    rows = _rows(text)
    if rows[:1] != [["trial", "failure_epoch", "censored"]] or len(rows) != trials + 1:
        return [f"expected the retention header and {trials} rows"]
    problems = []
    lifetimes = []
    for t, row in enumerate(rows[1:]):
        if len(row) != 3 or row[0] != str(t) or row[2] not in ("0", "1") or not row[1].isdigit():
            problems.append(f"row {t}: malformed {row}")
        elif not 1 <= int(row[1]) <= max_epochs:
            problems.append(f"row {t}: failure epoch {row[1]} outside [1, {max_epochs}]")
        elif row[2] == "1" and int(row[1]) != max_epochs:
            problems.append(f"row {t}: censored before max_epochs")
        elif row[2] == "0":
            lifetimes.append(int(row[1]))
    if problems or not lifetimes:
        return problems or ["every trial was censored"]
    law = window_weight_law(field["n"], field["theta"], channel["table"][0])
    tau = (config["code"]["d"] - 1) // 2
    p = math.fsum(law[tau + 1 :].tolist())
    mean = sum(lifetimes) / len(lifetimes)
    spread = math.sqrt(1.0 - p) / p / math.sqrt(len(lifetimes))
    if abs(mean - 1.0 / p) > SIGMAS * spread:
        problems.append(f"mean lifetime {mean} is far from the exact 1/p = {1.0 / p}")
    return problems


# ---------------------------------------------------------------------------


def compare_results(a, b):
    """Problems comparing the fingerprints of two benchmark result files."""
    problems = []
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        return ["the results are for different workloads or seeds"]
    for k, (x, y) in enumerate(zip(a["fingerprints"], b["fingerprints"])):
        if x["byte_exact"]:
            if x["sha256"] != y["sha256"]:
                problems.append(f"config {k} ({x['kind']}): CSV bytes differ")
        else:
            problems += [f"config {k} ({x['kind']}): {p}" for p in compare_rows(x["csv"], y["csv"])]
    if len(a["fingerprints"]) != len(b["fingerprints"]):
        problems.append("the results hold different numbers of configs")
    return problems


def main(argv):
    if len(argv) != 2:
        print("usage: python3 perfbench/check.py RESULT_A.json RESULT_B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    problems = compare_results(a, b)
    for p in problems:
        print(p)
    print("fingerprints agree" if not problems else f"{len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
