"""Memory lifetime under a global trigger is geometric, and we can prove it.

With the correction radius tuned so that every sub-threshold epoch is
repaired, the stored state dies exactly when the trigger first fires.
The simulated lifetime law should then match Geometric(P(trigger)) --
checked here with a KS statistic -- and its mean should sit at the
1/P(trigger) ceiling that holds for *any* decoder.
"""

import numpy as np

from corrmem import (
    CodeModel,
    ThresholdModelSpec,
    geometric_ks_statistic,
    ks_critical_value,
    lifetime_lower_bound,
    simulate_retention,
)


def main():
    spec = ThresholdModelSpec(n=64, eps=0.1, margin=0.575)
    moments = spec.moments()
    p = moments.trigger_prob
    code = CodeModel(n=64, k=1, d=23)  # corrects weight <= 11 = floor(B)
    print(f"threshold spec: n = 64, eps = 0.1, B = {spec.threshold:.2f}")
    print(f"exact trigger probability P(A) = {p:.5f}; 1/P(A) = {1.0 / p:.2f}")
    print(f"code distance 23 corrects weight <= {code.correction_threshold}")
    print()

    trials = 10_000
    est = simulate_retention(spec, code, max_epochs=1000, trials=trials, seed=0)
    print(f"simulated {trials} retention trials (seed 0):")
    print(f"  mean lifetime  {est.mean:8.2f} +/- {est.stderr:.2f}")
    print(f"  ceiling        {moments.retention_upper_bound:8.2f}")
    print(f"  censored       {est.censored_count}")

    stat = geometric_ks_statistic(est.failure_epochs, p)
    crit = ks_critical_value(trials, alpha=0.01)
    verdict = "consistent" if stat < crit else "INCONSISTENT"
    print(f"  KS vs Geometric(P(A)): {stat:.5f} < {crit:.5f} -> {verdict}")

    print()
    print("empirical survival curve vs the geometric:")
    epochs = np.asarray(est.failure_epochs)
    print(f"  {'t':>5} {'observed':>9} {'geometric':>10}")
    for t in (1, 5, 10, 20, 40, 80, 160):
        observed = float((epochs > t).mean())
        print(f"  {t:>5} {observed:>9.4f} {(1 - p) ** t:>10.4f}")

    print()
    print("contrast: when per-epoch failure is exponentially small in n,")
    print("a union bound alone guarantees long lifetimes at high confidence:")
    for n in (50, 100, 200, 400):
        bound = lifetime_lower_bound(n, 0.2)
        print(
            f"  n = {n:>3}: >= {bound.epochs:.3e} epochs "
            f"at confidence {bound.confidence:.4f}"
        )


if __name__ == "__main__":
    main()
