"""How sticky can the hidden field be before sites stop looking independent?

Builds homogeneous binary chains across a stickiness grid, reports the
mixing coefficients and the chain constant they imply, then traces how the
influence of one site on its successors falls off with distance.
"""

import numpy as np

from corrmem import (
    correlation_decay_profile,
    mixing_bound,
    mixing_coefficients,
    symmetric_binary_field,
)


def main():
    n = 12
    print(f"homogeneous binary chains, n = {n}")
    print(f"{'theta':>6} {'m_bound':>8}   influence of site 0 on sites 1..6")
    for theta in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95):
        spec = symmetric_binary_field(n, theta)
        bound = mixing_bound(mixing_coefficients(spec))
        decay = correlation_decay_profile(spec, site=0)[:6]
        decay_str = " ".join(f"{v:.4f}" for v in decay)
        print(f"{theta:>6.2f} {bound:>8.3f}   {decay_str}")

    print()
    print("the influence column is exactly theta^k: one-step memory compounds")
    print("geometrically, and m_bound approaches 1/(1-theta) on long chains.")

    # an inhomogeneous chain mixes at the rate of its *worst* suffix
    rng = np.random.default_rng(5)
    thetas = rng.uniform(0.1, 0.9, size=n - 1)
    keep = (1.0 + thetas) / 2.0
    kernels = np.zeros((n - 1, 2, 2))
    kernels[:, 0, 0] = kernels[:, 1, 1] = keep
    kernels[:, 0, 1] = kernels[:, 1, 0] = 1.0 - keep
    from corrmem import MarkovFieldSpec

    spec = MarkovFieldSpec(
        n=n, alphabet_size=2, initial=np.array([0.5, 0.5]), kernels=kernels
    )
    theta = mixing_coefficients(spec)
    print()
    print(f"random inhomogeneous chain: theta in [{thetas.min():.2f}, {thetas.max():.2f}]")
    print(f"  mixing coefficients: {np.array2string(theta, precision=2)}")
    print(f"  chain constant m = {mixing_bound(theta):.3f} (always within [1, n])")


if __name__ == "__main__":
    main()
