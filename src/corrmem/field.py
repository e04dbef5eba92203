"""Hidden one-dimensional Markov field over a finite alphabet.

The latent configuration ``X = (X_0, ..., X_{n-1})`` is a (possibly
inhomogeneous) Markov chain:

    P(x) = initial[x_0] * prod_i kernels[i][x_i, x_{i+1}]

Each epoch of a memory experiment draws a fresh, independent copy of ``X``.
This module provides site marginals, reproducible sampling, and the mixing
diagnostics that drive every concentration bound downstream: the per-bond
mixing coefficient (half the largest L1 distance between two rows of a
transition kernel) and the chain mixing bound
``1 + max_i sum_k prod_{j=i..k} theta_j``.  The enumeration of the whole
chain law lives in :mod:`corrmem.oracle`, for the tests.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .rng import _integer, make_generator

__all__ = [
    "ENUM_LIMIT",
    "PROB_ATOL",
    "MarkovFieldSpec",
    "correlation_decay_profile",
    "mixing_bound",
    "mixing_coefficients",
    "sample_field_batch",
    "site_marginals",
]

# Enumeration is refused beyond this many configurations: a window channel's
# flip neighbourhood (channel.py), or all latent states (the test oracles).
ENUM_LIMIT = 1 << 20

# Absolute tolerance for "these numbers form a probability distribution".
PROB_ATOL = 1e-12

# Rows drawn, walked and (in channel.py) read out together, few enough to
# stay in cache; retention stacks trials' blocks up to this many.
_STACK_ROWS = 2048


def _as_distribution(vec, name: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a one-dimensional probability vector")
    # written as "inside" so that NaN, which compares false, fails
    if not np.all((arr >= -PROB_ATOL) & (arr <= 1.0 + PROB_ATOL)):
        raise ValidationError(f"{name} has entries outside [0, 1]")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_ATOL:
        raise ValidationError(f"{name} sums to {total!r}, expected 1 within {PROB_ATOL}")
    return np.clip(arr, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class MarkovFieldSpec:
    """Specification of the latent chain.

    Attributes
    ----------
    n : int
        Number of sites.
    alphabet_size : int
        Number of symbols per site (the same alphabet at every site).
    initial : np.ndarray, shape (alphabet_size,)
        Distribution of the first site.
    kernels : np.ndarray, shape (n - 1, alphabet_size, alphabet_size)
        Row-stochastic transition matrices; ``kernels[i][a, b]`` is the
        probability of symbol ``b`` at site ``i + 1`` given symbol ``a`` at
        site ``i``.
    """

    n: int
    alphabet_size: int
    initial: np.ndarray
    kernels: np.ndarray

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError("n must be a positive integer")
        if not isinstance(self.alphabet_size, int) or self.alphabet_size < 2:
            raise ValidationError("alphabet_size must be an integer >= 2")
        if self.alphabet_size > 256:
            raise ValidationError("alphabets larger than 256 symbols are not supported")
        s = self.alphabet_size
        initial = _as_distribution(self.initial, "initial")
        if initial.shape != (s,):
            raise ValidationError(
                f"initial has shape {initial.shape}, expected ({s},)"
            )
        kernels = np.asarray(self.kernels, dtype=float)
        if kernels.size == 0:
            kernels = kernels.reshape(0, s, s)
        if kernels.shape != (self.n - 1, s, s):
            raise ValidationError(
                f"kernels have shape {kernels.shape}, expected ({self.n - 1}, {s}, {s})"
            )
        inside = (kernels >= -PROB_ATOL) & (kernels <= 1.0 + PROB_ATOL)
        bad = ~inside.all(axis=2)
        bad |= np.abs(kernels.sum(axis=2, where=inside) - 1.0) > PROB_ATOL
        # the first bad row in (site, row) order raises as a row check would
        for i, a in np.argwhere(bad):
            _as_distribution(kernels[i, a], f"kernels[{i}] row {a}")
        checked = np.clip(kernels, 0.0, 1.0)
        initial.setflags(write=False)
        checked.setflags(write=False)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "kernels", checked)

    @cached_property
    def _cdf_columns(self) -> np.ndarray:
        """CDF columns ``c < S - 1`` of each site given the site before it, built on first read.

        Entry ``[i, c, a]`` is ``P(X_i <= c | X_{i-1} = a)``; site 0 reads the
        initial law whatever ``a``.  Shape (n, S - 1, S), so each column is one
        contiguous row to gather from.
        """
        s = self.alphabet_size
        laws = np.concatenate([np.tile(self.initial, (1, s, 1)), self.kernels])
        cols = np.ascontiguousarray(np.cumsum(laws, axis=2)[:, :, :-1].transpose(0, 2, 1))
        cols.setflags(write=False)
        return cols


def mixing_coefficients(spec: MarkovFieldSpec) -> np.ndarray:
    """Per-bond mixing coefficients of the chain.

    For each transition kernel the coefficient is half the maximum, over
    ordered row pairs, of the L1 distance between the rows.  A kernel whose
    rows are identical (the next site does not depend on the current one)
    has coefficient 0; a permutation kernel has coefficient 1.
    """
    kernels = spec.kernels
    if kernels.shape[0] == 0:
        return np.zeros(0)
    diffs = np.abs(kernels[:, :, None, :] - kernels[:, None, :, :]).sum(axis=-1)
    theta = 0.5 * diffs.max(axis=(1, 2))
    return np.clip(theta, 0.0, 1.0)


def mixing_bound(theta) -> float:
    """Chain mixing bound ``1 + max_i sum_{k>=i} prod_{j=i..k} theta[j]``.

    Computed by the backward recursion ``t_i = theta_i * (1 + t_{i+1})``,
    whose running values are exactly the inner sums.  Returns 1.0 for an
    empty coefficient sequence (a single-site chain).
    """
    theta = np.asarray(theta, dtype=float)
    # written as "inside" so that NaN, which compares false, fails
    if not np.all((theta >= 0.0) & (theta <= 1.0)):
        raise ValidationError("mixing coefficients must lie in [0, 1]")
    best = 0.0
    tail = 0.0
    for t in theta[::-1]:
        tail = float(t) * (1.0 + tail)
        best = max(best, tail)
    return 1.0 + best


def site_marginals(spec: MarkovFieldSpec) -> np.ndarray:
    """Marginal distribution of each site, shape (n, alphabet_size)."""
    out = np.empty((spec.n, spec.alphabet_size))
    out[0] = spec.initial
    for i, kernel in enumerate(spec.kernels):
        out[i + 1] = out[i] @ kernel
    return out


def _inverse_cdf_walk(spec: MarkovFieldSpec, u: np.ndarray) -> np.ndarray:
    """Map a site-major (n, rows) uniform block to chain samples by inverse CDF.

    Site ``i`` takes the number of CDF columns ``c < S - 1`` of the row
    picked by site ``i - 1`` that lie at or below its uniform.  Cumulative
    sums never decrease, so this equals counting all ``S`` columns and
    clipping at ``S - 1``, even when a row's last column falls just short
    of 1.  The columns are ``spec._cdf_columns``, built once per field.
    Returns site-major uint8 symbols, one contiguous row per site.
    """
    x = np.empty(u.shape, dtype=np.uint8)
    prev = np.zeros(u.shape[1], dtype=np.uint8)
    for i, site in enumerate(spec._cdf_columns):
        nxt = x[i]
        np.less_equal(site[0].take(prev), u[i], out=nxt.view(np.bool_))
        for column in site[1:]:
            nxt += column.take(prev) <= u[i]
        prev = nxt
    return x


def _uniform_slices(gen: "np.random.Generator", rows: int, width: int):
    """A row-major (rows, width) uniform block from ``gen``, ``_STACK_ROWS`` rows at a time, in one buffer."""
    buf = np.empty((min(_STACK_ROWS, rows), width))
    for lo in range(0, rows, _STACK_ROWS):
        u = buf[: min(_STACK_ROWS, rows - lo)]
        yield gen.random(u.shape, out=u)


def sample_field_batch(spec: MarkovFieldSpec, seed: int, trials: int) -> np.ndarray:
    """Draw ``trials`` independent configurations; shape (trials, n).

    Trial ``t`` consumes the ``t``-th row of a (trials, n) uniform block
    from the Philox stream keyed by ``seed``.  The stream is consumed in row
    order, so the first rows of a larger batch coincide with a smaller batch
    drawn from the same seed.  The block is drawn and walked
    ``_STACK_ROWS`` rows at a time.
    """
    trials = _integer(trials, "trials", 1)
    out = np.empty((trials, spec.n), dtype=np.uint8)
    lo = 0
    for u in _uniform_slices(make_generator(seed), trials, spec.n):
        out[lo : lo + len(u)] = _inverse_cdf_walk(spec, u.T).T
        lo += len(u)
    return out


def correlation_decay_profile(spec: MarkovFieldSpec, site: int) -> np.ndarray:
    """Conditional-mean gaps between ``site`` and every later site.

    For a binary field, entry ``k - site - 1`` is
    ``|E[X_k | X_site = 1] - E[X_k | X_site = 0]|``, the second entry of
    ``(e_1 - e_0) K_site ... K_{k-1}``: one product of kernels per lag, in
    O(n) with no enumeration.  Each entry is bounded by the product of the
    mixing coefficients of the bonds between the two sites.  When one of the
    two conditioning branches has probability zero the gap is reported as
    0.0 (no correlation is observable through an impossible branch).
    """
    if spec.alphabet_size != 2:
        raise ValidationError("correlation_decay_profile requires a binary field")
    if not 0 <= site < spec.n:
        raise ValidationError(f"site {site} out of range for n={spec.n}")
    out = np.zeros(spec.n - 1 - site)
    if site_marginals(spec)[site].min() <= 0.0:
        return out
    gap = np.array([-1.0, 1.0])
    for k, kernel in enumerate(spec.kernels[site:]):
        gap = gap @ kernel
        out[k] = abs(gap[1])
    return out
