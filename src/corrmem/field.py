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
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
        s = _integer(self.alphabet_size, "alphabet_size", 2)
        if s > 256:
            raise ValidationError("alphabets larger than 256 symbols are not supported")
        object.__setattr__(self, "alphabet_size", s)
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
    widest = np.zeros(len(kernels))
    # one reference row at a time keeps the temporary at (n - 1, S, S)
    for a in range(spec.alphabet_size):
        np.maximum(widest, np.abs(kernels - kernels[:, a : a + 1]).sum(axis=2).max(axis=1), out=widest)
    return np.clip(0.5 * widest, 0.0, 1.0)


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
    return _window_marginals(spec.initial, spec.kernels)


def _advance(alpha: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Slide window-indexed mass (axis 0) one site to the right."""
    s = kernel.shape[0]
    if alpha.shape[0] == s:
        return kernel.T @ alpha
    # Drop the leftmost symbol, then append the next one; the new symbol
    # depends on the last symbol of the window, ``suffix % s``.
    tail = alpha.reshape(s, -1, *alpha.shape[1:]).sum(axis=0)
    rows = kernel[np.arange(tail.shape[0]) % s]
    moved = tail[:, None] * rows.reshape(rows.shape + (1,) * (alpha.ndim - 1))
    return moved.reshape(alpha.shape)


def _window_marginals(start: np.ndarray, steps) -> np.ndarray:
    """Law of the window at every site, shape (n, W)."""
    out = [start]
    for kernel in steps:
        out.append(_advance(out[-1], kernel))
    return np.array(out)


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


def _skipped(bitgen: "np.random.Philox", doubles: int) -> dict:
    """The state ``bitgen`` would reach after ``doubles`` more doubles; ``bitgen`` is untouched.

    Philox emits four 64-bit words per counter step and ``advance`` moves
    the counter in O(1), so only the words left in the current block and
    the words into the last block are drawn, on a side generator.
    """
    if not isinstance(bitgen, np.random.Philox):
        raise ValidationError("streamed draws need a Philox generator, as make_generator returns")
    side = np.random.Philox(key=0)
    side.state = state = bitgen.state
    head = min(doubles, 4 - state["buffer_pos"])
    side.random_raw(head)
    if doubles > head:
        side.advance((doubles - head) // 4)
        side.random_raw((doubles - head) % 4)
    return side.state


def _blocks(gens, count: int, width: int, parts: int = 1):
    """Row slices of ``parts`` consecutive (count, width) uniform blocks, ``count > 0``, from each of ``gens`` in turn.

    Every slice is drawn into one buffer of at most ``_STACK_ROWS`` rows.
    Blocks that fit are stacked across generators, and each stack yields its
    part-0 rows, then its part-1 rows, and so on.  A longer block is cut
    into slices of ``_STACK_ROWS`` rows, each part read through its own
    cursor on the generator, part ``p`` started ``p * count * width``
    doubles ahead; the last part's cursor is read last, so the generator
    ends where drawing every part whole would have left it.
    """
    rows = _STACK_ROWS
    if count <= rows:
        per = rows // count
        buf = np.empty((min(per, len(gens)) * count, width))
        for lo in range(0, len(gens), per):
            group = gens[lo : lo + per]
            block = buf[: len(group) * count]
            for _ in range(parts):
                for gen, part in zip(group, block.reshape(len(group), count, width)):
                    gen.random(part.shape, out=part)
                yield block
        return
    buf = np.empty((rows, width))
    for gen in gens:
        bitgen = gen.bit_generator
        cursors = [bitgen.state] + [_skipped(bitgen, p * count * width) for p in range(1, parts)]
        for lo in range(0, count, rows):
            block = buf[: min(rows, count - lo)]
            for p in range(parts):
                bitgen.state = cursors[p]
                yield gen.random(block.shape, out=block)
                cursors[p] = bitgen.state


def _fill(out: np.ndarray, blocks) -> np.ndarray:
    """``out``, its rows filled from ``blocks`` in turn."""
    lo = 0
    for block in blocks:
        out[lo : lo + len(block)] = block
        lo += len(block)
    return out


def sample_field_batch(spec: MarkovFieldSpec, seed: int, trials: int) -> np.ndarray:
    """Draw ``trials`` independent configurations; shape (trials, n).

    Trial ``t`` consumes the ``t``-th row of a (trials, n) uniform block
    from the Philox stream keyed by ``seed``.  The stream is consumed in row
    order, so the first rows of a larger batch coincide with a smaller batch
    drawn from the same seed.  The block is drawn and walked
    ``_STACK_ROWS`` rows at a time.
    """
    if not isinstance(spec, MarkovFieldSpec):
        raise ValidationError(f"unsupported field type {type(spec).__name__}")
    trials = _integer(trials, "trials", 1)
    walks = (_inverse_cdf_walk(spec, u.T).T for u in _blocks([make_generator(seed)], trials, spec.n))
    return _fill(np.empty((trials, spec.n), dtype=np.uint8), walks)


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
    site = _integer(site, "site")
    if not 0 <= site < spec.n:
        raise ValidationError(f"site {site} out of range for n={spec.n}")
    if site_marginals(spec)[site].min() <= 0.0:
        return np.zeros(spec.n - 1 - site)
    return np.abs(_window_marginals(np.array([-1.0, 1.0]), spec.kernels[site:])[1:, 1])
