"""Observed error vectors conditioned on a hidden Markov field.

Given a latent configuration ``x``, the error bits are conditionally
independent: ``P(y | x) = prod_i q_i(y_i | x)``, and the law of the error
vector is the mixture ``P(y) = sum_x P(x) P(y | x)``.  Two conditional
channels are provided:

* :class:`WindowChannel` -- ``q_i`` depends on the symbols within a fixed
  radius of site ``i`` (sites beyond the boundary are read as symbol 0);
  :class:`PerSiteChannel` builds the radius-0 window, where ``q_i``
  depends only on ``x_i``;
* :class:`GlobalThresholdChannel` -- for binary fields: ``y = x`` while the
  total weight of ``x`` stays at or below a threshold, and ``y`` is the
  all-ones vector the moment the weight exceeds it.

Error vectors are plain uint8 arrays of zeros and ones; a one marks an
erroneous site.

The conditional mean error count ``sum_i q_i(1 | x)`` is a Lipschitz
function of ``x`` under the Hamming distance.  Per-site channels keep the
constant at or below the largest per-site oscillation; the global threshold
channel concentrates a jump of ``n - floor(threshold)`` on a single flip,
which is the separation that makes thresholded errors qualitatively harder
than any per-site channel.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .errors import EnumerationLimitError, ValidationError
from .field import (
    ENUM_LIMIT,
    MarkovFieldSpec,
    _advance,
    _blocks,
    _fill,
    _inverse_cdf_walk,
    _window_marginals,
    mixing_bound,
    mixing_coefficients,
)
from .rng import _integer, make_generator

__all__ = [
    "MAX_WINDOW_RADIUS",
    "ChannelSpec",
    "CovarianceEstimate",
    "GlobalThresholdChannel",
    "HiddenErrorModel",
    "PerSiteChannel",
    "WindowChannel",
    "sample_errors_batch",
    "sampled_covariance",
    "weight_distribution",
]

# Window channels beyond this radius blow up table sizes exponentially and
# are rejected outright.
MAX_WINDOW_RADIUS = 3

_MIN_MC_TRIALS = 1000
_READ_CELLS = 8192  # cells of one read-out chunk: 64 KiB each of intp indices and float64 probabilities


@dataclass(frozen=True, eq=False)
class WindowChannel:
    """Error probabilities reading a symmetric window around each site.

    ``table[i, j]`` is ``P(Y_i = 1 | neighborhood j)`` where ``j`` encodes
    the symbols at sites ``i - radius .. i + radius`` big-endian (leftmost
    site most significant) and out-of-range sites contribute symbol 0.
    Every entry must lie in [0, 1]; NaN and infinities are rejected.
    """

    radius: int
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "radius", _integer(self.radius, "window radius", 0))
        if self.radius > MAX_WINDOW_RADIUS:
            raise ValidationError(
                f"window radius {self.radius} exceeds the supported maximum "
                f"{MAX_WINDOW_RADIUS}"
            )
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2:
            raise ValidationError(
                "channel table must have shape (n, alphabet_size ** (2 * radius + 1))"
            )
        if not np.all((table >= 0.0) & (table <= 1.0)):
            raise ValidationError("channel error probabilities must lie in [0, 1]")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


class PerSiteChannel(WindowChannel):
    """Per-site error probabilities ``table[i, s] = P(Y_i = 1 | X_i = s)``: the radius-0 window."""

    def __init__(self, table):
        super().__init__(radius=0, table=table)


@dataclass(frozen=True)
class GlobalThresholdChannel:
    """Identity channel that switches to all-ones above a weight threshold.

    Binary fields only: ``y = x`` when ``sum(x) <= threshold`` and
    ``y = (1, ..., 1)`` otherwise.
    """

    threshold: float

    def __post_init__(self):
        threshold = float(self.threshold)
        if not math.isfinite(threshold):
            raise ValidationError("threshold must be finite")
        object.__setattr__(self, "threshold", threshold)


ChannelSpec = Union[WindowChannel, GlobalThresholdChannel]


@dataclass(frozen=True, eq=False)
class HiddenErrorModel:
    """A latent Markov field together with a conditional error channel; models compare by identity.

    Each method is the one path to its quantity: the public functions that answer one ask the model.
    """

    field: MarkovFieldSpec
    channel: ChannelSpec

    def __post_init__(self):
        f, c = self.field, self.channel
        if isinstance(c, WindowChannel):
            width = f.alphabet_size ** (2 * c.radius + 1)
            if c.table.shape != (f.n, width):
                raise ValidationError(
                    f"channel table has shape {c.table.shape}, expected ({f.n}, {width})"
                )
        elif isinstance(c, GlobalThresholdChannel):
            if f.alphabet_size != 2:
                raise ValidationError("global threshold channels require a binary field")
        else:
            raise ValidationError(f"unknown channel type {type(c).__name__}")

    @cached_property
    def n(self) -> int:
        """Number of sites; a cached, non-data descriptor, so a subclass may store ``n`` itself."""
        return self.field.n

    def site_rates(self) -> np.ndarray:
        """Exact per-site error probabilities ``E[Y_i]``, shape (n,).

        Table channels read the window marginals of the lifted chain in
        O(n * S**(2r+2)).  Threshold channels add the trigger ``P(W > B)``, the
        last column of the weight pass, to row 0 of :func:`_threshold_joint`,
        ``P(X_i = 1, W <= B)``: O(n * (floor(threshold) + 2)).  Identity
        threshold channels (``floor(B) >= n - 1``) read out like a table.
        """
        if _cuts(self):
            return self.tail(math.floor(self.channel.threshold)) + _threshold_joint(self, pairs=False)[0]
        start, steps, table = _lift(self)
        return (_window_marginals(start, steps) * table).sum(axis=1)

    def mean_rate(self) -> float:
        """Mean per-site error probability ``(1/n) sum_i E[Y_i]``."""
        return float(self.site_rates().mean())

    def lipschitz(self) -> float:
        """Hamming-Lipschitz constant of the conditional mean error count.

        Threshold channels follow the trigger rule of :func:`_trigger_lipschitz`;
        radius-0 tables give the largest per-site oscillation of the error
        probability; wider windows enumerate only the ``S**min(n, 4r + 1)``
        neighbourhood of each flip.
        """
        c = self.channel
        if isinstance(c, GlobalThresholdChannel):
            return _trigger_lipschitz(self.n, c.threshold)
        if c.radius == 0:
            return float((c.table.max(axis=1) - c.table.min(axis=1)).max())
        return _window_lipschitz(self)

    def mixing_bound(self) -> float:
        return mixing_bound(mixing_coefficients(self.field))

    def weight_law(self) -> np.ndarray:
        """Exact law of the total error weight ``sum_i Y_i``, shape (n + 1,).

        The weight pass capped at ``n - 1``, O(n**2 * S**(2r+2)) with no
        enumeration limit.  A threshold channel's pass stops at its cut
        ``floor(threshold)``, O(n * (floor(threshold) + 2)), and its last
        column, the trigger mass, is placed at weight ``n``.
        """
        law = _weight_pass(self, self.n - 1)
        return np.insert(law, law.size - 1, np.zeros(self.n + 1 - law.size))

    def covariance(self) -> np.ndarray:
        """Exact (n, n) covariance of the error bits, ``Var(Y_i)`` on the diagonal.

        Table channels use products of centred window kernels in
        O(n**2 * S**(2r+2)), which never subtract ``E[Y_i] E[Y_j]`` from
        ``E[Y_i Y_j]``; threshold channels add the trigger, the last column
        of the weight pass, to the pair pass of :func:`_threshold_joint` in
        O(n**2 * (floor(threshold) + 1)), unless ``floor(threshold) >= n - 1``
        makes them the identity, which reads out like a table.  Neither
        enumerates the latent space.
        """
        return _threshold_covariance(self) if _cuts(self) else _lifted_covariance(self)

    def tail(self, k: int) -> float:
        """``P(sum Y > k)``: the last column of the weight pass capped at ``k``."""
        k = _integer(k, "k")
        if not 0 <= k < self.n:
            return 1.0 if k < 0 else 0.0
        return float(_weight_pass(self, k)[-1])

    def sample_weights(self, gens, count: int) -> np.ndarray:
        """Error weights of ``count`` epochs from each of ``gens`` in turn, shape (len(gens) * count,).

        Written once for every family, on top of the family's :meth:`_weight_blocks`.  These
        blocks draw a ``count`` above one 2 048-epoch stack through skip-ahead cursors,
        which need Philox generators, as ``make_generator`` returns: a PCG64 one raises
        ValidationError at 2 049 epochs.  A threshold spec's binomial draws take any generator.
        """
        count = _integer(count, "count", 0)
        out = np.empty(len(gens) * count, dtype=np.intp)
        return _fill(out, self._weight_blocks(gens, count) if out.size else ())

    def _weight_blocks(self, gens, count: int):
        """Weights of ``count > 0`` epochs per generator, a stack at a time, from (count, n) walk and error blocks."""
        for bits in _error_bits(self, _blocks(gens, count, self.n, parts=2)):
            yield np.count_nonzero(bits, axis=1)


def _check_model(model):
    """``model`` itself if it is a :class:`HiddenErrorModel` (a threshold spec is one); else ValidationError."""
    if not isinstance(model, HiddenErrorModel):
        raise ValidationError(f"unsupported model type {type(model).__name__}")
    return model


class CovarianceEstimate(NamedTuple):
    """Sampled covariance matrix with elementwise standard errors."""

    values: np.ndarray
    stderr: np.ndarray
    trials: int


def _require_mc(trials: int | None, seed: int | None) -> int:
    """``trials`` as an int; ValidationError for a Monte Carlo request with too few trials or no seed."""
    trials = _integer(trials, "trials", _MIN_MC_TRIALS)
    if seed is None:
        raise ValidationError("Monte Carlo method requires a seed")
    return trials


def _window_codes(x: np.ndarray, s: int, r: int) -> np.ndarray:
    """Big-endian codes (n, rows) of the windows ``i - r .. i + r`` of a site-major (n, rows) symbol block.

    Sites outside the block read symbol 0; codes take the narrowest unsigned type that holds them.
    """
    n = x.shape[0]
    pad = np.zeros((n + 2 * r, x.shape[1]), dtype=np.min_scalar_type(s ** (2 * r + 1) - 1))
    pad[r : r + n] = x
    code = pad[:n]
    for d in range(1, 2 * r + 1):
        code = code * s + pad[d : d + n]
    return code


def _site_probabilities(model: HiddenErrorModel, x: np.ndarray) -> np.ndarray:
    """Conditional error probabilities ``q_i(1 | x)`` for a site-major (n, rows) block.

    One flat ``take`` of the table at ``code + i * width``; a threshold
    channel reads ``max(x, fired)``, ``fired`` marking columns above it.
    """
    c = model.channel
    if isinstance(c, GlobalThresholdChannel):
        return np.maximum(x, x.sum(axis=0) > c.threshold, dtype=float)
    width = c.table.shape[1]
    code = _window_codes(x, model.field.alphabet_size, c.radius)
    return c.table.take(code + np.arange(0, code.shape[0] * width, width)[:, None])


def _error_bits(model: HiddenErrorModel, blocks):
    """Trial-major (rows, n) error bits from alternating walk and error blocks.

    The walk runs site-major on the transposed walk block; the read-out
    takes :func:`_site_probabilities` of row chunks of at most ``_READ_CELLS`` cells.
    A walk block is read before the error block is requested, and an error
    block before the bits are yielded, so a producer may draw every block
    into one buffer: a slice holds one block of uniforms at a time.
    """
    step = max(1, _READ_CELLS // model.n)
    blocks = iter(blocks)
    for walk in blocks:
        x = _inverse_cdf_walk(model.field, walk.T)
        err = next(blocks)
        bits = np.empty(err.shape, dtype=bool)
        for lo in range(0, len(err), step):
            part = slice(lo, lo + step)
            np.less(err[part].T, _site_probabilities(model, x[:, part]), out=bits[part].T)
        yield bits


def _trial_bits(model: HiddenErrorModel, seed: int, trials: int):
    """Error bits of ``trials`` trials from the stream keyed by ``seed``.

    Trial ``t`` reads the ``t``-th run of ``2 n`` uniforms: ``n`` for the
    walk, then ``n`` for the error bits.  Each ``(rows, 2 n)`` slice of the
    stream is split into its walk and error halves.
    """
    n = model.n
    slices = _blocks([make_generator(seed)], trials, 2 * n)
    return _error_bits(model, (half for u in slices for half in (u[:, :n], u[:, n:])))


def sample_errors_batch(model: HiddenErrorModel, seed: int, trials: int) -> np.ndarray:
    """Draw ``trials`` error vectors; shape (trials, n), dtype uint8.

    Trial ``t`` consumes the ``t``-th block of ``2 n`` uniforms from the
    stream — first ``n`` drive the latent chain, the rest threshold the
    conditional error probabilities — so a batch is a prefix-stable
    concatenation of single-trial draws.  The stream is drawn ``_STACK_ROWS``
    trials at a time and read out in chunks of ``_READ_CELLS`` cells.
    """
    n = _check_model(model).n
    trials = _integer(trials, "trials", 1)
    return _fill(np.empty((trials, n), dtype=np.uint8), _trial_bits(model, seed, trials))


# ---------------------------------------------------------------------------
# transfer-matrix backend: the forward algorithm over read-out windows


def _lift(model: HiddenErrorModel):
    """The model as a Markov chain over the windows its channel reads.

    The window of site ``i`` holds the symbols at sites ``i - r .. i + r``
    (``r = 0`` for threshold channels), big-endian, with sites
    outside the chain fixed at symbol 0, so a window's index is its column
    in a window table.  Returns the law of the window at site 0, the
    ``n - 1`` symbol kernels that slide the window one site to the right,
    and the ``(n, S**(2r+1))`` table of ``P(Y_i = 1 | window)``; a threshold
    channel reads its latent bit, ``q = x``.
    """
    f, c = model.field, model.channel
    s, n, r = f.alphabet_size, f.n, getattr(c, "radius", 0)
    pad = np.zeros((s, s))
    pad[:, 0] = 1.0
    first = np.tile(f.initial, (s, 1))

    def into(j):
        """Kernel from the symbol at site ``j - 1`` to the one at site ``j``."""
        if 0 < j < n:
            return f.kernels[j - 1]
        return first if j == 0 else pad

    start = np.ones(1)
    for j in range(-r, r + 1):
        start = (start[:, None] * into(j)[np.arange(start.size) % s]).ravel()
    steps = [into(i + r + 1) for i in range(n - 1)]
    if isinstance(c, GlobalThresholdChannel):
        table = np.tile([0.0, 1.0], (n, 1))
    else:
        table = c.table
    return start, steps, table


def _pull(col: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Conditional expectation one site back: ``(T col)(w)`` for (W, m) ``col``."""
    s = kernel.shape[0]
    if col.shape[0] == s:
        return kernel @ col
    nxt = col.reshape(-1, s, col.shape[1])
    rows = kernel[np.arange(nxt.shape[0]) % s]
    return np.tile(np.einsum("kb,kbm->km", rows, nxt), (s, 1))


def _add_bit(law: np.ndarray, q: np.ndarray) -> None:
    """Fold one independent error bit of rate ``q[b]`` into weight law row ``b``; the last column absorbs."""
    qc = q[:, None]
    top = law[:, -1] * q
    law[:, 1:] = law[:, 1:] * (1.0 - qc) + law[:, :-1] * qc
    law[:, 0] *= 1.0 - q
    law[:, -1] += top


def _weight_pass(model: HiddenErrorModel, cap: int) -> np.ndarray:
    """Law of ``min(W, cap + 1)``; a threshold channel carries its latent ``W`` and caps at its cut."""
    start, steps, table = _lift(model)
    n = model.n
    if isinstance(model.channel, GlobalThresholdChannel):
        cap = min(cap, _trigger_cut(n, model.channel.threshold))
    alpha = np.zeros((start.size, cap + 2))
    alpha[:, 0] = start
    for i in range(n):
        head = alpha[:, : i + 2]
        _add_bit(head, table[i])
        if i + 1 < n:
            alpha[:, : i + 2] = _advance(head, steps[i])
    return alpha.sum(axis=0)


def _trigger_cut(n: int, threshold: float) -> int:
    """``floor(threshold)`` clipped to ``[-1, n]``: latent weights above it trigger."""
    return math.floor(min(max(threshold, -1.0), n))


def _trigger_lipschitz(n: int, threshold: float) -> float:
    """Hamming-Lipschitz constant of a weight trigger over ``n`` bits.

    A single flip across the trigger boundary jumps the error count from
    ``b = floor(threshold)`` to ``n``, so the constant is ``n - b`` while
    ``0 <= b < n``; it is 1 above (identity channel) and 0 below (constant
    all-ones).
    """
    b = _trigger_cut(n, threshold)
    return float(n - b) if 0 <= b < n else float(b == n)


def _cuts(model: HiddenErrorModel) -> bool:
    """A threshold channel with ``floor(B) < n - 1``; above that only the all-ones state triggers, so it is the identity."""
    return isinstance(model.channel, GlobalThresholdChannel) and model.channel.threshold < model.n - 1


def _threshold_joint(model: HiddenErrorModel, pairs: bool) -> np.ndarray:
    """Masses of error bits that stay below the trigger of a threshold channel.

    With ``W`` the latent weight and ``b = floor(B)``, a backward pass gives
    ``right[j, m] = P(X_{j+1} + ... + X_{n-1} <= m | X_j = 1)`` for ``m < b``.
    A forward array over (start row, symbol, partial weight below ``b``) is
    contracted with it at every site ``j``: row 0 has no start site and gives
    ``P(X_j = 1, W <= B)``; row ``i + 1`` requires ``X_i = 1`` and gives
    ``P(X_i = 1, X_j = 1, W <= B)`` for ``i < j``.  ``pairs=False`` carries
    row 0 alone, O(n * (b + 1)); ``pairs=True`` all ``n + 1`` rows,
    O(n**2 * (b + 1)) time and O(n * (b + 1)) memory.
    """
    start, steps, table = _lift(model)
    n, b = model.n, max(_trigger_cut(model.n, model.channel.threshold), 0)
    right = np.empty((n, b))
    beta = np.zeros((2, b + 1))
    beta[:, 0] = 1.0
    for i in range(n - 1, -1, -1):
        right[i] = np.cumsum(beta[1])[:b]
        if i:
            _add_bit(beta, table[i])
            beta = _pull(beta, steps[i - 1])
    joint = np.zeros((n + 1 if pairs else 1, n))
    if not b:
        return joint
    fwd = np.zeros((len(joint), 2, b))
    fwd[0, :, 0] = start
    for j in range(n):
        live = fwd[: j + 2]
        joint[: j + 1, j] = live[: j + 1, 1] @ right[j, ::-1]
        if j + 1 < len(fwd):
            fwd[j + 1, 1] = fwd[0, 1]
        # The read-out is q = x: a one at site j adds one to the weight.
        live[:, 1, 1:] = live[:, 1, :-1]
        live[:, 1, 0] = 0.0
        if j + 1 < n:
            live[:] = steps[j].T @ live
    return joint


def _threshold_covariance(model: HiddenErrorModel) -> np.ndarray:
    """Exact covariance of a threshold channel from :func:`_threshold_joint`.

    ``Cov(Y_i, Y_j) = P(W > B) + P(X_i = 1, X_j = 1, W <= B) - r_i r_j``.
    Unlike the centred pass of the other channels this forms the difference
    ``E[Y_i Y_j] - r_i r_j``, the same difference the enumeration oracle
    forms, so its rounding sits at the scale of ``E[Y_i Y_j]``.
    """
    trigger, joint = model.tail(math.floor(model.channel.threshold)), _threshold_joint(model, pairs=True)
    rates = trigger + joint[0]
    cov = trigger + joint[1:] + joint[1:].T - np.outer(rates, rates)
    np.fill_diagonal(cov, rates * (1.0 - rates))
    return cov


def _window_lipschitz(model: HiddenErrorModel) -> float:
    """Largest one-flip change of ``sum_i q_i(1 | x)`` for a table channel.

    A flip at site ``k`` moves only the windows of sites ``k - r .. k + r``,
    which read sites ``k - 2r .. k + 2r``, so each flip is resolved on that
    neighbourhood alone: ``S**min(n, 4r + 1)`` configurations per site,
    coded by :func:`_window_codes` (sites outside the chain read symbol 0).
    Codes depend only on the width, so each of the at most ``2r + 1`` widths is coded once.
    """
    c = model.channel
    s, n, r = model.field.alphabet_size, model.n, c.radius
    count = s ** min(n, 4 * r + 1)
    if count > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"{count} configurations per flip neighbourhood exceed the "
            f"enumeration limit {ENUM_LIMIT}"
        )
    codes, best = {}, 0.0
    for k in range(n):
        lo, hi = max(0, k - 2 * r), min(n - 1, k + 2 * r)
        if hi - lo not in codes:
            codes[hi - lo] = _window_codes(np.indices((s,) * (hi - lo + 1)).reshape(hi - lo + 1, -1), s, r)
        code = codes[hi - lo]
        psi = sum(c.table[i].take(code[i - lo]) for i in range(max(0, k - r), min(n - 1, k + r) + 1))
        view = psi.reshape(s ** (k - lo), s, s ** (hi - k))
        best = max(best, float((view.max(axis=1) - view.min(axis=1)).max()))
    return best


def _lifted_covariance(model: HiddenErrorModel) -> np.ndarray:
    """Exact covariance through products of centred window kernels.

    ``Cov(Y_i, Y_j) = sum_w p_i(w) qc_i(w) [(T_i - 1 p_{i+1}^T) ...
    (T_{j-1} - 1 p_j^T) qc_j](w)``, with ``qc`` the read-out centred under
    the window marginals ``p``.  A centred kernel maps a vector centred
    under ``p_{i+1}`` to ``T_i`` times that vector, so the pass applies the
    plain kernels to centred read-outs.  No ``E[Y_i Y_j] - E[Y_i] E[Y_j]``
    difference is ever formed: rounding stays at the scale of the centred
    terms, not of ``E[Y_i Y_j]``, and a constant rounding drift in the
    pulled vector is cancelled by the centred left factor.
    """
    start, steps, table = _lift(model)
    p = _window_marginals(start, steps)
    mean = (p * table).sum(axis=1)
    centred = table - mean[:, None]
    n = model.n
    cov = np.zeros((n, n))
    # Column j of ``ahead`` holds E[qc_j(window j) | window i = w].
    ahead = np.zeros((table.shape[1], n))
    for i in range(n - 2, -1, -1):
        ahead[:, i + 1] = centred[i + 1]
        ahead[:, i + 1 :] = _pull(ahead[:, i + 1 :], steps[i])
        cov[i, i + 1 :] = (p[i] * centred[i]) @ ahead[:, i + 1 :]
    cov += cov.T
    np.fill_diagonal(cov, mean * (1.0 - mean))
    return cov


def sampled_covariance(model: HiddenErrorModel, trials: int, seed: int) -> CovarianceEstimate:
    """Monte Carlo covariance matrix of the error bits; the exact one is ``model.covariance()``.

    Pools exact integer counts over ``trials`` vectors sampled as
    :func:`sample_errors_batch` draws them and returns a
    :class:`CovarianceEstimate` whose ``stderr`` is the asymptotic standard
    error of each entry.
    """
    _check_model(model)
    trials = _require_mc(trials, seed)
    # Integer counts below 2**53, so float64 (and BLAS) sums them exactly.
    counts = np.zeros(model.n)
    joint = np.zeros((model.n, model.n))
    for bits in _trial_bits(model, seed, trials):
        y = bits.astype(float)
        counts += y.sum(axis=0)
        joint += y.T @ y
    mu = counts / trials
    second = joint / trials
    cov = second - np.outer(mu, mu)
    np.fill_diagonal(cov, mu * (1.0 - mu))
    # Asymptotic variance of the sample covariance of two indicator
    # variables, entirely determined by the pooled first and second moments.
    a = 1.0 - 2.0 * mu
    fourth = (
        second * np.outer(a, a)
        + np.outer(mu * a, mu**2)
        + np.outer(mu**2, mu * a)
        + np.outer(mu**2, mu**2)
    )
    var = np.maximum(fourth - cov**2, 0.0) / trials
    return CovarianceEstimate(values=cov, stderr=np.sqrt(var), trials=trials)


def weight_distribution(model: HiddenErrorModel) -> np.ndarray:
    """Exact law of the total error weight ``sum_i Y_i``, shape (n + 1,): ``model.weight_law()``, exported as ``weight_law`` too."""
    return _check_model(model).weight_law()
