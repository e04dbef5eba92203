"""Observed error vectors conditioned on a hidden Markov field.

Given a latent configuration ``x``, the error bits are conditionally
independent: ``P(y | x) = prod_i q_i(y_i | x)``, and the law of the error
vector is the mixture ``P(y) = sum_x P(x) P(y | x)``.  Three conditional
channels are provided:

* :class:`PerSiteChannel` -- ``q_i`` depends only on ``x_i``;
* :class:`WindowChannel` -- ``q_i`` depends on the symbols within a fixed
  radius of site ``i`` (sites beyond the boundary are read as symbol 0);
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
from typing import Union

import numpy as np

from .errors import EnumerationLimitError, ValidationError
from .field import (
    ENUM_LIMIT,
    MarkovFieldSpec,
    _inverse_cdf_walk,
    all_sequences,
    exact_field_distribution,
    mixing_bound,
    mixing_coefficients,
    site_marginals,
)
from .rng import make_generator

__all__ = [
    "MAX_WINDOW_RADIUS",
    "ChannelSpec",
    "CovarianceEstimate",
    "GlobalThresholdChannel",
    "HiddenErrorModel",
    "MonteCarloScalar",
    "PerSiteChannel",
    "WindowChannel",
    "conditional_weight_table",
    "covariance_matrix",
    "error_rate",
    "exact_error_distribution",
    "expected_errors",
    "lipschitz_constant",
    "sample_errors",
    "sample_errors_batch",
    "site_error_rates",
    "weight_distribution",
]

# Window channels beyond this radius blow up table sizes exponentially and
# are rejected outright.
MAX_WINDOW_RADIUS = 3

_MIN_MC_TRIALS = 1000

_CHUNK = 4096

# Rows walked and read out together, few enough to stay in cache; retention
# stacks trials' blocks up to this many.
_STACK_ROWS = 2048


@dataclass(frozen=True)
class PerSiteChannel:
    """Per-site error probabilities: ``table[i, s] = P(Y_i = 1 | X_i = s)``."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2:
            raise ValidationError("per-site table must have shape (n, alphabet_size)")
        if np.any(table < 0.0) or np.any(table > 1.0):
            raise ValidationError("per-site error probabilities must lie in [0, 1]")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def n(self) -> int:
        return self.table.shape[0]


@dataclass(frozen=True)
class WindowChannel:
    """Error probabilities reading a symmetric window around each site.

    ``table[i, j]`` is ``P(Y_i = 1 | neighborhood j)`` where ``j`` encodes
    the symbols at sites ``i - radius .. i + radius`` big-endian (leftmost
    site most significant) and out-of-range sites contribute symbol 0.
    """

    radius: int
    table: np.ndarray

    def __post_init__(self):
        if not isinstance(self.radius, int) or self.radius < 0:
            raise ValidationError("window radius must be a non-negative integer")
        if self.radius > MAX_WINDOW_RADIUS:
            raise ValidationError(
                f"window radius {self.radius} exceeds the supported maximum "
                f"{MAX_WINDOW_RADIUS}"
            )
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2:
            raise ValidationError(
                "window table must have shape (n, alphabet_size ** (2 * radius + 1))"
            )
        if np.any(table < 0.0) or np.any(table > 1.0):
            raise ValidationError("window error probabilities must lie in [0, 1]")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def n(self) -> int:
        return self.table.shape[0]


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


ChannelSpec = Union[PerSiteChannel, WindowChannel, GlobalThresholdChannel]


@dataclass(frozen=True)
class HiddenErrorModel:
    """A latent Markov field together with a conditional error channel."""

    field: MarkovFieldSpec
    channel: ChannelSpec

    def __post_init__(self):
        f, c = self.field, self.channel
        if isinstance(c, PerSiteChannel):
            if c.table.shape != (f.n, f.alphabet_size):
                raise ValidationError(
                    f"per-site table has shape {c.table.shape}, expected "
                    f"({f.n}, {f.alphabet_size})"
                )
        elif isinstance(c, WindowChannel):
            width = f.alphabet_size ** (2 * c.radius + 1)
            if c.table.shape != (f.n, width):
                raise ValidationError(
                    f"window table has shape {c.table.shape}, expected ({f.n}, {width})"
                )
        elif isinstance(c, GlobalThresholdChannel):
            if f.alphabet_size != 2:
                raise ValidationError("global threshold channels require a binary field")
        else:
            raise ValidationError(f"unknown channel type {type(c).__name__}")

    @property
    def n(self) -> int:
        return self.field.n

    def mean_rate(self) -> float:
        return error_rate(self)

    def lipschitz(self) -> float:
        return lipschitz_constant(self)

    def mixing_bound(self) -> float:
        return mixing_bound(mixing_coefficients(self.field))

    def weight_law(self) -> np.ndarray:
        return weight_distribution(self)

    def covariance(self) -> np.ndarray:
        return covariance_matrix(self)

    def draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        """A walk block and then an error-bit block of uniforms, viewed as (count, 2, n)."""
        return gen.random((2, count, self.n)).transpose(1, 0, 2)

    def weights(self, draws: np.ndarray) -> np.ndarray:
        """Error weight of each row of stacked :meth:`draw` output."""
        out = np.empty(len(draws), dtype=np.intp)
        for lo, bits in _error_slices(self, draws):
            out[lo : lo + len(bits)] = np.count_nonzero(bits, axis=1)
        return out


@dataclass(frozen=True)
class MonteCarloScalar:
    """A scalar Monte Carlo estimate with a normal 95% confidence interval."""

    value: float
    stderr: float
    ci_lo: float
    ci_hi: float
    trials: int


@dataclass(frozen=True)
class CovarianceEstimate:
    """Sampled covariance matrix with elementwise standard errors."""

    values: np.ndarray
    stderr: np.ndarray
    trials: int


def _require_mc(trials: int | None, seed: int | None) -> None:
    """Reject a Monte Carlo request with too few trials or no seed."""
    if trials is None or trials < _MIN_MC_TRIALS:
        raise ValidationError(f"Monte Carlo mode requires trials >= {_MIN_MC_TRIALS}")
    if seed is None:
        raise ValidationError("Monte Carlo mode requires a seed")


def _site_probabilities(model: HiddenErrorModel, x: np.ndarray) -> np.ndarray:
    """Conditional error probabilities ``q_i(1 | x)`` for a batch of x rows."""
    c = model.channel
    n = model.n
    if isinstance(c, PerSiteChannel):
        return c.table[np.arange(n)[None, :], x]
    if isinstance(c, WindowChannel):
        s = model.field.alphabet_size
        idx = np.zeros(x.shape, dtype=np.int64)
        for d in range(-c.radius, c.radius + 1):
            cols = np.arange(n) + d
            valid = (cols >= 0) & (cols < n)
            vals = np.where(valid[None, :], x[:, np.clip(cols, 0, n - 1)], 0)
            idx = idx * s + vals
        return c.table[np.arange(n)[None, :], idx]
    weights = x.sum(axis=1)
    return np.where((weights <= c.threshold)[:, None], x, 1).astype(float)


def expected_errors(model: HiddenErrorModel, x) -> float:
    """Conditional mean number of errors, ``sum_i q_i(1 | x)``."""
    x = np.asarray(x, dtype=np.uint8)
    if x.shape != (model.n,):
        raise ValidationError(f"configuration must have shape ({model.n},)")
    if x.max(initial=0) >= model.field.alphabet_size:
        raise ValidationError("configuration contains symbols outside the alphabet")
    return float(_site_probabilities(model, x[None, :])[0].sum())


def _error_slices(model: HiddenErrorModel, u: np.ndarray):
    """``(first row, error bits)`` per ``_STACK_ROWS``-row slice of (rows, 2, n) uniforms."""
    for lo in range(0, len(u), _STACK_ROWS):
        rows = u[lo : lo + _STACK_ROWS]
        yield lo, rows[:, 1] < _site_probabilities(model, _inverse_cdf_walk(model.field, rows[:, 0]))


def sample_errors_batch(model: HiddenErrorModel, seed: int, trials: int) -> np.ndarray:
    """Draw ``trials`` error vectors; shape (trials, n), dtype uint8.

    Trial ``t`` consumes the ``t``-th block of ``2 n`` uniforms from the
    stream — first ``n`` drive the latent chain, the rest threshold the
    conditional error probabilities — so a batch is a prefix-stable
    concatenation of single-trial draws.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    gen = make_generator(seed)
    u = gen.random((trials, 2, model.n))
    out = np.empty((trials, model.n), dtype=np.uint8)
    for lo, bits in _error_slices(model, u):
        out[lo : lo + len(bits)] = bits
    return out


def sample_errors(model: HiddenErrorModel, seed: int) -> np.ndarray:
    """Draw one error vector; shape (n,), dtype uint8."""
    return sample_errors_batch(model, seed, 1)[0]


def _require_enumerable_states(model: HiddenErrorModel) -> int:
    count = model.field.state_count
    if count > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"{model.field.alphabet_size}**{model.n} latent configurations "
            f"exceed the enumeration limit {ENUM_LIMIT}"
        )
    return count


def _enumerate_chunks(model: HiddenErrorModel):
    """Yield (field probabilities, conditional error probabilities) chunks."""
    count = _require_enumerable_states(model)
    law = exact_field_distribution(model.field)
    s, n = model.field.alphabet_size, model.n
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        x = all_sequences(s, n, start, stop)
        yield law[start:stop], _site_probabilities(model, x)


def exact_error_distribution(model: HiddenErrorModel) -> np.ndarray:
    """Exact law of the error vector as a flat vector of length 2**n.

    Error vectors are indexed big-endian (site 0 most significant), matching
    the convention of :func:`corrmem.field.exact_field_distribution`.
    """
    n = model.n
    if 2**n > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"2**{n} error vectors exceed the enumeration limit {ENUM_LIMIT}"
        )
    out = np.zeros(2**n)
    for p_chunk, q_chunk in _enumerate_chunks(model):
        cond = np.ones((p_chunk.size, 1))
        for i in range(n):
            qi = q_chunk[:, i][:, None, None]
            probs = np.concatenate([1.0 - qi, qi], axis=2)
            cond = (cond[:, :, None] * probs).reshape(cond.shape[0], -1)
        out += p_chunk @ cond
    return out


# ---------------------------------------------------------------------------
# transfer-matrix backend: the forward algorithm over read-out windows


def _lift(model: HiddenErrorModel):
    """The model as a Markov chain over the windows its channel reads.

    The window of site ``i`` holds the symbols at sites ``i - r .. i + r``
    (``r = 0`` for per-site and threshold channels), big-endian, with sites
    outside the chain fixed at symbol 0, so a window's index is its column
    in a window table.  Returns the law of the window at site 0, the
    ``n - 1`` symbol kernels that slide the window one site to the right,
    and the ``(n, S**(2r+1))`` table of ``P(Y_i = 1 | window)``; a threshold
    channel reads its latent bit, ``q = x``.
    """
    f, c = model.field, model.channel
    s, n = f.alphabet_size, f.n
    r = c.radius if isinstance(c, WindowChannel) else 0
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


def _pull(col: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Conditional expectation one site back: ``(T col)(w)`` for (W, m) ``col``."""
    s = kernel.shape[0]
    if col.shape[0] == s:
        return kernel @ col
    nxt = col.reshape(-1, s, col.shape[1])
    rows = kernel[np.arange(nxt.shape[0]) % s]
    return np.tile(np.einsum("kb,kbm->km", rows, nxt), (s, 1))


def _window_marginals(start: np.ndarray, steps) -> np.ndarray:
    """Law of the window at every site, shape (n, W)."""
    out = [start]
    for kernel in steps:
        out.append(_advance(out[-1], kernel))
    return np.array(out)


def _add_bit(law: np.ndarray, q: np.ndarray) -> None:
    """Fold one independent error bit of rate ``q[b]`` into weight law row ``b``."""
    qc = q[:, None]
    law[:, 1:] = law[:, 1:] * (1.0 - qc) + law[:, :-1] * qc
    law[:, 0] *= 1.0 - q


def _weight_pass(start: np.ndarray, steps, table: np.ndarray) -> np.ndarray:
    """Law of ``sum_i Y_i`` carried forward as (window, weight so far)."""
    n = table.shape[0]
    alpha = np.zeros((start.size, n + 1))
    alpha[:, 0] = start
    for i in range(n):
        head = alpha[:, : i + 2]
        _add_bit(head, table[i])
        if i + 1 < n:
            alpha[:, : i + 2] = _advance(head, steps[i])
    return alpha.sum(axis=0)


def _threshold_cut(model: HiddenErrorModel) -> int:
    """``floor(threshold)`` clipped to ``[-1, n]``: latent weights above it trigger."""
    return min(max(math.floor(model.channel.threshold), -1), model.n)


def _threshold_site_rates(model: HiddenErrorModel) -> np.ndarray:
    """``P(Y_i = 1) = P(sum X > B) + P(X_i = 1, sum X <= B)`` by forward-backward."""
    start, steps, table = _lift(model)
    n, b = model.n, _threshold_cut(model)
    # right[i, m] = P(X_{i+1} + ... + X_{n-1} <= m | X_i = 1)
    right = np.empty((n, n + 1))
    beta = np.zeros((2, n + 1))
    beta[:, 0] = 1.0
    for i in range(n - 1, -1, -1):
        right[i] = np.cumsum(beta[1])
        if i:
            _add_bit(beta, table[i])
            beta = _pull(beta, steps[i - 1])
    rates = np.zeros(n)
    alpha = np.zeros((2, n + 1))
    alpha[:, 0] = start
    for i in range(n):
        if b >= 1:
            rates[i] = alpha[1, :b] @ right[i, b - 1 :: -1]
        _add_bit(alpha, table[i])
        if i + 1 < n:
            alpha = _advance(alpha, steps[i])
    return rates + alpha.sum(axis=0)[b + 1 :].sum()


def site_error_rates(model: HiddenErrorModel) -> np.ndarray:
    """Exact per-site error probabilities ``E[Y_i]``, shape (n,).

    Per-site channels read the site marginals of the chain, window channels
    the window marginals of the lifted chain, both in O(n * S**(2r+2)).
    Threshold channels combine a forward and a backward pass over
    (symbol, partial weight) in O(n**2).
    """
    c = model.channel
    if isinstance(c, PerSiteChannel):
        marginals = site_marginals(model.field)
        return (marginals * c.table).sum(axis=1)
    if isinstance(c, WindowChannel):
        start, steps, table = _lift(model)
        return (_window_marginals(start, steps) * table).sum(axis=1)
    return _threshold_site_rates(model)


def error_rate(model: HiddenErrorModel, mode: str = "exact", trials: int | None = None, seed: int | None = None):
    """Mean per-site error probability ``(1/n) sum_i E[Y_i]``.

    ``mode="exact"`` returns a float; ``mode="mc"`` samples ``trials`` error
    vectors and returns a :class:`MonteCarloScalar` with a 95% interval.
    """
    if mode == "exact":
        return float(site_error_rates(model).mean())
    if mode != "mc":
        raise ValidationError(f"unknown mode {mode!r}")
    _require_mc(trials, seed)
    y = sample_errors_batch(model, seed, trials)
    per_trial = y.mean(axis=1)
    value = float(per_trial.mean())
    stderr = float(per_trial.std(ddof=1) / math.sqrt(trials))
    return MonteCarloScalar(
        value=value,
        stderr=stderr,
        ci_lo=value - 1.96 * stderr,
        ci_hi=value + 1.96 * stderr,
        trials=trials,
    )


def _window_lipschitz(model: HiddenErrorModel) -> float:
    """Largest one-flip change of ``sum_i q_i(1 | x)`` for a window channel.

    A flip at site ``k`` moves only the windows of sites ``k - r .. k + r``,
    which read sites ``k - 2r .. k + 2r``, so each flip is resolved on that
    neighbourhood alone: ``S**min(n, 4r + 1)`` configurations per site.
    """
    c = model.channel
    s, n, r = model.field.alphabet_size, model.n, c.radius
    count = s ** min(n, 4 * r + 1)
    if count > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"{count} configurations per flip neighbourhood exceed the "
            f"enumeration limit {ENUM_LIMIT}"
        )
    best = 0.0
    for k in range(n):
        lo, hi = max(0, k - 2 * r), min(n - 1, k + 2 * r)
        x = np.indices((s,) * (hi - lo + 1)).reshape(hi - lo + 1, -1)
        psi = np.zeros(x.shape[1])
        for i in range(max(0, k - r), min(n - 1, k + r) + 1):
            idx = np.zeros(x.shape[1], dtype=np.int64)
            for site in range(i - r, i + r + 1):
                idx = idx * s + (x[site - lo] if 0 <= site < n else 0)
            psi += c.table[i, idx]
        view = psi.reshape(s ** (k - lo), s, s ** (hi - k))
        best = max(best, float((view.max(axis=1) - view.min(axis=1)).max()))
    return best


def lipschitz_constant(model: HiddenErrorModel, method: str = "auto") -> float:
    """Hamming-Lipschitz constant of the conditional mean error count.

    ``method="closed_form"`` (per-site channels only) returns the largest
    per-site oscillation of the error probability.  ``method="brute_force"``
    enumerates all single-site flips of all ``S**n`` configurations.
    ``method="auto"`` uses the closed form for per-site channels,
    ``n - floor(threshold)`` for threshold channels (1 when the threshold is
    at least ``n``, 0 when it is negative), and for window channels
    enumerates only the ``S**min(n, 4r + 1)`` neighbourhood of each flip.
    """
    if method not in ("auto", "closed_form", "brute_force"):
        raise ValidationError(f"unknown method {method!r}")
    c = model.channel
    if method == "brute_force":
        psi = np.concatenate([q_chunk.sum(axis=1) for _, q_chunk in _enumerate_chunks(model)])
        s, n = model.field.alphabet_size, model.n
        best = 0.0
        for axis in range(n):
            view = psi.reshape(s**axis, s, s ** (n - 1 - axis))
            gap = (view.max(axis=1) - view.min(axis=1)).max(initial=0.0)
            best = max(best, float(gap))
        return best
    if isinstance(c, PerSiteChannel):
        table = c.table
        return float((table.max(axis=1) - table.min(axis=1)).max())
    if method == "closed_form":
        raise ValidationError("closed form is only available for per-site channels")
    if isinstance(c, WindowChannel):
        return _window_lipschitz(model)
    b = _threshold_cut(model)
    if b < 0:
        return 0.0
    return 1.0 if b == model.n else float(model.n - b)


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


def covariance_matrix(model: HiddenErrorModel, mode: str = "exact", trials: int | None = None, seed: int | None = None):
    """Covariance matrix of the error bits.

    ``mode="exact"`` returns an (n, n) array whose diagonal holds
    ``Var(Y_i)``.  Per-site and window channels use products of centred
    window kernels in O(n**2 * S**(2r+2)), which never subtract
    ``E[Y_i] E[Y_j]`` from ``E[Y_i Y_j]``; threshold channels enumerate
    the latent space.  ``mode="mc"`` pools exact integer counts over
    ``trials`` sampled vectors and returns a :class:`CovarianceEstimate`
    whose ``stderr`` is the asymptotic standard error of each entry.
    """
    n = model.n
    if mode == "exact":
        if not isinstance(model.channel, GlobalThresholdChannel):
            return _lifted_covariance(model)
        mean = np.zeros(n)
        second = np.zeros((n, n))
        for p_chunk, q_chunk in _enumerate_chunks(model):
            mean += p_chunk @ q_chunk
            second += (q_chunk * p_chunk[:, None]).T @ q_chunk
        cov = second - np.outer(mean, mean)
        np.fill_diagonal(cov, mean * (1.0 - mean))
        return cov
    if mode != "mc":
        raise ValidationError(f"unknown mode {mode!r}")
    _require_mc(trials, seed)
    y = sample_errors_batch(model, seed, trials).astype(np.int64)
    counts = y.sum(axis=0)
    joint = y.T @ y
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


def _weight_dp(q_rows: np.ndarray) -> np.ndarray:
    """Sum-of-independent-bits recursion: (B, n) rates -> (B, n + 1) laws."""
    block, n = q_rows.shape
    dp = np.zeros((block, n + 1))
    dp[:, 0] = 1.0
    for i in range(n):
        _add_bit(dp, q_rows[:, i])
    return dp


def conditional_weight_table(model: HiddenErrorModel) -> np.ndarray:
    """Conditional law of the error weight for every latent configuration.

    Returns an array of shape (S**n, n + 1); row ``j`` is the distribution
    of ``sum_i Y_i`` given the configuration with index ``j``.
    """
    count = _require_enumerable_states(model)
    out = np.empty((count, model.n + 1))
    row = 0
    for _, q_chunk in _enumerate_chunks(model):
        out[row : row + q_chunk.shape[0]] = _weight_dp(q_chunk)
        row += q_chunk.shape[0]
    return out


def weight_distribution(model: HiddenErrorModel) -> np.ndarray:
    """Exact law of the total error weight ``sum_i Y_i``, shape (n + 1,).

    One forward pass over (window, partial weight) in O(n**2 * S**(2r+2)),
    with no enumeration limit; per-site channels are the ``r = 0`` case.  A
    threshold channel runs its latent weight law through the same pass and
    moves all mass above ``floor(threshold)`` onto weight ``n``.
    """
    law = _weight_pass(*_lift(model))
    if isinstance(model.channel, GlobalThresholdChannel):
        cut = _threshold_cut(model) + 1
        if cut < model.n:
            law[model.n] = law[cut:].sum()
            law[cut : model.n] = 0.0
    return law
