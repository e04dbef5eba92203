"""Abstract distance-limited code memory under repeated error epochs.

The code is abstract: all that matters is that an epoch whose error weight
stays at or below the correction threshold is corrected perfectly, and any
heavier epoch fails the memory for good.  The threshold is derived from the
minimum distance ``d``: ``floor((d - 1) / 2)`` under unique decoding
(``half_distance`` mode), or the optimistic ``d - 1`` (``full_distance``
mode).

Retention is the number of epochs until the first failure.  For error laws
that are i.i.d. across epochs this is geometric, so simulated retention can
be checked against a closed-form mean and a Kolmogorov-Smirnov comparison.
The module also carries the union-bound lifetime guarantee: if every epoch
fails with probability at most ``exp(-b n)``, then
``exp(b n - log n)`` epochs survive together with probability ``1 - 1/n``.

Every function here takes a :class:`~corrmem.channel.HiddenErrorModel`, a
threshold spec included, and uses only its model methods: ``n``,
``mean_rate()``, ``lipschitz()``, ``mixing_bound()``, ``weight_law()``,
``tail(k)`` (exact ``P(sum Y > k)`` for every integer ``k``),
``covariance()`` (exact, n x n) and ``sample_weights(gens, count)``.
"""

import math
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from . import field as _field
from .bounds import _tail_estimate
from .channel import _check_model
# Unused here, but kept bound: the benchmark's tracer tests read this name.
from .channel import weight_distribution as _hidden_weight_distribution
from .errors import ValidationError
from .rng import _integer, derive_seed, make_generator

__all__ = [
    "CodeModel",
    "LifetimeBound",
    "RetentionEstimate",
    "ScalingResult",
    "geometric_ks_statistic",
    "ks_critical_value",
    "lifetime_lower_bound",
    "scaling_experiment",
    "simulate_retention",
]

_EPOCH_BLOCK = 64


@dataclass(frozen=True)
class CodeModel:
    """An ``[[n, k, d]]`` code reduced to its correction threshold.

    ``mode`` selects the threshold: ``"half_distance"`` gives the unique
    decoding radius ``floor((d - 1) / 2)``; ``"full_distance"`` gives the
    optimistic ``d - 1``.
    """

    n: int
    k: int
    d: int
    mode: str = "half_distance"

    def __post_init__(self):
        n = _integer(self.n, "n", 1)
        k, d = _integer(self.k, "k"), _integer(self.d, "d")
        if not 0 <= k < n:
            raise ValidationError("k must be an integer with 0 <= k < n")
        if not 1 <= d <= n:
            raise ValidationError("d must be an integer with 1 <= d <= n")
        for name, value in (("n", n), ("k", k), ("d", d)):
            object.__setattr__(self, name, value)
        if self.mode not in ("half_distance", "full_distance"):
            raise ValidationError(
                f"mode must be 'half_distance' or 'full_distance', got {self.mode!r}"
            )

    @property
    def correction_threshold(self) -> int:
        """Largest error weight the code corrects."""
        if self.mode == "half_distance":
            return (self.d - 1) // 2
        return self.d - 1


class RetentionEstimate(NamedTuple):
    """Simulated epochs-to-failure.

    ``failure_epochs[t]`` is the first failing epoch of trial ``t`` (1-based)
    or 0 when the trial was censored at ``max_epochs``.  The mean and its
    standard error are computed over uncensored trials only.
    """

    failure_epochs: np.ndarray
    censored: np.ndarray
    mean: float
    stderr: float
    trials: int
    censored_count: int


class LifetimeBound(NamedTuple):
    """Union-bound lifetime guarantee.

    If every epoch fails with probability at most
    ``per_epoch_failure_ceiling``, then ``epochs`` epochs all succeed with
    probability at least ``confidence``.  ``degenerate`` flags a bound below
    a single epoch, which certifies nothing.
    """

    epochs: float
    log_epochs: float
    per_epoch_failure_ceiling: float
    confidence: float
    degenerate: bool


class ScalingResult(NamedTuple):
    """Least-squares fits of log failure probability against ``n`` and ``ln n``.

    ``tails[i]`` is point ``i``'s :class:`~corrmem.bounds.TailEstimate`.
    ``slope``, ``intercept`` and ``r_squared`` fit ``ln p`` against ``n``;
    ``order`` is minus the slope of ``ln p`` against ``ln n`` (the
    polynomial growth order of ``1 / p``) and ``order_r_squared`` that
    fit's R^2.  The fitted fields are ``None`` when ``status`` is
    ``"inconclusive"``.
    """

    tails: list
    slope: float | None
    intercept: float | None
    r_squared: float | None
    order: float | None
    order_r_squared: float | None
    status: str


def simulate_retention(model, code: CodeModel, max_epochs: int, trials: int, seed: int) -> RetentionEstimate:
    """Simulate epochs until the first uncorrectable error, per trial.

    Each trial runs an independent derived stream, so results do not depend
    on how trials are scheduled.  Epochs run in blocks of ``_EPOCH_BLOCK``,
    the last one shorter when ``max_epochs`` is not a multiple of it.  A pool
    of at most ``field._STACK_ROWS // min(_EPOCH_BLOCK, max_epochs)`` trials
    (at least one) is live at a time: a trial enters it in trial order when
    a slot frees, and only then derives its seed and opens its generator.
    Each step, every pooled trial draws its next block from its own stream,
    with one ``sample_weights`` call per distinct block length, so memory
    does not grow with ``trials``.  A trial leaves the pool, and drops its
    generator, at its first failure or when censored after ``max_epochs``
    epochs; censored trials are excluded from the mean.
    """
    if _check_model(model).n != code.n:
        raise ValidationError("model and code sizes differ")
    max_epochs = _integer(max_epochs, "max_epochs", 1)
    trials = _integer(trials, "trials", 1)
    tau = code.correction_threshold
    pool = max(1, _field._STACK_ROWS // min(_EPOCH_BLOCK, max_epochs))
    epochs = np.zeros(trials, dtype=np.int64)
    # the pool: trial ids, epochs survived so far and generators, slot by slot
    ids, done = np.zeros((2, 0), dtype=np.int64)
    gens, entered = [], 0
    while entered < trials or ids.size:
        new = np.arange(entered, min(trials, entered + pool - ids.size))
        entered += new.size
        gens += [make_generator(derive_seed(seed, "retention-trial", t)) for t in new.tolist()]
        ids, done = np.concatenate([ids, new]), np.concatenate([done, np.zeros_like(new)])
        block = np.minimum(_EPOCH_BLOCK, max_epochs - done)
        failed = np.zeros((ids.size, block.max()), dtype=bool)
        for count in np.unique(block).tolist():
            rows = block == count
            failed[rows, :count] = (model.sample_weights(list(compress(gens, rows)), count) > tau).reshape(-1, count)
        hit = failed.any(axis=1)
        epochs[ids[hit]] = done[hit] + failed[hit].argmax(axis=1) + 1
        done += block
        stay = ~hit & (done < max_epochs)
        ids, done, gens = ids[stay], done[stay], list(compress(gens, stay))
    censored = epochs == 0
    observed = epochs[~censored]
    if observed.size:
        mean = float(observed.mean())
        stderr = (
            float(observed.std(ddof=1) / math.sqrt(observed.size))
            if observed.size > 1
            else math.inf
        )
    else:
        mean = math.nan
        stderr = math.nan
    return RetentionEstimate(
        failure_epochs=epochs,
        censored=censored,
        mean=mean,
        stderr=stderr,
        trials=trials,
        censored_count=int(censored.sum()),
    )


def geometric_ks_statistic(failure_epochs, p: float) -> float:
    """Kolmogorov-Smirnov distance between failure epochs and Geometric(p).

    The geometric law counts trials to first success starting at 1.  The
    supremum runs over the full support, including everything beyond the
    largest observation.
    """
    if not 0.0 < p <= 1.0:
        raise ValidationError("p must lie in (0, 1]")
    epochs = np.asarray(failure_epochs)
    if epochs.dtype.kind not in "iu" or epochs.size == 0 or epochs.min() < 1:
        raise ValidationError("failure epochs must be positive integers")
    t_max = int(epochs.max())
    counts = np.bincount(epochs.astype(np.intp), minlength=t_max + 1)[1:]
    emp = np.cumsum(counts) / epochs.size
    t = np.arange(1, t_max + 1)
    geom = 1.0 - (1.0 - p) ** t
    d = float(np.abs(emp - geom).max())
    return max(d, float((1.0 - p) ** t_max))


def _kolmogorov_sf(x: float) -> float:
    """``P(K > x)`` for the Kolmogorov distribution and ``x > 0``.

    ``Q(x) = 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2)`` converges fast for
    ``x >= 1``; below 1 the theta form ``1 - Q(x) = sqrt(2 pi) / x *
    sum_k exp(-(2k-1)^2 pi^2 / (8 x^2))`` does (Marsaglia, Tsang & Wang,
    J. Stat. Softw. 8(18), 2003).  Eight terms of either reach full precision.
    """
    if x < 1.0:
        theta = math.fsum(math.exp(-((2 * k - 1) * math.pi / x) ** 2 / 8.0) for k in range(1, 9))
        return 1.0 - math.sqrt(2.0 * math.pi) / x * theta
    return 2.0 * math.fsum((-1) ** (k - 1) * math.exp(-2.0 * (k * x) ** 2) for k in range(1, 9))


def ks_critical_value(samples: int, alpha: float = 0.01) -> float:
    """Asymptotic Kolmogorov critical value at level ``alpha``.

    The root of ``P(K > x) = alpha``, bisected to adjacent floats.  Since
    ``P(K > x) < 2 exp(-2 x^2)``, it lies below ``sqrt(log(2 / alpha) / 2)``.
    """
    samples = _integer(samples, "samples", 1)
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    lo, hi = 0.0, math.sqrt(math.log(2.0 / alpha) / 2.0)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if _kolmogorov_sf(mid) > alpha else (lo, mid)
    return mid / math.sqrt(samples)


def lifetime_lower_bound(n: int, distance_fraction: float, confidence: float | None = None) -> LifetimeBound:
    """Union-bound epochs guaranteed when per-epoch failure is exponentially small.

    With minimum distance a ``distance_fraction`` of ``n`` and per-epoch
    failure probability at most ``exp(-distance_fraction * n)``, running
    ``(1 - confidence) * exp(distance_fraction * n)`` epochs keeps the
    overall failure probability below ``1 - confidence``.  The default
    confidence ``1 - 1/n`` gives ``exp(distance_fraction * n - log n)``.
    """
    n = _integer(n, "n", 1)
    b = float(distance_fraction)
    if not 0.0 < b < 1.0:
        raise ValidationError("distance_fraction must lie strictly between 0 and 1")
    if confidence is None:
        confidence = 1.0 - 1.0 / n
    # confidence 0 (the default at n=1) yields a vacuous but well-defined bound
    if not 0.0 <= confidence < 1.0:
        raise ValidationError("confidence must lie in [0, 1)")
    log_epochs = b * n + math.log1p(-confidence)
    try:
        epochs = math.exp(log_epochs)
    except OverflowError:
        epochs = math.inf
    return LifetimeBound(
        epochs=epochs,
        log_epochs=log_epochs,
        per_epoch_failure_ceiling=math.exp(-b * n),
        confidence=confidence,
        degenerate=epochs < 1.0,
    )


def _line_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line through ``(xs, ys)``: slope, intercept and R^2."""
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    centered = ys - ys.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return float(slope), float(intercept), r_squared


def scaling_experiment(points, method: str = "exact", trials: int | None = None, seed: int | None = None) -> ScalingResult:
    """Fit log per-epoch failure probability against ``n`` and against ``ln n``.

    ``points`` holds ``(model, code)`` pairs of at least four distinct
    sizes, each model of its code's size.  Each point's tail at its
    correction threshold is read by ``method`` (``"exact"``, or ``"mc"``,
    which alone derives per-point seeds).  Both fits take a Monte Carlo
    point at ten observed failures, an exact one unless its tail underflows
    to zero; kept points of fewer than two sizes are ``inconclusive``.  A
    negative slope against ``n`` with R^2 >= 0.9 and no worse than the
    R^2 against ``ln n`` is flagged ``exponential-lifetime-consistent``;
    a polynomial decay, where ``ln n`` fits better, is ``not-flagged``.
    """
    points = list(points)
    if any(_check_model(model).n != code.n for model, code in points):
        raise ValidationError("model and code sizes differ")
    if len({model.n for model, _ in points}) < 4:
        raise ValidationError("scaling_experiment requires at least 4 distinct sizes")
    tails = []
    for idx, (model, code) in enumerate(points):
        point_seed = derive_seed(seed, "scaling-point", idx) if method == "mc" and seed is not None else None
        tails.append(_tail_estimate(model, code.correction_threshold, method, trials, point_seed))
    fit = [
        (model.n, math.log(est.value))
        for (model, _), est in zip(points, tails)
        if (est.exceedances >= 10 if est.trials else est.value > 0.0)
    ]
    if len({n for n, _ in fit}) < 2:
        return ScalingResult(tails, None, None, None, None, None, "inconclusive")
    ns, logs = (np.array(column, dtype=float) for column in zip(*fit))
    slope, intercept, r_squared = _line_fit(ns, logs)
    log_slope, _, order_r_squared = _line_fit(np.log(ns), logs)
    flagged = slope < 0.0 and r_squared >= 0.9 and r_squared >= order_r_squared
    status = "exponential-lifetime-consistent" if flagged else "not-flagged"
    return ScalingResult(tails, slope, intercept, r_squared, -log_slope, order_r_squared, status)
