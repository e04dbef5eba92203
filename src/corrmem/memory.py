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
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import adversarial as _adv
from .adversarial import ThresholdModelSpec
from .channel import HiddenErrorModel, _site_probabilities
from .channel import weight_distribution as _hidden_weight_distribution
from .errors import ValidationError
from .field import _inverse_cdf_walk, mixing_coefficients, mixing_bound
from .rng import derive_seed, make_generator

__all__ = [
    "CodeModel",
    "FailureEstimate",
    "LifetimeBound",
    "RetentionEstimate",
    "ScalingPoint",
    "ScalingResult",
    "count_exceedances",
    "epoch_step",
    "geometric_ks_statistic",
    "ks_critical_value",
    "lifetime_lower_bound",
    "per_epoch_failure_prob",
    "scaling_experiment",
    "simulate_retention",
    "weight_law",
]

_MIN_MC_TRIALS = 1000
_MC_BLOCK = 100_000
_EPOCH_BLOCK = 64
# Rows walked together; retention stacks live trials' blocks up to this many.
_STACK_ROWS = 2048


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
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError("n must be a positive integer")
        if not isinstance(self.k, int) or not 0 <= self.k < self.n:
            raise ValidationError("k must be an integer with 0 <= k < n")
        if not isinstance(self.d, int) or not 1 <= self.d <= self.n:
            raise ValidationError("d must be an integer with 1 <= d <= n")
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


def epoch_step(weight: int, code: CodeModel) -> bool:
    """One epoch: True when an error of this weight is corrected."""
    if not 0 <= weight <= code.n:
        raise ValidationError(f"weight {weight} out of range for n={code.n}")
    return weight <= code.correction_threshold


@dataclass(frozen=True)
class FailureEstimate:
    """Monte Carlo per-epoch failure probability with a 95% interval."""

    value: float
    ci_lo: float
    ci_hi: float
    trials: int
    failures: int


@dataclass(frozen=True)
class RetentionEstimate:
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


@dataclass(frozen=True)
class LifetimeBound:
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


@dataclass(frozen=True)
class ScalingPoint:
    """One grid point of a failure-scaling experiment.

    ``mixing_sum`` is the largest summed product of mixing coefficients of
    the latent chain (zero correlation mass for memoryless models, reported
    as None there along with ``rescaled_size``); ``rescaled_size`` is
    ``n / mixing_sum**2``, the effective exponent argument once chain
    correlations slow the decay down.
    """

    n: int
    p_fail: float
    ln_p_fail: float | None
    resolved: bool
    trials: int | None
    failures: int | None
    ci_lo: float | None
    ci_hi: float | None
    mixing_sum: float | None
    rescaled_size: float | None


@dataclass(frozen=True)
class ScalingResult:
    """Least-squares summary of log failure probability against size."""

    points: list
    slope: float | None
    intercept: float | None
    r_squared: float | None
    status: str


def _model_size(model) -> int:
    if isinstance(model, HiddenErrorModel):
        return model.n
    if isinstance(model, ThresholdModelSpec):
        return model.n
    raise ValidationError(f"unsupported model type {type(model).__name__}")


def weight_law(model) -> np.ndarray:
    """Exact epoch weight law for either model family; shape (n + 1,)."""
    if isinstance(model, HiddenErrorModel):
        return _hidden_weight_distribution(model)
    if isinstance(model, ThresholdModelSpec):
        return _adv.weight_distribution(model)
    raise ValidationError(f"unsupported model type {type(model).__name__}")


def _draw(model, gen: np.random.Generator, count: int) -> np.ndarray:
    """Raw draws for ``count`` epochs from one open generator, epochs on axis 0.

    A threshold model takes one binomial latent weight per epoch.  A hidden
    model takes a ``(count, n)`` block of uniforms for the chain walk and
    then one for the error bits, returned as a ``(count, 2, n)`` view.
    """
    if isinstance(model, ThresholdModelSpec):
        return gen.binomial(model.n, model.eps, size=count)
    return gen.random((2, count, model.n)).transpose(1, 0, 2)


def _weights(model, draws: np.ndarray) -> np.ndarray:
    """Epoch weights of stacked :func:`_draw` output, one per row.

    Hidden-model rows are walked and read out ``_STACK_ROWS`` at a time, so
    the temporaries stay small and in cache whatever the block size.
    """
    if isinstance(model, ThresholdModelSpec):
        return np.where(draws <= model.threshold, draws, model.n)
    out = np.empty(len(draws), dtype=np.intp)
    for lo in range(0, len(draws), _STACK_ROWS):
        u = draws[lo : lo + _STACK_ROWS]
        x = _inverse_cdf_walk(model.field, u[:, 0])
        out[lo : lo + _STACK_ROWS] = np.count_nonzero(u[:, 1] < _site_probabilities(model, x), axis=1)
    return out


def count_exceedances(model, gen: np.random.Generator, trials: int, threshold: float) -> int:
    """How many of ``trials`` epochs drawn from ``gen`` weigh more than ``threshold``."""
    count = 0
    for done in range(0, trials, _MC_BLOCK):
        weights = _weights(model, _draw(model, gen, min(_MC_BLOCK, trials - done)))
        count += int(np.count_nonzero(weights > threshold))
    return count


def per_epoch_failure_prob(model, code: CodeModel, mode: str = "exact", trials: int | None = None, seed: int | None = None):
    """Probability that one epoch's error weight exceeds the threshold.

    ``mode="exact"`` resolves the weight law exactly (closed binomial form
    for threshold models, a forward pass over the latent chain for hidden
    models) and returns a float.  ``mode="mc"`` samples epochs and
    returns a :class:`FailureEstimate` with a Clopper-Pearson interval.
    """
    if _model_size(model) != code.n:
        raise ValidationError("model and code sizes differ")
    tau = code.correction_threshold
    if mode == "exact":
        if tau >= code.n:
            return 0.0
        law = weight_law(model)
        return min(1.0, math.fsum(law[tau + 1 :].tolist()))
    if mode != "mc":
        raise ValidationError(f"unknown mode {mode!r}")
    if trials is None or trials < _MIN_MC_TRIALS:
        raise ValidationError(f"Monte Carlo mode requires trials >= {_MIN_MC_TRIALS}")
    if seed is None:
        raise ValidationError("Monte Carlo mode requires a seed")
    from .bounds import clopper_pearson

    failures = count_exceedances(model, make_generator(seed), trials, tau)
    lo, hi = clopper_pearson(failures, trials)
    return FailureEstimate(
        value=failures / trials, ci_lo=lo, ci_hi=hi, trials=trials, failures=failures
    )


def simulate_retention(model, code: CodeModel, max_epochs: int, trials: int, seed: int) -> RetentionEstimate:
    """Simulate epochs until the first uncorrectable error, per trial.

    Each trial runs an independent derived stream, so results do not depend
    on how trials are scheduled.  Epochs run in blocks of ``_EPOCH_BLOCK``:
    every trial still alive draws its next block from its own stream, and
    the blocks of up to ``_STACK_ROWS`` rows are stacked and turned into
    weights together.  A trial stops drawing at its first failure.  Trials
    that survive ``max_epochs`` epochs are censored and excluded from the
    mean.
    """
    if _model_size(model) != code.n:
        raise ValidationError("model and code sizes differ")
    if max_epochs < 1:
        raise ValidationError("max_epochs must be >= 1")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    tau = code.correction_threshold
    gens = [make_generator(derive_seed(seed, "retention-trial", t)) for t in range(trials)]
    epochs = np.zeros(trials, dtype=np.int64)
    live = np.arange(trials)
    for done in range(0, max_epochs, _EPOCH_BLOCK):
        block = min(_EPOCH_BLOCK, max_epochs - done)
        per_stack = max(1, _STACK_ROWS // block)
        for lo in range(0, live.size, per_stack):
            group = live[lo : lo + per_stack]
            draws = np.concatenate([_draw(model, gens[t], block) for t in group])
            failed = (_weights(model, draws) > tau).reshape(group.size, block)
            hit = failed.any(axis=1)
            epochs[group[hit]] = done + failed[hit].argmax(axis=1) + 1
        live = live[epochs[live] == 0]
        if not live.size:
            break
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
    epochs = np.asarray(failure_epochs, dtype=np.int64)
    if epochs.size == 0 or epochs.min() < 1:
        raise ValidationError("failure epochs must be positive integers")
    t_max = int(epochs.max())
    counts = np.bincount(epochs, minlength=t_max + 1)[1:]
    emp = np.cumsum(counts) / epochs.size
    t = np.arange(1, t_max + 1)
    geom = 1.0 - (1.0 - p) ** t
    d = float(np.abs(emp - geom).max())
    return max(d, float((1.0 - p) ** t_max))


def ks_critical_value(samples: int, alpha: float = 0.01) -> float:
    """Asymptotic Kolmogorov critical value at level ``alpha``."""
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    return float(special.kolmogi(alpha)) / math.sqrt(samples)


def lifetime_lower_bound(n: int, distance_fraction: float, confidence: float | None = None) -> LifetimeBound:
    """Union-bound epochs guaranteed when per-epoch failure is exponentially small.

    With minimum distance a ``distance_fraction`` of ``n`` and per-epoch
    failure probability at most ``exp(-distance_fraction * n)``, running
    ``(1 - confidence) * exp(distance_fraction * n)`` epochs keeps the
    overall failure probability below ``1 - confidence``.  The default
    confidence ``1 - 1/n`` gives ``exp(distance_fraction * n - log n)``.
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError("n must be a positive integer")
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


def _mixing_diagnostics(model):
    if isinstance(model, HiddenErrorModel):
        g = mixing_bound(mixing_coefficients(model.field)) - 1.0
        if g > 0.0:
            return g, model.n / (g * g)
    return None, None


def scaling_experiment(points, mode: str = "exact", trials: int | None = None, seed: int | None = None) -> ScalingResult:
    """Fit log per-epoch failure probability against code size.

    ``points`` is a sequence of ``(model, code)`` pairs covering at least
    four distinct sizes.  Monte Carlo points need at least ten observed
    failures to count as resolved; exact points are unresolved only when
    the failure probability underflows to zero.  A negative fitted slope
    with R^2 >= 0.9 is flagged ``exponential-lifetime-consistent``.
    """
    points = list(points)
    sizes = {_model_size(model) for model, _ in points}
    if len(sizes) < 4:
        raise ValidationError("scaling_experiment requires at least 4 distinct sizes")
    if mode not in ("exact", "mc"):
        raise ValidationError(f"unknown mode {mode!r}")
    rows = []
    for idx, (model, code) in enumerate(points):
        n = _model_size(model)
        mixing_sum, rescaled = _mixing_diagnostics(model)
        if mode == "exact":
            p = per_epoch_failure_prob(model, code, "exact")
            rows.append(
                ScalingPoint(
                    n=n,
                    p_fail=p,
                    ln_p_fail=math.log(p) if p > 0.0 else None,
                    resolved=p > 0.0,
                    trials=None,
                    failures=None,
                    ci_lo=None,
                    ci_hi=None,
                    mixing_sum=mixing_sum,
                    rescaled_size=rescaled,
                )
            )
        else:
            if seed is None:
                raise ValidationError("Monte Carlo mode requires a seed")
            est = per_epoch_failure_prob(
                model, code, "mc", trials, derive_seed(seed, "scaling-point", idx)
            )
            rows.append(
                ScalingPoint(
                    n=n,
                    p_fail=est.value,
                    ln_p_fail=math.log(est.value) if est.value > 0.0 else None,
                    resolved=est.failures >= 10,
                    trials=est.trials,
                    failures=est.failures,
                    ci_lo=est.ci_lo,
                    ci_hi=est.ci_hi,
                    mixing_sum=mixing_sum,
                    rescaled_size=rescaled,
                )
            )
    fit_rows = [r for r in rows if r.resolved and r.ln_p_fail is not None]
    if len(fit_rows) < 2:
        return ScalingResult(points=rows, slope=None, intercept=None, r_squared=None, status="inconclusive")
    xs = np.array([r.n for r in fit_rows], dtype=float)
    ys = np.array([r.ln_p_fail for r in fit_rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    centered = ys - ys.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    status = (
        "exponential-lifetime-consistent"
        if slope < 0.0 and r_squared >= 0.9
        else "not-flagged"
    )
    return ScalingResult(
        points=rows,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
        status=status,
    )
