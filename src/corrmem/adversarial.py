"""Adversarial threshold family: i.i.d. bit flips promoted to all-ones.

The latent bits are i.i.d. Bernoulli(eps).  Whenever their total weight
exceeds the trigger threshold ``n * eps + sqrt(n) * margin`` the observed
error vector is forced to all-ones; otherwise the errors equal the latent
bits.  A vanishing fraction of configurations therefore carries an extreme,
fully correlated error pattern, which is what makes the family a stress
test: every pair covariance is positive yet decays with the trigger
probability, and the first epoch whose weight trips the trigger is a
geometric time whose mean is exactly one over the trigger probability.

All tail quantities here are exact finite binomial sums accumulated with
compensated summation on the light tail, so they remain accurate at the
extreme scales (far below 1e-16) that the scan experiments probe.  In
particular the pair covariance is evaluated as a single light-tail sum

    cov = sum_{m > floor(B)} w_m * g(m) - (sum_{m > floor(B)} w_m * (1 - m/n))^2

with ``g(m) = 1 - 2 eps (1 - m/n) - (m/n)(m-1)/(n-1)``, which is
algebraically identical to the moment difference
``E[Y_i Y_j] - E[Y_i] E[Y_j]`` but never subtracts two O(eps^2) numbers
to produce an exponentially small result.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .channel import GlobalThresholdChannel, HiddenErrorModel
from .errors import ValidationError
from .field import MarkovFieldSpec
from .rng import make_generator

__all__ = [
    "CovarianceDecomposition",
    "MarginalErrorRate",
    "ReducedSumTails",
    "TailScalingFit",
    "ThresholdModelSpec",
    "as_hidden_model",
    "covariance_decomposition",
    "exact_covariance",
    "marginal_error_rate",
    "reduced_sum_tails",
    "retention_upper_bound",
    "sample_threshold_errors",
    "sample_threshold_errors_batch",
    "tail_scaling_fit",
    "threshold_lipschitz",
    "trigger_probability",
    "weight_distribution",
]


@dataclass(frozen=True)
class ThresholdModelSpec:
    """Parameters of the threshold family.

    Exactly one of ``margin`` (an explicit value, any finite real) and
    ``margin_rate`` (a positive coefficient giving the schedule
    ``margin = margin_rate * sqrt(log n)``) must be supplied.  The trigger
    threshold ``n * eps + sqrt(n) * margin`` is always recomputed from these
    inputs, never stored.
    """

    n: int
    eps: float
    margin: float | None = None
    margin_rate: float | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError("n must be a positive integer")
        eps = float(self.eps)
        if not 0.0 < eps < 1.0:
            raise ValidationError("eps must lie strictly between 0 and 1")
        object.__setattr__(self, "eps", eps)
        if (self.margin is None) == (self.margin_rate is None):
            raise ValidationError("exactly one of margin and margin_rate must be given")
        if self.margin is not None:
            margin = float(self.margin)
            if not math.isfinite(margin):
                raise ValidationError("margin must be finite")
            object.__setattr__(self, "margin", margin)
        else:
            rate = float(self.margin_rate)
            if not (math.isfinite(rate) and rate > 0.0):
                raise ValidationError("margin_rate must be positive and finite")
            object.__setattr__(self, "margin_rate", rate)

    @classmethod
    def from_threshold(cls, n: int, eps: float, threshold: float) -> "ThresholdModelSpec":
        """Build a spec whose trigger threshold equals ``threshold`` exactly."""
        if n < 1:
            raise ValidationError("n must be a positive integer")
        return cls(n=n, eps=float(eps), margin=(float(threshold) - n * float(eps)) / math.sqrt(n))

    @property
    def resolved_margin(self) -> float:
        """The margin in units of sqrt(n), resolving the schedule if used."""
        if self.margin is not None:
            return self.margin
        return self.margin_rate * math.sqrt(math.log(self.n))

    @property
    def threshold(self) -> float:
        """Trigger threshold ``n * eps + sqrt(n) * margin``."""
        return self.n * self.eps + math.sqrt(self.n) * self.resolved_margin

    def mean_rate(self) -> float:
        return marginal_error_rate(self).value

    def lipschitz(self) -> float:
        return threshold_lipschitz(self)

    def mixing_bound(self) -> float:
        """1: the latent bits are i.i.d."""
        return 1.0

    def weight_law(self) -> np.ndarray:
        return weight_distribution(self)

    def covariance(self) -> np.ndarray:
        """Exact (n, n) covariance: ``Var(Y_i)`` on the diagonal, :func:`exact_covariance` off it."""
        rate = marginal_error_rate(self).value
        cov = np.full((self.n, self.n), exact_covariance(self) if self.n > 1 else 0.0)
        np.fill_diagonal(cov, rate * (1.0 - rate))
        return cov

    def draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        """One binomial latent weight per epoch, shape (count,)."""
        return gen.binomial(self.n, self.eps, size=count)

    def weights(self, draws: np.ndarray) -> np.ndarray:
        """Error weight of each :meth:`draw` latent weight: all-ones above the trigger."""
        return np.where(draws <= self.threshold, draws, self.n)


@dataclass(frozen=True)
class MarginalErrorRate:
    """Exact ``E[Y_i]`` with its deviation from eps and the trigger probability."""

    value: float
    deviation: float
    trigger_prob: float


@dataclass(frozen=True)
class CovarianceDecomposition:
    """Pair covariance split by conditioning on the trigger indicator.

    ``conditional_term`` is the expected conditional covariance given the
    indicator, ``between_term`` the covariance of the conditional means, and
    ``total`` their sum, which equals the unconditional covariance.  The
    between term can never exceed ``p (1 - p)`` for trigger probability p.
    """

    conditional_term: float
    between_term: float
    total: float
    trigger_prob: float


@dataclass(frozen=True)
class ReducedSumTails:
    """Tails of latent sums with one or two sites removed.

    ``drop_one`` is ``P(Bin(n-1, eps) > B)`` for trigger threshold B, and
    ``drop_two`` the same with two sites removed.  The ``hoeffding_*``
    ceilings are ``exp(-2 (B - m eps)^2 / m)``; a ceiling is ``None`` when
    the threshold does not exceed the reduced mean (the exponential form
    does not apply there).
    """

    drop_one: float
    drop_two: float
    hoeffding_drop_one: float | None
    hoeffding_drop_two: float | None


@dataclass(frozen=True)
class TailScalingFit:
    """Least-squares fit of log trigger probability against squared margin.

    ``retention_exponent`` is the fitted polynomial growth order of the
    retention ceiling (slope of ``log(1 / P)`` against ``log n``); it is
    only reported when every spec in the family shares the same
    ``margin_rate`` schedule.
    """

    slope: float
    intercept: float
    r_squared: float
    retention_exponent: float | None


def _binom_tail_gt(m: int, eps: float, t: float) -> float:
    """Exact ``P(Bin(m, eps) > t)`` summed on the light tail with fsum."""
    k = math.floor(t)
    if k >= m:
        return 0.0
    if k < 0:
        return 1.0
    if k + 1 > m * eps:
        terms = stats.binom.pmf(np.arange(k + 1, m + 1), m, eps)
        return min(1.0, math.fsum(terms.tolist()))
    terms = stats.binom.pmf(np.arange(0, k + 1), m, eps)
    return min(1.0, max(0.0, 1.0 - math.fsum(terms.tolist())))


def trigger_probability(spec: ThresholdModelSpec) -> float:
    """Exact probability that the latent weight exceeds the trigger threshold."""
    return _binom_tail_gt(spec.n, spec.eps, spec.threshold)


def sample_threshold_errors_batch(spec: ThresholdModelSpec, seed: int, trials: int) -> np.ndarray:
    """Draw ``trials`` error vectors; shape (trials, n), dtype uint8."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    gen = make_generator(seed)
    x = (gen.random((trials, spec.n)) < spec.eps).astype(np.uint8)
    triggered = x.sum(axis=1) > spec.threshold
    x[triggered] = 1
    return x


def sample_threshold_errors(spec: ThresholdModelSpec, seed: int) -> np.ndarray:
    """Draw one error vector; shape (n,), dtype uint8."""
    return sample_threshold_errors_batch(spec, seed, 1)[0]


def marginal_error_rate(spec: ThresholdModelSpec, site: int = 0) -> MarginalErrorRate:
    """Exact single-site error probability.

    ``E[Y_i] = eps * P(no trigger | X_i = 1) + P(trigger)``; the deviation
    from eps is always non-negative and at most the trigger probability.
    The sites are exchangeable, so the value does not depend on ``site``.
    """
    if not 0 <= site < spec.n:
        raise ValidationError(f"site {site} out of range for n={spec.n}")
    p = trigger_probability(spec)
    shifted = _binom_tail_gt(spec.n - 1, spec.eps, spec.threshold - 1.0)
    value = spec.eps * (1.0 - shifted) + p
    return MarginalErrorRate(value=value, deviation=p - spec.eps * shifted, trigger_prob=p)


def exact_covariance(spec: ThresholdModelSpec, i: int = 0, j: int = 1) -> float:
    """Exact ``Cov(Y_i, Y_j)`` for distinct sites, via a single light tail.

    Runs in O(n).  The sites are exchangeable, so the value is the same for
    every pair.  The light-tail form keeps full relative precision even when
    the covariance is far below the 1e-16 resolution that the plain moment
    difference would hit.
    """
    n = spec.n
    if n < 2:
        raise ValidationError("pair covariance requires n >= 2")
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValidationError("sites must be distinct and in range")
    k = math.floor(spec.threshold)
    if k >= n or k < 0:
        # Trigger impossible (errors i.i.d.) or certain (errors constant).
        return 0.0
    m = np.arange(k + 1, n + 1)
    w = stats.binom.pmf(m, n, spec.eps)
    q = m / n
    g = 1.0 - 2.0 * spec.eps * (1.0 - q) - q * (m - 1) / (n - 1)
    lead = math.fsum((w * g).tolist())
    corr = math.fsum((w * (1.0 - q)).tolist())
    return lead - corr * corr


def covariance_decomposition(spec: ThresholdModelSpec, i: int = 0, j: int = 1) -> CovarianceDecomposition:
    """Split the pair covariance by conditioning on the trigger indicator."""
    n = spec.n
    if n < 2:
        raise ValidationError("pair covariance requires n >= 2")
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValidationError("sites must be distinct and in range")
    p = trigger_probability(spec)
    if p == 0.0 or p == 1.0:
        # Constant indicator: the between term vanishes and conditioning
        # changes nothing (p=0) or conditions on constant errors (p=1).
        return CovarianceDecomposition(0.0, 0.0, 0.0, p)
    b = spec.threshold
    shifted_one = _binom_tail_gt(n - 1, spec.eps, b - 1.0)
    shifted_two = _binom_tail_gt(n - 2, spec.eps, b - 2.0)
    mean_given_calm = spec.eps * (1.0 - shifted_one) / (1.0 - p)
    joint_given_calm = spec.eps**2 * (1.0 - shifted_two) / (1.0 - p)
    between = p * (1.0 - p) * (1.0 - mean_given_calm) ** 2
    conditional = (1.0 - p) * (joint_given_calm - mean_given_calm**2)
    return CovarianceDecomposition(
        conditional_term=conditional,
        between_term=between,
        total=conditional + between,
        trigger_prob=p,
    )


def reduced_sum_tails(spec: ThresholdModelSpec) -> ReducedSumTails:
    """Exact reduced-sum tails with their exponential ceilings."""
    b = spec.threshold

    def ceiling(m: int) -> float | None:
        if m < 1:
            return None
        t = b - m * spec.eps
        if t <= 0.0:
            return None
        return math.exp(-2.0 * t * t / m)

    return ReducedSumTails(
        drop_one=_binom_tail_gt(spec.n - 1, spec.eps, b),
        drop_two=_binom_tail_gt(spec.n - 2, spec.eps, b),
        hoeffding_drop_one=ceiling(spec.n - 1),
        hoeffding_drop_two=ceiling(spec.n - 2),
    )


def retention_upper_bound(spec: ThresholdModelSpec) -> float:
    """Mean epochs until the first trigger: ``1 / P(trigger)``.

    The first triggering epoch is geometric, so this is both the exact mean
    and the ceiling on how long correction can possibly retain the state
    once only the trigger defeats it.  Returns ``inf`` when the trigger
    probability underflows to zero.
    """
    p = trigger_probability(spec)
    if p == 0.0:
        return math.inf
    return 1.0 / p


def weight_distribution(spec: ThresholdModelSpec) -> np.ndarray:
    """Exact law of the observed error weight, shape (n + 1,).

    Below the trigger the weight is the binomial latent weight; all
    triggering mass collapses onto weight n.
    """
    n = spec.n
    k = math.floor(spec.threshold)
    pmf = stats.binom.pmf(np.arange(n + 1), n, spec.eps)
    out = np.zeros(n + 1)
    if k >= n:
        return pmf
    if k >= 0:
        out[: k + 1] = pmf[: k + 1]
    out[n] += trigger_probability(spec)
    return out


def threshold_lipschitz(spec: ThresholdModelSpec) -> float:
    """Hamming-Lipschitz constant of the conditional mean error count.

    A single flip across the trigger boundary jumps the count from
    ``floor(B)`` to ``n``, so the constant is ``n - floor(B)`` whenever the
    threshold is in range; it degrades to 1 (identity channel) above and 0
    (constant all-ones) below.
    """
    b = spec.threshold
    if b >= spec.n:
        return 1.0
    if b < 0.0:
        return 0.0
    return float(spec.n - math.floor(b))


def tail_scaling_fit(specs) -> TailScalingFit:
    """Fit ``log P(trigger)`` against squared margin over a family of specs.

    Requires at least four specs with non-degenerate margins and nonzero
    trigger probabilities.  With the square-root-log margin schedule the
    retention ceiling grows polynomially in n; the fitted growth order is
    reported when the whole family shares one schedule.
    """
    specs = list(specs)
    if len(specs) < 4:
        raise ValidationError("tail_scaling_fit requires a grid of at least 4 specs")
    probs = np.array([trigger_probability(s) for s in specs])
    if np.any(probs <= 0.0):
        raise ValidationError(
            "trigger probability underflowed to zero on the grid; "
            "reduce the margin schedule"
        )
    xs = np.array([s.resolved_margin**2 for s in specs])
    ys = np.log(probs)
    if np.ptp(xs) <= 0.0:
        raise ValidationError("margins are constant across the grid; slope undefined")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    total = ys - ys.mean()
    ss_tot = float(total @ total)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    exponent = None
    rates = {s.margin_rate for s in specs}
    sizes = {s.n for s in specs}
    if None not in rates and len(rates) == 1 and len(sizes) >= 2:
        log_n = np.log([s.n for s in specs])
        exponent = float(np.polyfit(log_n, -ys, 1)[0])
    return TailScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
        retention_exponent=exponent,
    )


def as_hidden_model(spec: ThresholdModelSpec) -> HiddenErrorModel:
    """The equivalent hidden-field model: i.i.d. bits, threshold channel.

    Useful for cross-checking every analytic formula in this module against
    brute-force enumeration on small instances.
    """
    initial = np.array([1.0 - spec.eps, spec.eps])
    kernels = np.tile(initial, (spec.n - 1, 2, 1))
    field = MarkovFieldSpec(
        n=spec.n, alphabet_size=2, initial=initial, kernels=kernels
    )
    return HiddenErrorModel(field=field, channel=GlobalThresholdChannel(spec.threshold))
