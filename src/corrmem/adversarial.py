"""Adversarial threshold family: i.i.d. bit flips promoted to all-ones.

The latent bits are i.i.d. Bernoulli(eps).  Whenever their total weight
exceeds the trigger threshold ``n * eps + sqrt(n) * margin`` the observed
error vector is forced to all-ones; otherwise the errors equal the latent
bits.  A vanishing fraction of configurations therefore carries an extreme,
fully correlated error pattern, which is what makes the family a stress
test: every pair covariance is positive yet decays with the trigger
probability, and the first epoch whose weight trips the trigger is a
geometric time whose mean is exactly one over the trigger probability.

Every exact quantity here is a binomial sum evaluated by one kernel.  It
anchors the log pmf with Loader's saddle-point form (C. Loader, "Fast and
Accurate Computation of Binomial Probabilities", 2000) every 64 terms, fills
the terms between anchors with the pmf ratio recurrence, and walks outward
from the threshold, where the terms only shrink, until they fall below
2^-60 of the running sum.  Tails are carried as a log scale times a sum, so
they stay accurate far below 1e-16 and resolve in
:func:`log_trigger_probability` even below 1e-308.  The pair covariance is
summed over the same walk as the tail; with the threshold above the mean
that walk covers the trigger side, where it reads

    cov = sum_{m > floor(B)} w_m * g(m) - (sum_{m > floor(B)} w_m * (1 - m/n))^2

with ``g(m) = 1 - 2 eps (1 - m/n) - (m/n)(m-1)/(n-1)``, which is
algebraically identical to the moment difference
``E[Y_i Y_j] - E[Y_i] E[Y_j]`` but never subtracts two O(eps^2) numbers
to produce an exponentially small result.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import GlobalThresholdChannel, HiddenErrorModel, _epoch_rows, _trigger_lipschitz
from .errors import ValidationError
from .field import MarkovFieldSpec, _uniform_slices
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
    "log_trigger_probability",
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

    Exactly one of ``margin`` (an explicit value) and ``margin_rate`` (a
    positive coefficient giving the schedule ``margin = margin_rate *
    sqrt(log n)``) must be supplied.  The trigger threshold ``n * eps +
    sqrt(n) * margin`` must be finite; it is always recomputed from these
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
            object.__setattr__(self, "margin", float(self.margin))
        else:
            rate = float(self.margin_rate)
            if not rate > 0.0:
                raise ValidationError("margin_rate must be positive")
            object.__setattr__(self, "margin_rate", rate)
        if not math.isfinite(self.threshold):
            raise ValidationError("the threshold n * eps + sqrt(n) * margin must be finite")

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

    def tail(self, k: int) -> float:
        """``P(sum Y > k)``, with no weight law.

        Weights strictly between ``floor(B)`` and ``n`` carry no mass, so
        from ``floor(B)`` up to ``n`` the tail is the trigger probability.
        """
        return 0.0 if k >= self.n else _binom_tail_gt(self.n, self.eps, min(k, self.threshold))

    def sample_weights(self, gens, count: int) -> np.ndarray:
        """Error weights of ``count`` epochs from each of ``gens`` in turn.

        Each epoch draws one binomial latent weight and weighs ``n`` above
        the trigger.  Shape (len(gens) * count,).
        """
        if not _epoch_rows(gens, count):
            return np.empty(0, dtype=np.intp)
        latent = np.concatenate([gen.binomial(self.n, self.eps, size=count) for gen in gens])
        return np.where(latent <= self.threshold, latent, self.n)


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


# Stirling's error term ``log(k!) - log(sqrt(2 pi k) (k / e)^k)`` for k = 0..15.
_STIRLERR = (
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)

_LN_2PI = math.log(2.0 * math.pi)

# Terms filled by the ratio recurrence between two Loader anchors.
_BLOCK = 64

# A walk stops at the first term at most this share of its running sum.
_CUTOFF = 2.0**-60


def _stirlerr(k: int) -> float:
    """Stirling's error term: the table up to 15, its asymptotic series above."""
    if k <= 15:
        return _STIRLERR[k]
    kk = float(k) * k
    if k > 500:
        return (1 / 12 - (1 / 360) / kk) / k
    if k > 80:
        return (1 / 12 - (1 / 360 - (1 / 1260) / kk) / kk) / k
    if k > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680) / kk) / kk) / kk) / k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / kk) / kk) / kk) / kk) / k


def _bd0(x: float, mu: float, d: float) -> float:
    """Deviance ``x log(x / mu) + mu - x``, given ``d = x - mu``.

    Loader's series in ``v = d / (x + mu)`` serves while ``|v| < 1/2``
    (Loader stops at 1/10), its small terms summed apart from the leading
    ``d v``.  Beyond that the closed form loses at most a factor of about
    2.5 to cancellation.
    """
    v = d / (x + mu)
    if abs(v) >= 0.5:
        return x * math.log(x / mu) - d
    ej = 2.0 * x * v
    rest = 0.0
    j = 3
    while True:
        ej *= v * v
        grown = rest + ej / j
        if grown == rest:
            return d * v + rest
        rest = grown
        j += 2


def _log_pmf(k: int, m: int, p: float) -> float:
    """``log P(Bin(m, p) = k)`` in Loader's saddle-point form.

    ``p`` is split so that ``m`` times its high part is exact.  That gives
    ``d = k - m p`` and ``m - m p`` to about one rounding each; both deviance
    terms take the same ``d``, and ``m (1 - p)`` with a rounded ``1 - p`` is
    never formed.
    """
    if k == 0:
        return m * math.log1p(-p)
    if k == m:
        return m * math.log(p)
    # Veltkamp split: hi keeps 26 significant bits, so m * hi is exact for m < 2^27
    split = 134217729.0 * p
    hi = split - (split - p)
    lo = m * (p - hi)
    d = (k - m * hi) - lo
    return math.fsum(
        (
            _stirlerr(m),
            -_stirlerr(k),
            -_stirlerr(m - k),
            -_bd0(k, m * p, d),
            -_bd0(m - k, (m - m * hi) - lo, -d),
            -0.5 * (_LN_2PI + math.log(k) + math.log1p(-k / m)),
        )
    )


def _pmf_walk(m: int, p: float, start: int, step: int, cutoff: float = _CUTOFF):
    """``P(Bin(m, p) = k)`` for ``k = start, start + step, ...``, scaled.

    Returns ``(log_scale, terms)`` with ``terms[j] = P(start + j * step) /
    exp(log_scale)``.  ``log_scale`` is the integer nearest ``log P(start)``,
    so taking it off an anchor's log is exact and ``exp(log_scale)`` rounds
    once.  ``start`` must lie at or past the mode in the direction ``step``
    (+1 or -1), so the terms only shrink.  Every ``_BLOCK``-th term is a
    fresh Loader anchor and the terms between anchors follow the ratio
    ``P(k + 1) / P(k) = (m - k) / (k + 1) * p / (1 - p)``.  The walk ends at
    the end of the range or before the first term at most ``cutoff`` times
    the running sum; ``cutoff = 0`` keeps every term that does not
    underflow.  The first round evaluates one block and each later round
    twice as many, so a walk that stops early evaluates few anchors; the
    anchor at ``start`` is the one that sets ``log_scale``.
    """
    anchor = _log_pmf(start, m, p)
    log_scale = float(round(anchor))
    count = (m - start if step > 0 else start) + 1
    odds = p / (1.0 - p)
    parts = []
    total = 0.0
    done = 0
    blocks = 1
    while done < count:
        size = min(count - done, blocks * _BLOCK)
        rows = -(-size // _BLOCK)
        ks = start + step * (done + np.arange(rows * _BLOCK).reshape(rows, _BLOCK))
        steps = np.empty(ks.shape)
        anchors = [anchor if k == start else _log_pmf(int(k), m, p) for k in ks[:, 0]]
        steps[:, 0] = np.exp(np.array(anchors) - log_scale)
        prev = ks[:, :-1]
        if step > 0:
            steps[:, 1:] = (m - prev) / (prev + 1) * odds
        else:
            steps[:, 1:] = prev / (m - prev + 1) / odds
        terms = np.cumprod(steps, axis=1).ravel()[:size]
        sums = total + np.cumsum(terms)
        stop = np.flatnonzero(terms <= cutoff * sums)
        if stop.size:
            parts.append(terms[: stop[0]])
            break
        parts.append(terms)
        total = sums[-1]
        done += size
        blocks *= 2
    return log_scale, np.concatenate(parts)


def _tail_and_covariance(m: int, eps: float, t: float) -> tuple[float, float, float]:
    """``P(Bin(m, eps) > t)`` and the pair covariance of its spec, from one walk.

    Returns ``(log_scale, mass, cov)``: the tail is worth ``exp(log_scale) *
    mass``, and ``cov`` is ``Cov(Y_i, Y_j)`` for ``m`` sites with trigger
    threshold ``t`` (0 when ``m < 2``).  Both are summed from the threshold
    away from the mean: over the tail itself when the threshold lies above
    the mean, else over its complement (see :func:`exact_covariance`).
    """
    k = math.floor(t)
    if k >= m:
        return 0.0, 0.0, 0.0
    if k < 0:
        return 0.0, 1.0, 0.0
    if k + 1 > m * eps:
        log_scale, terms = _pmf_walk(m, eps, k + 1, 1)
        mass = float(terms.sum())
        if m < 2:
            return log_scale, mass, 0.0
        w = math.exp(log_scale) * terms
        weights = np.arange(k + 1, k + 1 + terms.size)
        q = weights / m
        g = 1.0 - 2.0 * eps * (1.0 - q) - q * (weights - 1) / (m - 1)
        corr = float(w @ (1.0 - q))
        return log_scale, mass, float(w @ g) - corr * corr
    log_scale, terms = _pmf_walk(m, eps, k, -1)
    mass = max(0.0, 1.0 - math.exp(log_scale) * float(terms.sum()))
    w = math.exp(log_scale) * terms
    weights = np.arange(k, k - terms.size, -1)
    q = weights / m
    s0 = float(w.sum())
    s1 = float(w @ q)
    s2 = float(w @ (q * (weights - 1) / (m - 1)))
    return 0.0, mass, (1.0 - s0) * (s0 - 2.0 * s1) + s2 - s1 * s1


def _binom_tail_gt(m: int, eps: float, t: float) -> float:
    """``P(Bin(m, eps) > t)``."""
    log_scale, mass, _ = _tail_and_covariance(m, eps, t)
    return math.exp(log_scale) * mass


def log_trigger_probability(spec: ThresholdModelSpec) -> float:
    """Natural log of :func:`trigger_probability`; ``-inf`` when no weight triggers.

    Resolves probabilities far below the smallest positive float.
    """
    log_scale, mass, _ = _tail_and_covariance(spec.n, spec.eps, spec.threshold)
    return log_scale + math.log(mass) if mass > 0.0 else -math.inf


def trigger_probability(spec: ThresholdModelSpec) -> float:
    """Exact probability that the latent weight exceeds the trigger threshold."""
    return _binom_tail_gt(spec.n, spec.eps, spec.threshold)


def sample_threshold_errors_batch(spec: ThresholdModelSpec, seed: int, trials: int) -> np.ndarray:
    """Draw ``trials`` error vectors; shape (trials, n), dtype uint8."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    out = np.empty((trials, spec.n), dtype=np.uint8)
    lo = 0
    for u in _uniform_slices(make_generator(seed), trials, spec.n):
        x = out[lo : lo + len(u)]
        x[...] = u < spec.eps
        x[x.sum(axis=1) > spec.threshold] = 1
        lo += len(u)
    return out


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


def _pair_sites(spec: ThresholdModelSpec, i: int, j: int) -> int:
    """``spec.n``, once ``i`` and ``j`` are checked to be two distinct sites of it."""
    n = spec.n
    if n < 2:
        raise ValidationError("pair covariance requires n >= 2")
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValidationError("sites must be distinct and in range")
    return n


def exact_covariance(spec: ThresholdModelSpec, i: int = 0, j: int = 1) -> float:
    """Exact ``Cov(Y_i, Y_j)`` for distinct sites, summed on one side of the threshold.

    The sites are exchangeable, so the value is the same for every pair.
    With the threshold above the mean the sum runs over triggering weights
    (the light-tail form in the module docstring).  Otherwise it runs over
    the calm weights ``m <= floor(B)``: with their mass ``s0`` and moments
    ``s1 = sum w_m q_m`` and ``s2 = sum w_m q_m (m - 1) / (n - 1)``, ``q_m =
    m / n``, the covariance is ``(1 - s0)(s0 - 2 s1) + s2 - s1^2``.  Either
    way it keeps full relative precision when it is far below the 1e-16
    resolution of the plain moment difference.
    """
    n = _pair_sites(spec, i, j)
    # A trigger that is impossible (errors i.i.d.) or certain (errors
    # constant) gives 0.
    return _tail_and_covariance(n, spec.eps, spec.threshold)[2]


def covariance_decomposition(spec: ThresholdModelSpec, i: int = 0, j: int = 1) -> CovarianceDecomposition:
    """Split the pair covariance by conditioning on the trigger indicator."""
    n = _pair_sites(spec, i, j)
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


def _binom_pmf(m: int, p: float) -> np.ndarray:
    """Every representable entry of the Bin(m, p) pmf, walked out from the mode."""
    mode = min(m, math.floor((m + 1) * p))
    out = np.zeros(m + 1)
    log_scale, terms = _pmf_walk(m, p, mode, 1, cutoff=0.0)
    out[mode : mode + terms.size] = math.exp(log_scale) * terms
    if mode > 0:
        log_scale, terms = _pmf_walk(m, p, mode - 1, -1, cutoff=0.0)
        out[mode - terms.size : mode] = math.exp(log_scale) * terms[::-1]
    return out


def weight_distribution(spec: ThresholdModelSpec) -> np.ndarray:
    """Exact law of the observed error weight, shape (n + 1,).

    Below the trigger the weight is the binomial latent weight; all
    triggering mass collapses onto weight n.
    """
    n = spec.n
    k = math.floor(spec.threshold)
    pmf = _binom_pmf(n, spec.eps)
    if k >= n:
        return pmf
    out = np.zeros(n + 1)
    if k >= 0:
        out[: k + 1] = pmf[: k + 1]
    out[n] += trigger_probability(spec)
    return out


def threshold_lipschitz(spec: ThresholdModelSpec) -> float:
    """Hamming-Lipschitz constant of the conditional mean error count.

    The trigger rule shared with the threshold channel: ``n - floor(B)``
    while the threshold is in range, 1 above and 0 below.
    """
    return _trigger_lipschitz(spec.n, spec.threshold)


def _line_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line through ``(xs, ys)``: slope, intercept and R^2."""
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    centered = ys - ys.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return float(slope), float(intercept), r_squared


def tail_scaling_fit(specs) -> TailScalingFit:
    """Fit ``log P(trigger)`` against squared margin over a family of specs.

    Requires at least four specs with non-degenerate margins, each of
    which can trigger; the logs come from :func:`log_trigger_probability`,
    so probabilities below the smallest positive float still fit.  With the
    square-root-log margin schedule the retention ceiling grows
    polynomially in n; the fitted growth order is reported when the whole
    family shares one schedule.
    """
    specs = list(specs)
    if len(specs) < 4:
        raise ValidationError("tail_scaling_fit requires a grid of at least 4 specs")
    ys = np.array([log_trigger_probability(s) for s in specs])
    if np.any(np.isneginf(ys)):
        raise ValidationError("a spec on the grid can never trigger (threshold at or above n)")
    xs = np.array([s.resolved_margin**2 for s in specs])
    if np.ptp(xs) <= 0.0:
        raise ValidationError("margins are constant across the grid; slope undefined")
    slope, intercept, r_squared = _line_fit(xs, ys)
    exponent = None
    rates = {s.margin_rate for s in specs}
    sizes = {s.n for s in specs}
    if None not in rates and len(rates) == 1 and len(sizes) >= 2:
        log_n = np.log([s.n for s in specs])
        exponent = float(np.polyfit(log_n, -ys, 1)[0])
    return TailScalingFit(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        retention_exponent=exponent,
    )


def as_hidden_model(spec: ThresholdModelSpec) -> HiddenErrorModel:
    """The equivalent hidden-field model: i.i.d. bits, threshold channel.

    Useful for cross-checking every analytic formula in this module against
    the hidden-model backend, and on small instances against the
    enumeration oracle in :mod:`corrmem.oracle`.
    """
    initial = np.array([1.0 - spec.eps, spec.eps])
    kernels = np.tile(initial, (spec.n - 1, 2, 1))
    field = MarkovFieldSpec(
        n=spec.n, alphabet_size=2, initial=initial, kernels=kernels
    )
    return HiddenErrorModel(field=field, channel=GlobalThresholdChannel(spec.threshold))
