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
:func:`log_trigger_probability` even below 1e-308.  One walk gives the
trigger probability, the deviation ``dev = E[Y_i] - eps`` and the pair
covariance, and the decomposition of that covariance follows from them.
With the threshold above the mean the walk covers the trigger side (else
the calm side), where ``dev = sum_{m > floor(B)} w_m (1 - m/n)`` and

    cov = sum_{m > floor(B)} w_m * g(m) - dev^2

with ``g(m) = 1 - 2 eps (1 - m/n) - (m/n)(m-1)/(n-1)``, which is
algebraically identical to the moment difference
``E[Y_i Y_j] - E[Y_i] E[Y_j]`` but never subtracts two O(eps^2) numbers
to produce an exponentially small result.
"""

import dataclasses
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channel import GlobalThresholdChannel, HiddenErrorModel, _epoch_rows
from .errors import ValidationError
from .field import MarkovFieldSpec

__all__ = [
    "CovarianceDecomposition",
    "MarginalErrorRate",
    "TailScalingFit",
    "ThresholdModelSpec",
    "covariance_decomposition",
    "exact_covariance",
    "log_trigger_probability",
    "marginal_error_rate",
    "retention_upper_bound",
    "tail_scaling_fit",
    "trigger_probability",
    "weight_distribution",
]


def _iid_field(spec: "ThresholdModelSpec") -> MarkovFieldSpec:
    """i.i.d. Bernoulli(eps) latent bits: ``n - 1`` kernels whose rows are both the initial law."""
    initial = np.array([1.0 - spec.eps, spec.eps])
    return MarkovFieldSpec(n=spec.n, alphabet_size=2, initial=initial, kernels=np.tile(initial, (spec.n - 1, 2, 1)))


@dataclasses.dataclass(frozen=True)
class ThresholdModelSpec(HiddenErrorModel):
    """The threshold family as a hidden model, given by its four parameters.

    Exactly one of ``margin`` (an explicit value) and ``margin_rate`` (a
    positive coefficient giving the schedule ``margin = margin_rate *
    sqrt(log n)``) must be supplied.  The trigger threshold ``n * eps +
    sqrt(n) * margin`` must be finite; it is always recomputed from these
    inputs, never stored.

    ``field`` and ``channel`` follow from the parameters: i.i.d.
    Bernoulli(eps) bits read out by ``GlobalThresholdChannel(threshold)``.
    The field tiles ``n - 1`` kernels, so it is built on first read, and
    ``n``, ``repr`` and ``==`` never read it.  The methods the binomial
    kernels of this module answer are overridden; ``lipschitz`` is
    inherited, since the channel applies the same trigger rule.
    """

    field: MarkovFieldSpec = dataclasses.field(
        init=False, repr=False, compare=False, default=cached_property(_iid_field)
    )
    channel: GlobalThresholdChannel = dataclasses.field(
        init=False, repr=False, compare=False, default=cached_property(lambda spec: GlobalThresholdChannel(spec.threshold))
    )
    # a bare annotation would take the inherited ``HiddenErrorModel.n`` as its default
    n: int = dataclasses.field()
    eps: float
    margin: float | None = None
    margin_rate: float | None = None

    def __post_init__(self):
        """Validate the parameters; the field is binary by construction, so the field checks do not run."""
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
        """Build a spec whose threshold is ``threshold``, or failing that has its floor.

        ``(threshold - n eps) / sqrt(n)`` may give a threshold an ulp off, a
        whole trigger weight at an integer, so the nearest margin within 32
        ulps that gives ``threshold`` is taken, else one that gives its floor.
        A margin whose threshold overflows is never taken while one does not.
        """
        if n < 1:
            raise ValidationError("n must be a positive integer")
        eps, target = float(eps), float(threshold)
        margin = (target - n * eps) / math.sqrt(n)

        def miss(candidate):
            # the threshold property's own expression, so the built spec gives it back
            got = n * eps + math.sqrt(n) * candidate
            return not math.isfinite(got), got != target, got // 1 != target // 1

        near = (margin + j * math.ulp(margin) for j in sorted(range(-32, 33), key=abs))
        return cls(n=n, eps=eps, margin=min(near, key=miss))

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

    def mixing_bound(self) -> float:
        """1: the latent bits are i.i.d."""
        return 1.0

    def weight_law(self) -> np.ndarray:
        return weight_distribution(self)

    def covariance(self) -> np.ndarray:
        """Exact (n, n) covariance from one walk: ``Var(Y_i)`` on the diagonal, :func:`exact_covariance` off it."""
        _, _, dev, pair, *_ = _tail_and_covariance(self.n, self.eps, self.threshold)
        cov = np.full((self.n, self.n), pair)
        np.fill_diagonal(cov, (self.eps + dev) * (1.0 - self.eps - dev))
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


class MarginalErrorRate(NamedTuple):
    """Exact ``E[Y_i]`` with its deviation from eps and the trigger probability."""

    value: float
    deviation: float
    trigger_prob: float


class CovarianceDecomposition(NamedTuple):
    """Pair covariance split by conditioning on the trigger indicator.

    ``conditional_term`` is the expected conditional covariance given the
    indicator, ``between_term`` the covariance of the conditional means, and
    ``total`` the unconditional covariance, which their sum equals.  The
    between term can never exceed ``p (1 - p)`` for trigger probability p.
    """

    conditional_term: float
    between_term: float
    total: float
    trigger_prob: float


class TailScalingFit(NamedTuple):
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


def _tail_and_covariance(m: int, eps: float, t: float):
    """Every moment of the spec with ``m`` sites and threshold ``t``, from one walk.

    Returns ``(log_scale, mass, dev, cov, conditional, between)``: the
    trigger probability ``exp(log_scale) * mass``, ``dev = E[Y_i] - eps``,
    ``Cov(Y_i, Y_j)`` and its :class:`CovarianceDecomposition` terms (the
    last three 0 when ``m < 2``), each summed from the threshold away from
    the mean: over the trigger side above the mean, else the calm side.
    """
    k = math.floor(t)
    if k >= m:
        return 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
    if k < 0:
        return 0.0, 1.0, 1.0 - eps, 0.0, 0.0, 0.0
    if k + 1 > m * eps:
        log_scale, terms = _pmf_walk(m, eps, k + 1, 1)
        mass = float(terms.sum())
        w = math.exp(log_scale) * terms
        weights = np.arange(k + 1, k + 1 + terms.size)
        q = weights / m
        corr = float(w @ (1.0 - q))
        if m < 2:
            return log_scale, mass, corr, 0.0, 0.0, 0.0
        g = 1.0 - 2.0 * eps * (1.0 - q) - q * (weights - 1) / (m - 1)
        # The form in covariance_decomposition; a calm set {W = 0} holds constant errors.
        p, d = math.exp(log_scale) * mass, q - eps
        h = d * d - q * (1.0 - q) / (m - 1)
        conditional = 0.0 if k == 0 else -float(w @ h) - float(w @ d) ** 2 / (1.0 - p)
        between = p * (1.0 - eps - corr) ** 2 / (1.0 - p)
        return log_scale, mass, corr, float(w @ g) - corr * corr, conditional, between
    log_scale, terms = _pmf_walk(m, eps, k, -1)
    mass = max(0.0, 1.0 - math.exp(log_scale) * float(terms.sum()))
    w = math.exp(log_scale) * terms
    weights = np.arange(k, k - terms.size, -1)
    q = weights / m
    s0 = float(w.sum())
    s1 = float(w @ q)
    s2 = float(w @ (q * (weights - 1) / (m - 1)))
    # Centred on the calm mean s1 / s0; s0 is 0 only when every term is.
    calm = s0 or 1.0
    conditional = float(w @ (q - s1 / calm) ** 2) - float(w @ (q * (1.0 - q))) / (m - 1)
    cov = (1.0 - s0) * (s0 - 2.0 * s1) + s2 - s1 * s1
    return 0.0, mass, mass + s1 - eps, cov, conditional, mass * (s0 - s1) * (1.0 - s1 / calm)


def _binom_tail_gt(m: int, eps: float, t: float) -> float:
    """``P(Bin(m, eps) > t)``."""
    log_scale, mass, *_ = _tail_and_covariance(m, eps, t)
    return math.exp(log_scale) * mass


def log_trigger_probability(spec: ThresholdModelSpec) -> float:
    """Natural log of :func:`trigger_probability`; ``-inf`` when no weight triggers.

    Resolves probabilities far below the smallest positive float.
    """
    log_scale, mass, *_ = _tail_and_covariance(spec.n, spec.eps, spec.threshold)
    return log_scale + math.log(mass) if mass > 0.0 else -math.inf


def trigger_probability(spec: ThresholdModelSpec) -> float:
    """Exact probability that the latent weight exceeds the trigger threshold."""
    return _binom_tail_gt(spec.n, spec.eps, spec.threshold)


def marginal_error_rate(spec: ThresholdModelSpec, site: int = 0) -> MarginalErrorRate:
    """Exact single-site error probability ``eps + dev``, from one walk.

    It reads the walk's trigger probability and ``dev = E[1 - X_i; trigger]``
    (as ``P(trigger) + E[X_i; calm] - eps`` below the mean), which is at
    most the trigger probability.  The sites are exchangeable, so the value
    does not depend on ``site``.
    """
    if not 0 <= site < spec.n:
        raise ValidationError(f"site {site} out of range for n={spec.n}")
    log_scale, mass, dev, *_ = _tail_and_covariance(spec.n, spec.eps, spec.threshold)
    return MarginalErrorRate(value=spec.eps + dev, deviation=dev, trigger_prob=math.exp(log_scale) * mass)


def exact_covariance(spec: ThresholdModelSpec, i: int = 0, j: int = 1) -> float:
    """Exact ``Cov(Y_i, Y_j)`` for distinct sites, summed on one side of the threshold.

    The sites are exchangeable, so the value is the same for every pair.
    Above the mean it takes the form in the module docstring; below it, with
    the calm mass ``s0`` and moments ``s1 = sum w_m q_m`` and ``s2 = sum w_m
    q_m (m - 1) / (n - 1)`` over ``m <= floor(B)``, ``q_m = m / n``, it is
    ``(1 - s0)(s0 - 2 s1) + s2 - s1^2``.  Either way it keeps full relative
    precision far below the 1e-16 resolution of the moment difference.
    """
    return covariance_decomposition(spec, i, j).total


def covariance_decomposition(spec: ThresholdModelSpec, i: int = 0, j: int = 1) -> CovarianceDecomposition:
    """Split the pair covariance by conditioning on the trigger indicator, from one walk.

    Given a trigger the errors are all ones, so with ``p = P(trigger)`` and
    ``mu = E[X_i | calm] = (eps + dev - p) / (1 - p)`` the between term is
    ``p (1 - p) (1 - mu)^2`` and the conditional term ``(1 - p) Cov(X_i, X_j
    | calm)``, read off the calm moments below the mean.  Above it, with
    ``d = m/n - eps`` and ``h = d^2 - (m/n)(1 - m/n) / (n - 1)`` (binomial
    means 0), it is ``-sum w_m h(m) - (sum w_m d)^2 / (1 - p)`` over ``m >
    floor(B)``, every term O(p).  ``total`` is :func:`exact_covariance`.
    """
    n = spec.n
    if n < 2:
        raise ValidationError("pair covariance requires n >= 2")
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValidationError("sites must be distinct and in range")
    log_scale, mass, _, cov, conditional, between = _tail_and_covariance(n, spec.eps, spec.threshold)
    return CovarianceDecomposition(conditional, between, cov, math.exp(log_scale) * mass)


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
    pmf = _binom_pmf(spec.n, spec.eps)
    pmf[max(math.floor(spec.threshold) + 1, 0) :] = 0.0
    pmf[spec.n] += trigger_probability(spec)
    return pmf


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
