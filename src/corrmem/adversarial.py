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
``moments().log_trigger_prob`` even below 1e-308.  One walk gives the
trigger probability, the deviation ``dev = E[Y_i] - eps`` and the pair
covariance, and the decomposition of that covariance follows from them:
:meth:`ThresholdModelSpec.moments` returns all of them in one record.
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

from .channel import GlobalThresholdChannel, HiddenErrorModel, _trigger_cut
from .errors import ValidationError
from .field import MarkovFieldSpec
from .rng import _integer

__all__ = [
    "ThresholdModelSpec",
    "ThresholdMoments",
]


def _iid_field(spec: "ThresholdModelSpec") -> MarkovFieldSpec:
    """i.i.d. Bernoulli(eps) latent bits: ``n - 1`` kernels whose rows are both the initial law."""
    initial = np.array([1.0 - spec.eps, spec.eps])
    return MarkovFieldSpec(n=spec.n, alphabet_size=2, initial=initial, kernels=np.tile(initial, (spec.n - 1, 2, 1)))


class ThresholdMoments(NamedTuple):
    """Every moment of a threshold spec, from one binomial walk; no moment takes a site.

    ``trigger_prob`` is ``p = P(W > B)`` and ``log_trigger_prob`` its log
    (``-inf`` if no weight triggers), finite far below the float range.
    ``rate = eps + deviation`` is ``E[Y_i]``, and ``deviation = E[1 - X_i;
    trigger]`` (``p + E[X_i; calm] - eps`` below the mean) is at most ``p``.
    ``covariance`` is ``Cov(Y_i, Y_j)`` of distinct sites (0.0 at ``n = 1``):
    above the mean the form in the module docstring; below it ``(1 - s0)(s0
    - 2 s1) + s2 - s1^2``, with the calm mass ``s0`` and ``s1 = sum w_m
    q_m``, ``s2 = sum w_m q_m (m - 1) / (n - 1)`` over ``m <= floor(B)``,
    ``q_m = m / n``.  It splits by the trigger into ``conditional_term =
    (1 - p) Cov(X_i, X_j | calm)`` and ``between_term = p (1 - p) (1 -
    E[X_i | calm])^2``, at most ``p (1 - p)``.  Above the mean, with ``d =
    q_m - eps`` and ``h = d^2 - q_m (1 - q_m) / (n - 1)``, the conditional
    term is ``-sum w_m h - (sum w_m d)^2 / (1 - p)`` over ``m > floor(B)``.
    """

    trigger_prob: float
    log_trigger_prob: float
    rate: float
    deviation: float
    covariance: float
    conditional_term: float
    between_term: float

    @property
    def retention_upper_bound(self) -> float:
        """``1 / p``, the exact mean epochs to the first trigger, which no decoder outlives; ``inf`` if ``p`` is 0."""
        return math.inf if self.trigger_prob == 0.0 else 1.0 / self.trigger_prob


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
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
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
        n = _integer(n, "n", 1)
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

    def moments(self) -> ThresholdMoments:
        """Every moment of the spec, from one walk of :func:`_tail_and_covariance`."""
        log_scale, mass, dev, cov, conditional, between = _tail_and_covariance(self.n, self.eps, self.threshold)
        log_p = log_scale + math.log(mass) if mass > 0.0 else -math.inf
        return ThresholdMoments(math.exp(log_scale) * mass, log_p, self.eps + dev, dev, cov, conditional, between)

    def mean_rate(self) -> float:
        return self.moments().rate

    def site_rates(self) -> np.ndarray:
        """``mean_rate()`` at every site: the sites are exchangeable."""
        return np.full(self.n, self.mean_rate())

    def mixing_bound(self) -> float:
        """1: the latent bits are i.i.d."""
        return 1.0

    def weight_law(self) -> np.ndarray:
        """Exact law of the observed error weight, shape (n + 1,).

        Below the trigger the weight is the binomial latent weight; all
        triggering mass collapses onto weight n.
        """
        pmf = _binom_pmf(self.n, self.eps)
        pmf[_trigger_cut(self.n, self.threshold) + 1 :] = 0.0
        pmf[self.n] += self.moments().trigger_prob
        return pmf

    def covariance(self) -> np.ndarray:
        """Exact (n, n) covariance from one walk: ``Var(Y_i)`` on the diagonal, the pair covariance off it."""
        m = self.moments()
        cov = np.full((self.n, self.n), m.covariance)
        np.fill_diagonal(cov, (self.eps + m.deviation) * (1.0 - self.eps - m.deviation))
        return cov

    def tail(self, k: int) -> float:
        """``P(sum Y > k)``, with no weight law.

        Weights strictly between ``floor(B)`` and ``n`` carry no mass, so
        from ``floor(B)`` up to ``n`` the tail is the trigger probability.
        """
        k = _integer(k, "k")
        return 0.0 if k >= self.n else _binom_tail_gt(self.n, self.eps, min(k, self.threshold))

    def _weight_blocks(self, gens, count: int):
        """Per generator, ``count`` binomial latent weights, each ``n`` above the trigger: one draw per epoch."""
        for gen in gens:
            latent = gen.binomial(self.n, self.eps, size=count)
            yield np.where(latent <= self.threshold, latent, self.n)


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
    ``Cov(Y_i, Y_j)`` and its :class:`ThresholdMoments` decomposition terms
    (the last three 0 when ``m < 2``), each summed from the threshold away from
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
        # The form in ThresholdMoments; a calm set {W = 0} holds constant errors.
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
