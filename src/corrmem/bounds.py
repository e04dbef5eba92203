"""Concentration ceilings for the total error count, and their verification.

The total error count of a hidden-field model concentrates for two separate
reasons, and the combined ceiling adds one term for each:

* given the latent configuration the error bits are independent, so the
  count stays within ``beta * n`` of its conditional mean up to
  ``2 exp(-beta^2 n)`` (:func:`hoeffding_conditional_bound`);
* the conditional mean itself is a Lipschitz function of the latent chain,
  so the martingale method for dependent variables keeps it within
  ``beta * n`` of its expectation up to ``2 exp(-beta^2 n / (2 c^2 m^2))``
  for Lipschitz constant ``c`` and chain mixing bound ``m``
  (:func:`chain_tail_bound`).

Splitting a deviation ``delta`` evenly across the two mechanisms bounds the
tail beyond ``n (eps + delta)`` whenever the mean per-site error rate is at
most ``eps`` (:func:`combined_tail_bound`).  :func:`verify_bound` confronts
such a ceiling with an exact or sampled tail and issues a verdict.

The tails of the total error weight live here too, for any model, a
threshold spec included: :func:`exact_tail` and :func:`empirical_tail` give
the probability that the weight exceeds a threshold.  The per-epoch failure
probability of a memory is that tail at the code's correction threshold.
The exact law itself is ``model.weight_law()``; :func:`weight_law`, exported
here, is :func:`corrmem.channel.weight_distribution` under a second name.
"""

import math
from typing import NamedTuple

import numpy as np

from .channel import _check_model, _require_mc, _trigger_cut, weight_distribution as weight_law
from .errors import ValidationError
from .rng import _integer, make_generator

__all__ = [
    "TailEstimate",
    "TailReport",
    "chain_rate_constant",
    "chain_tail_bound",
    "clopper_pearson",
    "combined_tail_bound",
    "count_exceedances",
    "empirical_tail",
    "exact_tail",
    "hoeffding_conditional_bound",
    "verify_bound",
    "weight_law",
]

_MC_BLOCK = 100_000


def hoeffding_conditional_bound(beta: float, n: int) -> float:
    """Ceiling ``2 exp(-beta^2 n)`` on the conditionally independent part.

    Bounds the probability that the error count strays ``beta * n`` from
    its conditional mean given the latent configuration.  The constant in
    the exponent is the conservative one used throughout this package, a
    factor two weaker than the sharpest Hoeffding form, so every dominance
    check here holds with slack.
    """
    if not beta >= 0.0:
        raise ValidationError("beta must be non-negative")
    n = _integer(n, "n", 1)
    return 2.0 * math.exp(-(beta**2) * n)


def _check_ceiling(eps=None, delta=None, c=None, m=None) -> None:
    """The one check of each ceiling input that is given, in :func:`combined_tail_bound`'s order."""
    if eps is not None and not 0.0 <= eps < 1.0:
        raise ValidationError("eps must lie in [0, 1)")
    if delta is not None and not (math.isfinite(delta) and delta > 0.0):
        raise ValidationError("delta must be positive and finite")
    if c is not None and not c >= 0.0:
        raise ValidationError("c must be non-negative")
    if m is not None and not m >= 1.0:
        raise ValidationError("m must be >= 1")


def chain_rate_constant(c: float, m: float) -> float:
    """Exponent rate ``1 / (2 c^2 m^2)`` of :func:`chain_tail_bound`."""
    if not c > 0.0:
        raise ValidationError("c must be positive")
    _check_ceiling(m=m)
    return 1.0 / (2.0 * c * c * m * m)


def chain_tail_bound(beta: float, n: int, c: float, m: float) -> float:
    """Ceiling ``2 exp(-beta^2 n / (2 c^2 m^2))`` for the chain-driven part.

    Bounds the probability that a ``c``-Lipschitz function (Hamming metric)
    of the latent chain strays ``beta * n`` from its mean, where ``m`` is
    the chain mixing bound.  A constant function (``c == 0``) cannot stray
    at all, so the ceiling is 0 for positive ``beta``.
    """
    if not beta >= 0.0:
        raise ValidationError("beta must be non-negative")
    n = _integer(n, "n", 1)
    _check_ceiling(c=c, m=m)
    if c == 0.0:
        return 0.0 if beta > 0.0 else 2.0
    return 2.0 * math.exp(-(beta**2) * n * chain_rate_constant(c, m))


def combined_tail_bound(eps: float, delta: float, n: int, c: float, m: float) -> float:
    """Ceiling on ``P(sum Y > n (eps + delta))`` for mean rate at most eps.

    The deviation is split evenly: half is charged to conditional
    fluctuations, half to the latent chain.
    """
    _check_ceiling(eps, delta)
    return hoeffding_conditional_bound(delta / 2.0, n) + chain_tail_bound(
        delta / 2.0, n, c, m
    )


def clopper_pearson(count: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Two-sided Clopper-Pearson interval for a binomial proportion."""
    trials = _integer(trials, "trials", 1)
    if not 0 <= _integer(count, "count") <= trials:
        raise ValidationError("count must lie in [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValidationError("confidence must lie in (0, 1)")
    # Imported here, not at module level: scipy.special takes longer to
    # import than every exact computation of a run together.
    from scipy import special

    alpha = 1.0 - confidence
    lo = 0.0 if count == 0 else float(special.betaincinv(count, trials - count + 1, alpha / 2.0))
    hi = 1.0 if count == trials else float(special.betaincinv(count + 1, trials - count, 1.0 - alpha / 2.0))
    return lo, hi


class TailEstimate(NamedTuple):
    """Exceedance probability with a Clopper-Pearson interval when sampled.

    An exact estimate is a point: ``value == ci_lo == ci_hi`` and
    ``trials == exceedances == 0``.
    """

    value: float
    ci_lo: float
    ci_hi: float
    trials: int
    exceedances: int


class TailReport(NamedTuple):
    """One bound-versus-tail comparison.

    ``verdict`` is ``"dominated"`` when the interval sits entirely at or
    below the analytic ceiling, ``"violated"`` when it sits entirely above,
    and ``"unresolved"`` when it straddles the ceiling.  ``vacuous`` flags
    ceilings of at least 1, which dominate trivially.  ``rate_constant`` is
    the chain exponent rate ``1 / (2 c^2 m^2)`` entering the ceiling.
    """

    n: int
    eps: float
    delta: float
    threshold: float
    c: float
    m: float
    rate_constant: float
    estimate: float
    ci_lo: float
    ci_hi: float
    trials: int
    bound: float
    vacuous: bool
    verdict: str
    method: str


def count_exceedances(model, gen: "np.random.Generator", trials: int, threshold: float) -> int:
    """How many of ``trials`` epochs drawn from ``gen`` weigh more than ``threshold``.

    The epochs are drawn as ``sample_weights`` calls of ``_MC_BLOCK`` epochs
    would draw them, and counted stack by stack from the model's weight
    blocks, so no ``_MC_BLOCK``-long weight array is held.  As in ``sample_weights``,
    a block above 2 048 epochs of any model but a threshold spec needs a Philox ``gen``.
    """
    _check_model(model)
    if math.isnan(threshold):
        raise ValidationError("tail threshold must not be NaN")
    trials = _integer(trials, "trials", 0)
    count = 0
    for done in range(0, trials, _MC_BLOCK):
        for weights in model._weight_blocks([gen], min(_MC_BLOCK, trials - done)):
            count += int(np.count_nonzero(weights > threshold))
    return count


def exact_tail(model, threshold: float) -> float:
    """Exact ``P(sum Y > threshold)`` from the model's ``tail(k)``: 1 below 0, 0 from ``n`` on."""
    n = _check_model(model).n
    if math.isnan(threshold):
        raise ValidationError("tail threshold must not be NaN")
    return min(1.0, model.tail(_trigger_cut(n, threshold)))


def empirical_tail(model, threshold: float, trials: int, seed: int) -> TailEstimate:
    """Monte Carlo ``P(sum Y > threshold)`` with a Clopper-Pearson interval."""
    trials = _require_mc(trials, seed)
    exceedances = count_exceedances(model, make_generator(seed), trials, threshold)
    lo, hi = clopper_pearson(exceedances, trials)
    return TailEstimate(
        value=exceedances / trials,
        ci_lo=lo,
        ci_hi=hi,
        trials=trials,
        exceedances=exceedances,
    )


def _tail_estimate(model, threshold: float, method: str, trials: int | None, seed: int | None) -> TailEstimate:
    """``P(sum Y > threshold)`` by ``method``: ``"exact"`` as a point, ``"mc"`` sampled."""
    if method == "exact":
        p = exact_tail(model, threshold)
        return TailEstimate(value=p, ci_lo=p, ci_hi=p, trials=0, exceedances=0)
    if method == "mc":
        return empirical_tail(model, threshold, trials, seed)
    raise ValidationError(f"unknown method {method!r}")


def _verdict(ci_lo: float, ci_hi: float, bound: float) -> str:
    if ci_hi <= bound:
        return "dominated"
    if ci_lo > bound:
        return "violated"
    return "unresolved"


def verify_bound(
    model,
    delta: float,
    eps: float | None = None,
    c: float | None = None,
    m: float | None = None,
    trials: int = 20_000,
    seed: int = 0,
    method: str = "mc",
) -> TailReport:
    """Confront the combined ceiling with the model's actual tail.

    Once ``method`` is known to be ``"exact"``, or ``"mc"`` with a seed and enough
    trials, and ``delta`` and each supplied ingredient pass the ceiling's checks,
    unsupplied ingredients come from the model: ``eps`` as the exact mean error rate,
    ``c`` as the Lipschitz constant of the conditional mean error count, ``m`` as the
    chain mixing bound.  The tail is one :class:`TailEstimate`: ``method="exact"``
    reads it through :func:`exact_tail` as a point with ``trials == 0``;
    ``method="mc"`` samples it through :func:`empirical_tail`.
    """
    n = _check_model(model).n
    if method == "mc":
        _require_mc(trials, seed)
    elif method != "exact":
        raise ValidationError(f"unknown method {method!r}")
    # delta and each given override are checked before any model quantity is computed
    _check_ceiling(eps, delta, c, m)
    if eps is None:
        eps = model.mean_rate()
    if c is None:
        c = model.lipschitz()
    if m is None:
        m = model.mixing_bound()
    threshold = n * (eps + delta)
    bound = combined_tail_bound(eps, delta, n, c, m)
    est = _tail_estimate(model, threshold, method, trials, seed)
    rate = chain_rate_constant(c, m) if c > 0.0 else math.inf
    return TailReport(
        n=n,
        eps=float(eps),
        delta=float(delta),
        threshold=float(threshold),
        c=float(c),
        m=float(m),
        rate_constant=rate,
        estimate=float(est.value),
        ci_lo=float(est.ci_lo),
        ci_hi=float(est.ci_hi),
        trials=est.trials,
        bound=float(bound),
        vacuous=bound >= 1.0,
        verdict=_verdict(est.ci_lo, est.ci_hi, bound),
        method=method,
    )
