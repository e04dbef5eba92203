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

The law of the total error weight lives here too, for any model, a
threshold spec included: :func:`weight_law` gives it exactly,
:func:`exact_tail` and :func:`empirical_tail` give the probability that the
weight exceeds a threshold.  The per-epoch failure probability of a memory is that tail at the
code's correction threshold.
"""

import math
from typing import NamedTuple

import numpy as np

from .channel import HiddenErrorModel, _require_mc
from .errors import ValidationError
from .rng import make_generator

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
    if beta < 0.0:
        raise ValidationError("beta must be non-negative")
    if n < 1:
        raise ValidationError("n must be >= 1")
    return 2.0 * math.exp(-(beta**2) * n)


def chain_rate_constant(c: float, m: float) -> float:
    """Exponent rate ``1 / (2 c^2 m^2)`` of :func:`chain_tail_bound`."""
    if c <= 0.0:
        raise ValidationError("c must be positive")
    if m < 1.0:
        raise ValidationError("m must be >= 1")
    return 1.0 / (2.0 * c * c * m * m)


def chain_tail_bound(beta: float, n: int, c: float, m: float) -> float:
    """Ceiling ``2 exp(-beta^2 n / (2 c^2 m^2))`` for the chain-driven part.

    Bounds the probability that a ``c``-Lipschitz function (Hamming metric)
    of the latent chain strays ``beta * n`` from its mean, where ``m`` is
    the chain mixing bound.  A constant function (``c == 0``) cannot stray
    at all, so the ceiling is 0 for positive ``beta``.
    """
    if beta < 0.0:
        raise ValidationError("beta must be non-negative")
    if n < 1:
        raise ValidationError("n must be >= 1")
    if c < 0.0:
        raise ValidationError("c must be non-negative")
    if m < 1.0:
        raise ValidationError("m must be >= 1")
    if c == 0.0:
        return 0.0 if beta > 0.0 else 2.0
    return 2.0 * math.exp(-(beta**2) * n * chain_rate_constant(c, m))


def combined_tail_bound(eps: float, delta: float, n: int, c: float, m: float) -> float:
    """Ceiling on ``P(sum Y > n (eps + delta))`` for mean rate at most eps.

    The deviation is split evenly: half is charged to conditional
    fluctuations, half to the latent chain.
    """
    if not 0.0 <= eps < 1.0:
        raise ValidationError("eps must lie in [0, 1)")
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValidationError("delta must be positive and finite")
    return hoeffding_conditional_bound(delta / 2.0, n) + chain_tail_bound(
        delta / 2.0, n, c, m
    )


def clopper_pearson(count: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Two-sided Clopper-Pearson interval for a binomial proportion."""
    if not 0 <= count <= trials:
        raise ValidationError("count must lie in [0, trials]")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
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
    """Sampled exceedance probability with a Clopper-Pearson interval."""

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


def _check_model(model):
    """``model`` itself if it is a :class:`HiddenErrorModel` (a threshold spec is one); else ValidationError."""
    if not isinstance(model, HiddenErrorModel):
        raise ValidationError(f"unsupported model type {type(model).__name__}")
    return model


def weight_law(model) -> np.ndarray:
    """Exact epoch weight law of ``model``; shape (n + 1,)."""
    return _check_model(model).weight_law()


def count_exceedances(model, gen: "np.random.Generator", trials: int, threshold: float) -> int:
    """How many of ``trials`` epochs drawn from ``gen`` weigh more than ``threshold``.

    The epochs are drawn ``_MC_BLOCK`` at a time through the model's
    ``sample_weights``.
    """
    _check_model(model)
    if math.isnan(threshold):
        raise ValidationError("tail threshold must not be NaN")
    if not isinstance(trials, (int, np.integer)) or trials < 0:
        raise ValidationError("trials must be a non-negative integer")
    count = 0
    for done in range(0, trials, _MC_BLOCK):
        weights = model.sample_weights([gen], min(_MC_BLOCK, trials - done))
        count += int(np.count_nonzero(weights > threshold))
    return count


def exact_tail(model, threshold: float) -> float:
    """Exact ``P(sum Y > threshold)`` from the model's ``tail(k)``: 1 below 0, 0 from ``n`` on."""
    n = _check_model(model).n
    if math.isnan(threshold):
        raise ValidationError("tail threshold must not be NaN")
    return min(1.0, model.tail(math.floor(min(max(threshold, -1.0), n))))


def empirical_tail(model, threshold: float, trials: int, seed: int) -> TailEstimate:
    """Monte Carlo ``P(sum Y > threshold)`` with a Clopper-Pearson interval."""
    _require_mc(trials, seed)
    exceedances = count_exceedances(model, make_generator(seed), trials, threshold)
    lo, hi = clopper_pearson(exceedances, trials)
    return TailEstimate(
        value=exceedances / trials,
        ci_lo=lo,
        ci_hi=hi,
        trials=trials,
        exceedances=exceedances,
    )


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

    Unsupplied ingredients are computed from the model: ``eps`` as the exact
    mean error rate, ``c`` as the Lipschitz constant of the conditional mean
    error count, ``m`` as the chain mixing bound.  ``method="exact"``
    resolves the tail through :func:`exact_tail` (the interval collapses to
    a point); ``method="mc"`` samples it.
    """
    n = _check_model(model).n
    if eps is None:
        eps = model.mean_rate()
    if c is None:
        c = model.lipschitz()
    if m is None:
        m = model.mixing_bound()
    threshold = n * (eps + delta)
    bound = combined_tail_bound(eps, delta, n, c, m)
    if method == "exact":
        p = exact_tail(model, threshold)
        estimate, ci_lo, ci_hi, used = p, p, p, 0
    elif method == "mc":
        est = empirical_tail(model, threshold, trials, seed)
        estimate, ci_lo, ci_hi, used = est.value, est.ci_lo, est.ci_hi, est.trials
    else:
        raise ValidationError(f"unknown method {method!r}")
    rate = chain_rate_constant(c, m) if c > 0.0 else math.inf
    return TailReport(
        n=n,
        eps=float(eps),
        delta=float(delta),
        threshold=float(threshold),
        c=float(c),
        m=float(m),
        rate_constant=rate,
        estimate=float(estimate),
        ci_lo=float(ci_lo),
        ci_hi=float(ci_hi),
        trials=used,
        bound=float(bound),
        vacuous=bound >= 1.0,
        verdict=_verdict(ci_lo, ci_hi, bound),
        method=method,
    )
