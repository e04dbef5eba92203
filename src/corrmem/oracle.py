"""Enumeration oracles for the test suite.

Everything here but :func:`expected_errors`, which reads out one given
configuration, walks all ``S**n`` latent configurations (or all ``2**n``
error vectors), so it is capped at :data:`corrmem.field.ENUM_LIMIT` states.
No production module imports it: every exact quantity the package computes
comes from a polynomial-time backend, and the tests check each of them
against the brute-force values below.

Configurations are indexed big-endian: site 0 is the most significant
digit, so ``index = sum_i x_i * S**(n - 1 - i)``.
"""

import numpy as np

from .channel import HiddenErrorModel, _add_bit, _site_probabilities
from .errors import EnumerationLimitError, ValidationError
from .field import ENUM_LIMIT, MarkovFieldSpec

__all__ = [
    "all_sequences",
    "brute_force_lipschitz",
    "conditional_weight_table",
    "exact_error_distribution",
    "exact_field_distribution",
    "expected_errors",
]

_CHUNK = 4096


def _require_enumerable(spec: MarkovFieldSpec) -> int:
    count = spec.alphabet_size**spec.n
    if count > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"{spec.alphabet_size}**{spec.n} = {count} latent configurations "
            f"exceed the enumeration limit {ENUM_LIMIT}"
        )
    return count


def exact_field_distribution(spec: MarkovFieldSpec) -> np.ndarray:
    """Exact joint law of the chain as a flat vector of length S**n.

    Use :func:`all_sequences` to decode indices back to configurations.
    """
    _require_enumerable(spec)
    s = spec.alphabet_size
    table = spec.initial.copy()
    for kernel in spec.kernels:
        table = (table.reshape(-1, s)[:, :, None] * kernel[None, :, :]).ravel()
    return table


def all_sequences(alphabet_size: int, n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Configurations ``start..stop-1`` in index order, one row per sequence.

    Row ``r`` decodes index ``start + r`` under the big-endian convention of
    :func:`exact_field_distribution`.
    """
    total = alphabet_size**n
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise ValidationError("invalid sequence index range")
    idx = np.arange(start, stop, dtype=np.int64)
    powers = alphabet_size ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] // powers[None, :]) % alphabet_size).astype(np.uint8)


def expected_errors(model: HiddenErrorModel, x) -> float:
    """Conditional mean number of errors, ``sum_i q_i(1 | x)``, of one configuration."""
    x = np.asarray(x)
    if x.shape != (model.n,):
        raise ValidationError(f"configuration must have shape ({model.n},)")
    if x.dtype.kind not in "biuf" or np.any(x < 0) or np.any(x != np.floor(x)):
        raise ValidationError("configuration must hold non-negative integer symbols")
    if x.max(initial=0) >= model.field.alphabet_size:
        raise ValidationError("configuration contains symbols outside the alphabet")
    return float(_site_probabilities(model, x.astype(np.uint8)[:, None]).sum())


def _enumerate_chunks(model: HiddenErrorModel):
    """Yield (field probabilities, conditional error probabilities) chunks."""
    law = exact_field_distribution(model.field)
    s, n = model.field.alphabet_size, model.n
    for start in range(0, law.size, _CHUNK):
        stop = min(start + _CHUNK, law.size)
        x = all_sequences(s, n, start, stop)
        yield law[start:stop], _site_probabilities(model, x.T).T


def exact_error_distribution(model: HiddenErrorModel) -> np.ndarray:
    """Exact law of the error vector as a flat vector of length 2**n.

    Error vectors are indexed big-endian (site 0 most significant), matching
    the convention of :func:`exact_field_distribution`.
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
    count = _require_enumerable(model.field)
    out = np.empty((count, model.n + 1))
    row = 0
    for _, q_chunk in _enumerate_chunks(model):
        out[row : row + q_chunk.shape[0]] = _weight_dp(q_chunk)
        row += q_chunk.shape[0]
    return out


def brute_force_lipschitz(model: HiddenErrorModel) -> float:
    """Largest one-flip change of ``sum_i q_i(1 | x)`` over all ``S**n`` configurations."""
    psi = np.concatenate([q_chunk.sum(axis=1) for _, q_chunk in _enumerate_chunks(model)])
    s, n = model.field.alphabet_size, model.n
    best = 0.0
    for axis in range(n):
        view = psi.reshape(s**axis, s, s ** (n - 1 - axis))
        gap = (view.max(axis=1) - view.min(axis=1)).max(initial=0.0)
        best = max(best, float(gap))
    return best
