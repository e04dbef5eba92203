"""Seed derivation and counter-based random streams.

Every sampling routine in this package takes an explicit integer seed and is
deterministic given that seed.  Seeds for sub-tasks (grid points, trials,
worker shards) are derived with :func:`derive_seed`, which mixes a master
seed, a text label and an index through SHA-256.  Distinct labels or indices
therefore give independent streams, and the assignment never depends on
scheduling order, so results are identical no matter how work is split
across workers.

Streams themselves are Philox counter-based generators.  Batch samplers
consume a fixed per-trial layout from a single stream (trial ``t`` uses the
``t``-th block of draws), which keeps batched output equal to the
concatenation of per-trial output.

Runs that draw no random numbers never load ``numpy.random``: the package
names its types only in quoted annotations, and NumPy loads it on the
first ``make_generator`` call.
"""

import numbers

import numpy as np

from .errors import ValidationError

__all__ = ["derive_seed", "make_generator"]


def derive_seed(master_seed: int, label: str, index: int = 0) -> int:
    """Derive a 64-bit child seed from ``(master_seed, label, index)``.

    The triple is encoded unambiguously and hashed with SHA-256; the first
    eight bytes of the digest form the child seed.  Collisions between
    distinct triples are therefore not expected at any realistic scale.
    ``master_seed`` is a u64 seed and ``index`` an integer, neither a bool.
    """
    # hashlib loads OpenSSL's libcrypto, which a run that draws no random
    # numbers never needs; once loaded, this import is a dictionary lookup
    import hashlib

    if not isinstance(label, str) or not label:
        raise ValidationError("label must be a non-empty string")
    payload = f"{_seed(master_seed, 'master_seed')}:{label}:{_integer(index, 'index')}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


def _integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an int if it is an integer, not a bool, of at least ``least`` when given; the check of every count."""
    # a plain int skips the slower ABC check: seeds are derived per trial
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)) or (
        least is not None and value < least
    ):
        what = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}.get(least, f"an integer >= {least}")
        raise ValidationError(f"{name} must be {what}")
    return int(value)


def _seed(value, name: str) -> int:
    # Philox keys are u64: a seed outside would alias one inside, mod 2**64
    seed = _integer(value, name)
    if not 0 <= seed < 1 << 64:
        raise ValidationError(f"{name} must lie in [0, 2**64)")
    return seed


def make_generator(seed: int) -> "np.random.Generator":
    """Return a counter-based generator (Philox) keyed by a 64-bit seed in [0, 2**64)."""
    return np.random.Generator(np.random.Philox(key=_seed(seed, "seed")))
