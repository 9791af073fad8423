"""Deterministic RNG streams for reproducible parallel work.

Every randomized component draws from a named substream of a single master
seed.  Substreams are derived with ``numpy.random.SeedSequence`` spawn keys
and fed to the counter-based Philox generator, so results do not depend on
scheduling or worker count.
"""

from __future__ import annotations

import secrets

import numpy as np

from ._errors import InputError

__all__ = ["stream", "derive_seed", "fresh_seed"]


def _sequence(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    """The seed sequence of substream `path` of `seed`; a negative seed is
    an :class:`InputError`."""
    if int(seed) < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for substream `path` of `seed`.

    Identical (seed, path) pairs always yield bit-identical streams.
    """
    return np.random.Generator(np.random.Philox(_sequence(seed, path)))


def derive_seed(seed: int, *path: int) -> int:
    """Deterministically derive a child seed (u64) from `seed` and `path`."""
    return int(_sequence(seed, path).generate_state(1, dtype=np.uint64)[0])


def fresh_seed() -> int:
    """Draw a fresh u64 seed from OS entropy (callers must echo it)."""
    return secrets.randbits(64)
