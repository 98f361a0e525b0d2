"""Deterministic seed-substream derivation.

Every random draw in the package flows through a named substream derived
from a 64-bit master seed and a text label.  The derivation is pure integer
mixing (splitmix64 over an FNV-1a label hash), so identical (seed, label)
pairs yield identical streams on any platform, regardless of worker count
or scheduling.  Distinct labels give statistically independent streams.

:func:`rng_for` is the only place a substream is handed out, so it is also
the only writer of the seed-label ledger: inside a :func:`recording` block
it notes every label it serves.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

import numpy as np

_MASK64 = (1 << 64) - 1

# The labels handed out inside the innermost open ``recording`` block.
_ledger: Optional[set[str]] = None


@contextmanager
def recording() -> Iterator[set[str]]:
    """Collect every label :func:`rng_for` hands out inside the block; an
    enclosing block receives them too when this one exits."""
    global _ledger
    outer, _ledger = _ledger, set()
    try:
        yield _ledger
    finally:
        inner, _ledger = _ledger, outer
        record(inner)


def record(labels: Iterable[str]) -> None:
    """Add labels handed out elsewhere (in a pool worker) to the open ledger."""
    if _ledger is not None:
        _ledger.update(labels)


def splitmix64(value: int) -> int:
    """One round of the splitmix64 finalizer (public-domain constants)."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def derive_seed(master_seed: int, label: str, purpose: str = "") -> int:
    """Mix (master_seed, label[, purpose]) into a 64-bit substream seed.

    ``purpose`` separates independent draw channels that share one label,
    e.g. input draws vs. noise draws within a single sampling call, so
    changing one corruption spec never disturbs the other channels.
    """
    seed = splitmix64(
        (master_seed & _MASK64) ^ splitmix64(fnv1a64(label.encode("utf-8")))
    )
    if purpose:
        seed = splitmix64(seed ^ fnv1a64(purpose.encode("utf-8")))
    return seed


def rng_for(master_seed: int, label: str, purpose: str = "") -> np.random.Generator:
    """Generator for the named substream."""
    if _ledger is not None:
        _ledger.add(label)
    return np.random.default_rng(derive_seed(master_seed, label, purpose))
