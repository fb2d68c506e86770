"""Deterministic random-number utilities.

Every stochastic choice in the simulator (adversary behaviour, message
delays, workload generation) is derived from a single integer seed so that
every experiment in :mod:`repro.harness` is exactly reproducible.  We use
``numpy.random.Generator`` (PCG64) rather than the global ``random`` module
because independent, splittable streams make it easy to give each node,
adversary and delay model its own generator without correlation.

Seeds are handed out eagerly and generators are made on first use: building
a scenario derives one integer seed per Byzantine node with :func:`derive`,
and :class:`~repro.adversary.base.AdversaryContext` turns it into a
generator only when a strategy first reads ``ctx.rng``, so silent and crash
attackers, which never draw, never pay for one.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["make_rng", "spawn", "derive", "shuffled", "sample_without_replacement"]


def make_rng(seed: int | None = 0) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from an integer seed.

    ``None`` produces an OS-seeded generator; experiments should always pass
    an explicit integer to stay reproducible.
    """

    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``count`` statistically independent children."""

    if count < 0:
        raise ValueError("count must be non-negative")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(count)]


#: The 64-bit FNV prime, and the 63 bits of the FNV word that
#: :func:`derive` keeps.
_FNV_PRIME = 1099511628211
_MASK_63 = 0x7FFFFFFFFFFFFFFF


def derive(seed: int, *components: int | str) -> int:
    """Derive a new 63-bit seed from a base seed and a tuple of labels.

    This is used to give every (experiment, configuration, repetition)
    triple its own seed without having to thread generator objects through
    the whole harness.  The derivation is a stable hash, independent of
    ``PYTHONHASHSEED``.  ``seed`` may be any integer, numpy integers
    included; components are hashed through their ``str``.
    """

    acc = operator.index(seed) & _MASK_63
    # A small Fowler–Noll–Vo style mix keeps the derivation stable across
    # processes and Python versions (the built-in ``hash`` is salted).  The
    # low bits of a product and of an xor depend only on the low bits of
    # their operands, so reducing every step modulo 2**63 yields exactly the
    # low 63 bits of the 64-bit FNV word.
    for component in components:
        for byte in str(component).encode("utf-8"):
            acc = ((acc ^ byte) * _FNV_PRIME) & _MASK_63
    return acc


def shuffled(rng: np.random.Generator, items: list) -> list:
    """Return a new list with the items of ``items`` in random order."""

    order = rng.permutation(len(items))
    return [items[i] for i in order]


def sample_without_replacement(
    rng: np.random.Generator, items: list, count: int
) -> list:
    """Sample ``count`` distinct items from ``items``."""

    if count > len(items):
        raise ValueError(
            f"cannot sample {count} items from a population of {len(items)}"
        )
    idx = rng.choice(len(items), size=count, replace=False)
    return [items[i] for i in idx]
