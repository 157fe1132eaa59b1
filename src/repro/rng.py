"""Seeded random-number utilities.

All stochastic components of the library (task-graph generation, technology
library sampling, floorplan search) accept either an integer seed or a
pre-built :class:`random.Random` / :class:`numpy.random.Generator`.  This
module provides the canonicalisation helpers so every component treats seeds
identically and experiments are reproducible bit-for-bit, plus private
shortcuts for hot loops that replay ``randrange``/``choice``/``shuffle``
draw for draw.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, TypeVar, Union

import numpy as np

__all__ = ["SeedLike", "as_random", "as_generator", "spawn_seeds", "DEFAULT_SEED"]

#: Seed accepted anywhere in the library.
SeedLike = Union[int, random.Random, None]

#: Seed used when the caller does not supply one.  Fixed (not entropy-based)
#: so that "no seed" still means "reproducible run" — the experiments in the
#: paper are deterministic given the benchmark suite.
DEFAULT_SEED = 0xDA7E2005  # "DATE 2005"


def as_random(seed: SeedLike = None) -> random.Random:
    """Return a :class:`random.Random` for *seed*.

    ``None`` maps to :data:`DEFAULT_SEED`; an existing ``Random`` instance is
    returned unchanged (shared state, caller's responsibility); an integer
    builds a fresh generator.
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return random.Random(int(seed))


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    A :class:`random.Random` is reduced to an integer draw so numpy and
    stdlib streams stay decoupled.
    """
    if isinstance(seed, random.Random):
        seed = seed.randrange(2**32)
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(int(seed))


def spawn_seeds(seed: SeedLike, count: int) -> list:
    """Derive *count* independent integer sub-seeds from *seed*.

    Used when one experiment needs several decoupled random streams (e.g.
    one per benchmark) so that adding a stream does not perturb the others.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = as_random(seed)
    return [rng.randrange(2**32) for _ in range(count)]


# ----------------------------------------------------------------------
# draw-identical shortcuts for hot loops
# ----------------------------------------------------------------------
#: ``Random``'s bounded-integer draw over ``getrandbits``.  ``randrange``,
#: ``shuffle``, ``choice`` and ``sample`` all draw through ``_randbelow``;
#: every ``Random`` whose class did not replace ``random()`` alone has
#: this one, and the helpers below replay it without the argument layers
#: of the public methods around it.
_GETRANDBITS_BELOW = random.Random._randbelow_with_getrandbits

_T = TypeVar("_T")


def _draws_bits(rng: random.Random) -> bool:
    """True when *rng* draws bounded integers through ``getrandbits``."""
    return type(rng)._randbelow is _GETRANDBITS_BELOW


def _randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``, draw for draw.

    A generator that draws another way (a subclass overriding only
    ``random()``) gets its own ``randrange``.
    """
    if not _draws_bits(rng):
        return rng.randrange(n)
    if n <= 0:
        raise ValueError("empty range for randrange()")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _choice(rng: random.Random, seq: Sequence[_T]) -> _T:
    """``rng.choice(seq)`` for a non-empty *seq*, draw for draw."""
    if not _draws_bits(rng):
        return rng.choice(seq)
    return seq[_randbelow(rng, len(seq))]


def _shuffle(rng: random.Random, items: List[_T]) -> None:
    """``rng.shuffle(items)``, draw for draw."""
    if not _draws_bits(rng):
        rng.shuffle(items)
        return
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]
