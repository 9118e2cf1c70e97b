"""Seeded rational sampling for the randomized exact identity checks."""

from __future__ import annotations

import random
from fractions import Fraction

__all__ = ["random_fraction", "random_state", "random_distinct_state"]


def random_fraction(rng: random.Random) -> Fraction:
    """p/q with p in [-9, 9] and q in [1, 9]."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_state(rng: random.Random):
    return (random_fraction(rng), random_fraction(rng), random_fraction(rng))


def random_distinct_state(rng: random.Random):
    """A random_state with pairwise distinct entries."""
    while True:
        s = random_state(rng)
        if len(set(s)) == 3:
            return s
