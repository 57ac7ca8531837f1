"""Seeded random ideals and factors for the invariance checker and tests.

Numerators draw 1..5 generators with exponents uniform in [0, gmax]; the
denominator is built from multiples of the numerator's generators, so
J inside I holds by construction, with multipliers capped so every
exponent of J also stays at most gmax.  Draws with J = I are rejected and
redrawn.
"""

from __future__ import annotations

import random

from .ideals import Factor, FactorError, MonomialIdeal


def random_ideal(rng: random.Random, n: int, gmax: int) -> MonomialIdeal:
    count = rng.randint(1, 5)
    gens = [tuple(rng.randint(0, gmax) for _ in range(n)) for _ in range(count)]
    return MonomialIdeal(n, gens)


def random_factor(rng: random.Random, n: int, gmax: int) -> Factor:
    for _ in range(10000):
        I = random_ideal(rng, n, gmax)
        jgens = []
        for _ in range(rng.randint(0, 3)):
            base = rng.choice(I.gens)
            jgens.append(tuple(e + rng.randint(0, gmax - e) for e in base))
        try:
            return Factor(I, MonomialIdeal(n, jgens))
        except FactorError:
            continue  # drew J = I; reject and redraw
    raise RuntimeError("random factor generation kept drawing J = I")
