import random

import numpy as np

from laurent_eulerian.algebra import MultiPoly
from laurent_eulerian.deadline import NO_DEADLINE
from laurent_eulerian.experiments import GenericFormSet


def variable(j: int, nvars: int, offset: int, field) -> MultiPoly:
    """x_j among the variables x_offset, ..., x_{offset+nvars-1}."""
    return MultiPoly({tuple(int(t == j - offset) for t in range(nvars)): 1}, nvars, offset, field)


def random_poly(rng: random.Random, nvars: int, offset: int, field,
                max_terms: int = 4, max_exp: int = 3, coeff_range: int = 20) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        c = rng.randint(-coeff_range, coeff_range)
        terms[exps] = terms.get(exps, 0) + c
    return MultiPoly(terms, nvars, offset, field)


def degenerate_seeds(monkeypatch, bad) -> None:
    """Stub GenericFormSet.generate so that every seed in bad gets zero forms."""
    real = GenericFormSet.generate

    def generate(seed, sizes, deadline=NO_DEADLINE):
        if seed not in bad:
            return real(seed, sizes, deadline)
        return GenericFormSet(seed, tuple(np.zeros(size, dtype=np.int32) for size in sizes))

    monkeypatch.setattr(GenericFormSet, "generate", generate)

