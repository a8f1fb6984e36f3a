import random

from kcsp import CspInstance, Nogood


def random_instance(rng: random.Random, max_n: int = 5, max_d: int = 3) -> CspInstance:
    """Small random instance for fuzz cross-checks; arities mix 1..3."""
    n = rng.randint(1, max_n)
    d = rng.randint(2, max_d)
    m = rng.randint(0, 8)
    nogoods = []
    for _ in range(m):
        arity = rng.randint(1, min(3, n))
        variables = rng.sample(range(1, n + 1), arity)
        nogoods.append(Nogood([(v, rng.randrange(d)) for v in variables]))
    return CspInstance(n, d, nogoods)
