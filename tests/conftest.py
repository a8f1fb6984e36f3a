import importlib.util
import os
import random
from pathlib import Path

from kcsp import CspInstance, gen_uniform

ROOT = Path(__file__).resolve().parents[1]


def load_bench_module(name: str):
    """bench/<name>.py, loaded read-only by path: bench/ is no package."""
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"kcsp_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's references, written from the definitions without calling
# into kcsp: the tests check against the same copy.
checks = load_bench_module("checks")


def src_env() -> dict:
    """The environment for a subprocess that imports kcsp from src/."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def random_instance(rng: random.Random, max_n: int = 5, max_d: int = 3) -> CspInstance:
    """Small random instance for fuzz cross-checks; arities mix 1..3."""
    n = rng.randint(1, max_n)
    d = rng.randint(2, max_d)
    m = rng.randint(0, 8)
    nogoods = []
    for _ in range(m):
        arity = rng.randint(1, min(3, n))
        variables = rng.sample(range(1, n + 1), arity)
        nogoods.append([(v, rng.randrange(d)) for v in variables])
    return CspInstance(n, d, nogoods)


def uniform_sample_500() -> list[CspInstance]:
    """Criterion 1's 500 seeded instances: n 4..12, d 2..4, k 2..3, d^n <= 2^16."""
    rng = random.Random(20260814)
    instances = []
    for i in range(500):
        n = rng.randint(4, 12)
        d = rng.choice([d for d in (2, 3, 4) if d**n <= 1 << 16])
        k = rng.choice([2, 3])
        m = rng.randint(1, 4 * n)
        instances.append(gen_uniform(n, d, k, m, seed=1000 + i))
    return instances
