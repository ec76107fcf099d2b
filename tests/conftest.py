import random

import pytest

from circleact.core import FixedPointData, FixedPointDatum


def random_data(
    rng: random.Random,
    max_points: int = 4,
    max_arity: int = 3,
    max_weight: int = 6,
    allow_empty: bool = False,
) -> FixedPointData:
    lo = 0 if allow_empty else 1
    k = rng.randint(lo, max_points)
    n = rng.randint(1, max_arity)
    points = tuple(
        FixedPointDatum(
            rng.choice((-1, 1)),
            tuple(rng.randint(1, max_weight) for _ in range(n)),
        )
        for _ in range(k)
    )
    return FixedPointData(points)


def even_data(
    rng: random.Random, min_points: int = 2, max_points: int = 8, max_weight: int = 4
) -> FixedPointData:
    """Random data in which every weight value occurs an even number of
    times: a random half of the weights, doubled, shuffled and dealt out to
    points of one arity with random signs."""
    while True:
        k = rng.randint(min_points, max_points)
        n = rng.randint(1, 3)
        if k * n % 2 == 0:
            break
    half = [rng.randint(1, max_weight) for _ in range(k * n // 2)]
    weights = half + half
    rng.shuffle(weights)
    return FixedPointData(
        tuple(
            FixedPointDatum(rng.choice((-1, 1)), tuple(weights[i * n:(i + 1) * n]))
            for i in range(k)
        )
    )


@pytest.fixture
def rng():
    return random.Random(20260824)
