"""Exact oracles for `odl.spearman` and `odl.mean_scores` in the tests (the
tie-free closed form of Spearman's rho, and a test of correct rounding
against values computed with `fractions.Fraction`), and seeded hard
vectors for both."""

import math
import random
from fractions import Fraction

from odl import AnalysisError, rank_solutions


def spearman_closed_form(a: dict[str, float], b: dict[str, float]) -> float:
    """1 - 6*sum(d^2)/(n(n^2-1)), exact for rank vectors without ties,
    computed as a Fraction and rounded once."""
    if set(a) != set(b):
        raise AnalysisError("rank vectors cover different solution ids")
    n = len(a)
    if n < 2:
        raise AnalysisError("need at least two solutions to correlate")
    d2 = sum((Fraction(a[i]) - Fraction(b[i])) ** 2 for i in a)
    return float(1 - 6 * d2 / (n * (n * n - 1)))


def is_nearest(value: float, sign: int, square: Fraction) -> bool:
    """Whether `value` is the float nearest sign * sqrt(square), ties to
    even: the exact magnitude lies between the midpoints from |value| to its
    two `math.nextafter` neighbours. Compared as squares, so an irrational
    value is never rounded on the way."""
    if value != 0 and math.copysign(1, value) != sign:
        return False
    v = abs(value)
    below = (Fraction(v) + Fraction(math.nextafter(v, 0.0))) / 2 if v else Fraction(0)
    # The neighbour above the largest float is infinite; its gap is not.
    above = Fraction(v) + Fraction(math.ulp(v)) / 2
    if below * below < square < above * above:
        return True
    return square in (below * below, above * above) and int(v / math.ulp(v)) % 2 == 0


def is_nearest_mean(value: float, scores: list[float]) -> bool:
    mean = sum(map(Fraction, scores)) / len(scores)
    return is_nearest(value, 1 if mean >= 0 else -1, mean * mean)


def is_nearest_rho(value: float, a: dict[str, float], b: dict[str, float]) -> bool:
    """Pearson's coefficient of the two vectors from its definition, over
    the deviations from the exact means."""
    ids = sorted(a)
    xs, ys = [Fraction(a[i]) for i in ids], [Fraction(b[i]) for i in ids]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    return is_nearest(value, 1 if cov >= 0 else -1, cov * cov / (var_x * var_y))


# Finite ranks that overflow in float arithmetic, and distinct subnormal
# ranks whose float deviations and squares vanish.
HUGE_RANKS = [
    {"a": 1e200, "b": 0.0, "c": 1.0},  # a square overflows
    {"a": 1.2e154, "b": -1.2e154, "c": 0.0},  # finite squares, infinite sum
    {"a": 1.7e308, "b": 1.7e308, "c": 1.0},  # the sum overflows
    {"a": 1.7e308, "b": -1.7e308, "c": -1.7e308},  # a deviation overflows
]
SUBNORMAL_RANKS = {"a": 1e-320, "b": 0.0, "c": 5e-324}


def hard_pairs(seed: int, count: int) -> list[tuple[dict[str, float], dict[str, float]]]:
    """`count` seeded pairs of vectors that spearman takes: rank vectors of
    tied integer scores (n 3 to 30), and float vectors mixing ties,
    subnormals and values near the float limit. No vector is constant."""
    rng = random.Random(seed)

    def value():
        return rng.choice((
            float(rng.randint(-3, 3)), rng.uniform(-1e3, 1e3), rng.uniform(-1e-300, 1e-300),
            rng.choice((5e-324, -1e-320, 2.5e-308)), rng.uniform(-1, 1) * 1.7e308, rng.choice((1e300, -1e300)),
        ))

    pairs = []
    while len(pairs) < count:
        ids = [f"s{k}" for k in range(rng.randint(3, 30))]
        if rng.random() < 0.5:
            levels = rng.randint(2, len(ids))
            a, b = (rank_solutions({s: float(rng.randrange(levels)) for s in ids}) for _ in range(2))
        else:
            a, b = ({s: value() for s in ids} for _ in range(2))
        if len(set(a.values())) > 1 and len(set(b.values())) > 1:
            pairs.append((a, b))
    return pairs


def hard_tables(seed: int, count: int) -> list[list[float]]:
    """`count` seeded lists of scores (1 to 6) from every range of floats,
    their sums overflowing or cancelling."""
    rng = random.Random(seed)

    def score():
        return rng.choice((
            float(rng.randint(-5, 5)), rng.uniform(-100, 100), rng.gauss(0, 1e12),
            rng.uniform(-1e307, 1e307), rng.choice((-1.7e308, 1.7e308)), rng.uniform(-1e-300, 1e-300),
            rng.choice((5e-324, -1e-320)),
        ))

    return [[score() for _ in range(rng.randint(1, 6))] for _ in range(count)]
