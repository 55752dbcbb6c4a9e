"""Seeded rational rotations of a configuration file, for `verify-rotated`.

A rotation is a product of Householder reflections
H(v) = I - 2 v v^T / (v^T v) by small integer vectors v; every such product
is an exactly orthogonal rational matrix, so the rotated configuration has
the same pair invariants (and hence the same verdict) as its input, while its
coordinates, and the Gram adjugates the pair engine forms from them, grow to
a few hundred bits.  Only the standard library is used, so the generator is
independent of the program under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple

REFLECTIONS = 10
ENTRY_RANGE = 2          # reflection vectors have entries in [-2, 2]

IntMatrix = List[List[int]]


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def rotation(n: int, seed: int) -> Tuple[IntMatrix, int]:
    """(M, d) with Q = M / d the product of REFLECTIONS seeded Householder
    reflections in R^n; each factor is (v.v I - 2 v v^T) / v.v."""
    rng = random.Random(seed)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    d = 1
    for _ in range(REFLECTIONS):
        v = [0] * n
        while not any(v):
            v = [rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(n)]
        vv = sum(x * x for x in v)
        m = matmul(m, [[vv * int(i == j) - 2 * v[i] * v[j] for j in range(n)]
                       for i in range(n)])
        d *= vv
    return m, d


def is_orthogonal(m: IntMatrix, d: int) -> bool:
    """Q Q^T = I for Q = M / d, checked exactly as M M^T = d^2 I."""
    n = len(m)
    mt = [list(col) for col in zip(*m)]
    return matmul(m, mt) == [[d * d * int(i == j) for j in range(n)] for i in range(n)]


def primitive(row: Sequence[Fraction | int]) -> List[int]:
    """The row scaled to coprime integers (same line, same sign)."""
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in row]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints]


def rotate_config(data: dict, seed: int) -> dict:
    """The configuration with every basis row mapped x -> x Q, rows written
    as primitive integer vectors in the CLI's string format.  Raises if Q
    fails the exact orthogonality check."""
    m, d = rotation(int(data["n"]), seed)
    if not is_orthogonal(m, d):
        raise ArithmeticError("rotation is not exactly orthogonal")
    points = []
    for point in data["points"]:
        # x Q and x M span the same line; rows are stored up to scale.
        rows = [primitive([Fraction(x) for x in row]) for row in point]
        points.append([[str(x) for x in primitive(r)] for r in matmul(rows, m)])
    return {"n": data["n"], "m": data["m"], "points": points}


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
