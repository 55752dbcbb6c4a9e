"""Zonal polynomials of degree <= 2 on real Grassmannians and the averaged
power-sum constants used by the design criteria.

All certificate values are exact Fractions.  The only floating point lives in
the Monte-Carlo moment oracle, which is a validation channel and never enters
a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .exactalg import Rational

MAX_T = 3    # the largest t with a closed form in `constant_c`, so in any verdict


class Partition:
    """Weakly decreasing positive integer parts; () is the zero partition.

    Evaluation support is limited to the degree <= 2 partitions
    (), (1), (1,1), (2).
    """

    __slots__ = ("parts",)

    def __init__(self, *parts: int):
        if len(parts) == 1 and isinstance(parts[0], (tuple, list)):
            parts = tuple(parts[0])
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        self.parts = parts

    @property
    def degree(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


P0 = Partition()
P1 = Partition(1)
P11 = Partition(1, 1)
P2 = Partition(2)


@dataclass(frozen=True)
class ZonalPolynomial:
    """A symmetric polynomial in y_1..y_m normalized to 1 at y = (1,...,1).

    Stored as coefficients over the generators 1, sum(y_i), sum(y_i^2),
    sum_{i<j}(y_i y_j), together with its normalizer beta; the value is
    (c_const + c_p1*p1 + c_p2*p2 + c_e2*e2) / beta.
    """

    partition: Partition
    m: int
    n: int
    beta: Rational
    coeffs: Tuple[Tuple[str, Rational], ...]

    def _table(self) -> Dict[str, Rational]:
        return dict(self.coeffs)

    def evaluate_power_sums(self, s1: Rational, s2: Rational) -> Rational:
        """Evaluate from the power sums s1 = sum(y_i), s2 = sum(y_i^2)."""
        e2 = (s1 * s1 - s2) / 2
        t = self._table()
        val = t.get("const", Fraction(0)) + t.get("p1", Fraction(0)) * s1 \
            + t.get("p2", Fraction(0)) * s2 + t.get("e2", Fraction(0)) * e2
        return val / self.beta

    def evaluate(self, ys) -> Rational:
        ys = [Fraction(y) for y in ys]
        if len(ys) != self.m:
            raise ValueError(f"expected {self.m} variables")
        s1 = sum(ys, Fraction(0))
        s2 = sum((y * y for y in ys), Fraction(0))
        return self.evaluate_power_sums(s1, s2)


def _check_mn(m: int, n: int):
    if not (1 <= m and 2 * m <= n):
        raise ValueError(f"need 1 <= m <= n/2, got m={m}, n={n}")


def jacobi_p(mu: Partition, m: int, n: int) -> ZonalPolynomial:
    """The degree <= 2 zonal polynomial attached to mu on G(m, n)."""
    _check_mn(m, n)
    if mu.degree > 2:
        raise ValueError("only partitions of degree <= 2 are supported")
    if mu.length == 2 and m < 2:
        raise ValueError("partition (1,1) requires m >= 2")
    F = Fraction
    if mu == P0:
        return ZonalPolynomial(mu, m, n, F(1), (("const", F(1)),))
    if mu == P1:
        beta = F(m) * (1 - F(m, n))
        poly = ZonalPolynomial(mu, m, n, beta,
                               (("p1", F(1)), ("const", -F(m * m, n))))
    elif mu == P11:
        beta = F(m * (m - 1), 2) * (1 - 2 * F(m - 1, n - 2)
                                    + F(m * (m - 1), (n - 1) * (n - 2)))
        coeffs = (("e2", F(1)),
                  ("p1", -F((m - 1) ** 2, n - 2)),
                  ("const", F(m * m * (m - 1) ** 2, 2 * (n - 1) * (n - 2))))
        poly = ZonalPolynomial(mu, m, n, beta, coeffs)
    elif mu == P2:
        beta = F(m * (m + 2), 3) * (1 - 2 * F(m + 2, n + 4)
                                    + F(m * (m + 2), (n + 2) * (n + 4)))
        coeffs = (("p2", F(1)),
                  ("e2", F(2, 3)),
                  ("p1", -F(2 * (m + 2) ** 2, 3 * (n + 4))),
                  ("const", F(m * m * (m + 2) ** 2, 3 * (n + 2) * (n + 4))))
        poly = ZonalPolynomial(mu, m, n, beta, coeffs)
    else:
        raise ValueError(f"unsupported partition {mu}")
    if poly.evaluate([F(1)] * m) != 1:
        raise AssertionError("normalization at y = (1,..,1)")
    return poly


def supported_partitions(m: int, tmax: int = 2):
    """The nonzero partitions of degree <= min(tmax, 2) evaluable at width m."""
    out = [P1]
    if tmax >= 2:
        if m >= 2:
            out.append(P11)
        out.append(P2)
    return tuple(p for p in out if p.degree <= tmax)


def constant_c(m: int, n: int, t: int) -> Rational:
    """The invariant-measure average of sigma^t on pairs in G(m, n), t <= MAX_T.

    sigma is the sum of squared principal cosines; a finite configuration is
    a 2t-design exactly when its pair average of sigma^t equals this value.
    """
    _check_mn(m, n)
    F = Fraction
    if t == 1:
        return F(m * m, n)
    if t == 2:
        return F(m * m, 3 * n) * (F(2 * (m - 1) ** 2, n - 1) + F((m + 2) ** 2, n + 2))
    if t == 3:
        inner = F((m + 2) ** 2 * (2 * m + 3), (n + 2) * (n + 4))
        if m >= 2:  # the (m-1)^2 terms vanish at m = 1 before n-2 can divide
            inner += (F((m - 1) ** 2 * (m + 2) ** 2, (n - 1) * (n + 2))
                      * (F(2 * n, n - 2) + F(n + 3, n + 4))
                      - 8 * F(m * (m - 1) ** 2, (n - 1) * (n - 2)))
        return F(m * m, 3 * n) * inner
    raise ValueError(f"t must be between 1 and {MAX_T}")


def exact_line_moment(n: int, t: int) -> Rational:
    """E[cos^(2t)] between random lines in R^n: prod (1+2i)/(n+2i), i<t."""
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    val = Fraction(1)
    for i in range(t):
        val *= Fraction(1 + 2 * i, n + 2 * i)
    return val


@dataclass(frozen=True)
class MonteCarloMoment:
    """Sampled estimate of the sigma^t pair average; never a verdict input."""

    estimate: float
    stderr: float
    samples: int
    seed: int
    m: int
    n: int
    t: int


def moment_oracle(m: int, n: int, t: int, samples: int = 200_000, seed: int = 0):
    """Independent moment oracle.

    For m == 1 the moment has a closed product form and is returned as an
    exact Fraction for any t.  For m >= 2 a Monte-Carlo estimate over
    uniformly random subspace pairs is returned with its standard error;
    that branch needs numpy, which only the `test` extra installs.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return exact_line_moment(n, t)
    import numpy as np

    rng = np.random.default_rng(seed)
    batch = 20_000
    total = 0
    acc = 0.0
    acc2 = 0.0
    while total < samples:
        b = min(batch, samples - total)
        g = rng.standard_normal((b, n, m))
        q, _ = np.linalg.qr(g)
        # One subspace can be fixed by invariance; sigma is the squared
        # Frobenius norm of the first m rows of the random orthonormal frame.
        sig = (q[:, :m, :] ** 2).sum(axis=(1, 2))
        vals = sig ** t
        acc += float(vals.sum())
        acc2 += float((vals ** 2).sum())
        total += b
    mean = acc / total
    var = max(acc2 / total - mean * mean, 0.0)
    stderr = (var / total) ** 0.5
    return MonteCarloMoment(mean, stderr, total, seed, m, n, t)
