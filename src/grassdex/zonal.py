"""Zonal polynomials of degree <= 2 on real Grassmannians and the averaged
power-sum constants used by the design criteria.

All values are exact Fractions; the module uses no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Dict, Tuple

from .exactalg import Rational

# The largest t a design verdict certifies: the CLI `--t` choices and
# `grassmann.check_design_range`.  `constant_c` itself takes any t >= 0.
MAX_T = 3


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


def _partitions(t: int, length: int, top: int):
    """The partitions of t into at most `length` parts, each at most `top`."""
    if t == 0:
        yield ()
    elif length:
        for first in range(min(t, top), 0, -1):
            for rest in _partitions(t - first, length - 1, first):
                yield (first,) + rest


def _pochhammer(a: Fraction, kappa) -> Fraction:
    """The generalized Pochhammer symbol (a)_kappa at alpha = 2."""
    out = Fraction(1)
    for i, part in enumerate(kappa):
        for j in range(part):
            out *= a - Fraction(i, 2) + j
    return out


def _zonal_at_identity(kappa, m: int) -> Fraction:
    """James's value C_kappa(I_m) of the zonal polynomial normalized so that
    the C_kappa of the partitions of t sum to (trace)^t, kappa of length l:
    4^t t! (m/2)_kappa prod_{i<j} (2k_i - 2k_j - i + j)
    / prod_i (2k_i + l - i)!."""
    t, ell = sum(kappa), len(kappa)
    num = 4 ** t * factorial(t) * prod(
        2 * (kappa[i] - kappa[j]) + j - i
        for i in range(ell) for j in range(i + 1, ell))
    den = prod(factorial(2 * part + ell - 1 - i)
               for i, part in enumerate(kappa))
    return _pochhammer(Fraction(m, 2), kappa) * num / den


def constant_c(m: int, n: int, t: int) -> Rational:
    """The invariant-measure average of sigma^t on pairs in G(m, n), t >= 0.

    sigma is the sum of squared principal cosines; a finite configuration is
    a 2t-design exactly when its pair average of sigma^t equals this value.
    It is James's zonal expansion (Ann. Math. Statist. 35, 1964; Muirhead
    1982, ch. 7): the sum over kappa |- t with at most m parts of
    (m/2)_kappa / (n/2)_kappa * C_kappa(I_m).  No factor of (n/2)_kappa
    vanishes, since every part index is at most m <= n/2.
    """
    _check_mn(m, n)
    if t < 0:
        raise ValueError("t must be >= 0")
    half_m, half_n = Fraction(m, 2), Fraction(n, 2)
    return sum((_pochhammer(half_m, kappa) / _pochhammer(half_n, kappa)
                * _zonal_at_identity(kappa, m)
                for kappa in _partitions(t, m, t)), Fraction(0))
