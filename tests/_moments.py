"""Independent references for the sigma^t moments `zonal.constant_c` returns.

`closed_form_c` holds the hand-derived closed forms for t <= 3,
`exact_line_moment` the product form for lines (m = 1, any t), and
`moment_oracle` a seeded Monte-Carlo estimate over uniformly random subspace
pairs, which needs numpy (the `test` extra).  None of them enters a verdict.
"""

from dataclasses import dataclass
from fractions import Fraction


def closed_form_c(m: int, n: int, t: int) -> Fraction:
    """E[sigma^t] on G(m, n), 1 <= m <= n/2, by the closed form for t <= 3."""
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
    raise ValueError("closed forms exist for 1 <= t <= 3 only")


def exact_line_moment(n: int, t: int) -> Fraction:
    """E[cos^(2t)] between random lines in R^n: prod (1+2i)/(n+2i), i<t."""
    if n < 1 or t < 0:
        raise ValueError("need n >= 1 and t >= 0")
    val = Fraction(1)
    for i in range(t):
        val *= Fraction(1 + 2 * i, n + 2 * i)
    return val


@dataclass(frozen=True)
class MonteCarloMoment:
    """Sampled estimate of the sigma^t pair average."""

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
    uniformly random subspace pairs is returned with its standard error.
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
