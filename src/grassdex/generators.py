"""Exact generators of the orthogonal normalizer of the Pauli group on R^n,
n = 2^k, and of its rational index-2 subgroup G_k, kept apart so that
`lattice.barnes_wall` loads no eigenspace layer (`clifford` re-exports them).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .exactalg import RatMatrix


def _signed_map(k: int, image) -> RatMatrix:
    """The n x n matrix (n = 2^k) mapping e_u to s * e_v, (v, s) = image(u)."""
    n = 1 << k
    rows = [[Fraction(0)] * n for _ in range(n)]
    for u in range(n):
        v, s = image(u)
        rows[v][u] = Fraction(s)
    return RatMatrix(rows)


@dataclass(frozen=True)
class CliffordGenerator:
    name: str
    matrix: RatMatrix
    in_gk: bool


@dataclass
class GeneratorSet:
    k: int
    elements: Tuple[CliffordGenerator, ...]

    def __iter__(self):
        return iter(self.elements)


def _tensor_identity(block, r: int) -> RatMatrix:
    """block (x) I_r for a square block of rationals."""
    n = len(block) * r
    return RatMatrix([[block[i // r][j // r] if i % r == j % r else 0
                       for j in range(n)] for i in range(n)])


def clifford_generators(k: int) -> GeneratorSet:
    """Exact generator matrices: diagonal sign maps for quadratic forms,
    affine index permutations, the tensor-factor rotation H and its rational
    two-factor variant H2.

    Every generator but `h_first` and `h2_first` is a signed map of the
    basis, built by `_signed_map` (as are the `PauliOp` matrices); those two
    are one 2x2 or 4x4 block tensored with an identity.  The rotation
    H = (S (x) I) / sqrt 2, S = [[1, 1], [1, -1]], is carried as the integer
    matrix S (x) I = sqrt 2 * H, which maps every subspace to the same image
    as H.  So each generator g satisfies g g^T = c I exactly, with c = 2 for
    `h_first` and c = 1 for the others.  The `in_gk` flag marks the
    generators of the rational subgroup G_k (everything except H).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    n = 1 << k
    maps = [("neg_identity", lambda u: (u, -1))]
    maps += [(f"diag_linear_{i}", lambda u, i=i: (u, (-1) ** ((u >> i) & 1)))
             for i in range(k)]
    maps += [(f"diag_pair_{i}{j}",
              lambda u, i=i, j=j: (u, (-1) ** ((u >> i) & (u >> j) & 1)))
             for i in range(k) for j in range(i + 1, k)]
    maps += [(f"translate_{i}", lambda u, i=i: (u ^ (1 << i), 1))
             for i in range(k)]
    if k >= 2:
        # Swap bits 0 and 1; rotate the bits up by one; add bit 0 to bit 1.
        maps += [("swap_01", lambda u: (u ^ (((u ^ (u >> 1)) & 1) * 3), 1)),
                 ("cycle", lambda u: (((u << 1) | (u >> (k - 1))) & (n - 1), 1)),
                 ("transvect_01", lambda u: (u ^ ((u & 1) << 1), 1))]
    gens = [CliffordGenerator(name, _signed_map(k, image), True)
            for name, image in maps]
    gens.append(CliffordGenerator(
        "h_first", _tensor_identity([[1, 1], [1, -1]], n // 2), False))
    if k >= 2:
        # h tensor h is rational: (1/2) times a sign matrix.
        sgn = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        gens.append(CliffordGenerator(
            "h2_first", _tensor_identity([[Fraction(x, 2) for x in row]
                                          for row in sgn], n // 4), True))
    return GeneratorSet(k, tuple(gens))
