"""The hyperbolic binary quadratic space (F_2^{2k}, q), its totally isotropic
subspaces, orbital statistics, maximal spreads, and the averaged
intersection-power constants.

Vectors are ints: bits 0..k-1 hold the a-part, bits k..2k-1 the b-part, and
q(a, b) = a.b.  This matches the operator convention (X(a)Y(b))^2 =
(-1)^(a.b) I used by the eigenspace construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .exactalg import Rational, bit_rref, bit_solve, bit_span, bit_subspaces


class QuadSpace:
    """Hyperbolic quadratic space of dimension 2k over F_2."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        if not 1 <= k <= 8:
            raise ValueError("k out of supported range")
        self.k = k

    def q(self, v: int) -> int:
        a = v & ((1 << self.k) - 1)
        b = v >> self.k
        return (a & b).bit_count() & 1

    def bform(self, u: int, v: int) -> int:
        """Polarization B(u, v) = q(u+v) - q(u) - q(v) = a.b' + a'.b."""
        au = u & ((1 << self.k) - 1)
        bu = u >> self.k
        av = v & ((1 << self.k) - 1)
        bv = v >> self.k
        return ((au & bv).bit_count() + (av & bu).bit_count()) & 1

    def isotropic_points(self) -> List[int]:
        return [v for v in range(1, 1 << (2 * self.k)) if self.q(v) == 0]


def num_isotropic_points(k: int) -> int:
    return (2 ** k - 1) * (2 ** (k - 1) + 1)


class IsoSubspace:
    """Totally isotropic subspace as a canonical GF(2) RREF basis."""

    __slots__ = ("k", "w", "words", "pivots", "_mask")

    def __init__(self, k: int, words: Sequence[int]):
        space = QuadSpace(k)
        canon, pivots = bit_rref(words)
        if not canon:
            raise ValueError("isotropic subspace must be nonzero")
        if any(v < 0 or v >> (2 * k) for v in canon):
            raise ValueError(f"words must lie in F_2^{2 * k}")
        self.k = k
        self.w = len(canon)
        self.words = canon
        self.pivots = pivots
        self._mask = None
        # q(u + v) = q(u) + q(v) + B(u, v): q vanishes on the span iff it
        # vanishes on the basis and B on every pair of basis words.
        for i, v in enumerate(canon):
            if space.q(v) or any(space.bform(v, u) for u in canon[:i]):
                raise ValueError("quadratic form does not vanish on the span")

    def span_mask(self) -> int:
        """Bitmask over F_2^{2k} marking the span members (bit 0 = zero)."""
        if self._mask is None:
            m = 0
            for v in bit_span(self.words):
                m |= 1 << v
            self._mask = m
        return self._mask

    def coords(self, v: int) -> Optional[int]:
        """Coefficient bits of v over the RREF basis, or None."""
        return bit_solve(self.words, self.pivots, v)

    def __eq__(self, other):
        if not isinstance(other, IsoSubspace):
            return NotImplemented
        return self.k == other.k and self.words == other.words

    def __hash__(self):
        return hash((self.k, self.words))

    def __repr__(self):
        return f"IsoSubspace(k={self.k}, w={self.w}, words={self.words})"


@dataclass(frozen=True)
class SigmaSet:
    """A set of distinct totally isotropic subspaces of equal dimension.

    The hash is computed once, so caches keyed by a large set look it up in
    constant time.
    """

    k: int
    w: int
    members: Tuple[IsoSubspace, ...]

    def __post_init__(self):
        seen = set()
        for s in self.members:
            if (s.k, s.w) != (self.k, self.w):
                raise ValueError("members must share (k, w)")
            if s in seen:
                raise ValueError("members must be distinct")
            seen.add(s)
        object.__setattr__(self, "_hash", hash((self.k, self.w, self.members)))

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def to_json_dict(self):
        return {"k": self.k, "w": self.w,
                "members": [list(s.words) for s in self.members]}

    @classmethod
    def from_json_dict(cls, data) -> "SigmaSet":
        k = int(data["k"])
        members = tuple(IsoSubspace(k, words) for words in data["members"])
        return cls(k, int(data["w"]), members)


@lru_cache(maxsize=None)
def enumerate_isotropic(k: int, w: int) -> SigmaSet:
    """All totally isotropic w-subspaces, canonical, each generated once.

    A basis row v may follow the rows before it when q(v) = 0 and
    B(v, row) = 0 for each of them; desk scale is k <= 5.
    """
    if not 1 <= w <= k:
        raise ValueError("need 1 <= w <= k")
    if k > 5:
        raise ValueError("desk scale is k <= 5")
    # Tables over the 2^(2k) words: q(v), and v with its halves swapped,
    # so that B(u, v) = parity(u & swapped(v)).
    mask = (1 << k) - 1
    singular = [(v & (v >> k)).bit_count() & 1 for v in range(1 << 2 * k)]
    swapped = [(v >> k) | ((v & mask) << k) for v in range(1 << 2 * k)]

    def isotropic(rows, v):
        if singular[v]:
            return False
        sv = swapped[v]
        for r in rows:
            if (r & sv).bit_count() & 1:
                return False
        return True

    return SigmaSet(k, w, tuple(IsoSubspace(k, words) for words in
                                bit_subspaces(2 * k, w, isotropic)))


def orbital(s: IsoSubspace, t: IsoSubspace) -> Tuple[int, int]:
    """(dim(S meet S'), dim(S meet S'-perp)); symmetric in its arguments."""
    if (s.k, s.w) != (t.k, t.w):
        raise ValueError("subspaces must share (k, w)")
    space = QuadSpace(s.k)
    stacked, _ = bit_rref(s.words + t.words)
    dim_meet = s.w + t.w - len(stacked)
    # dim(S meet S'-perp) = w - rank of the pairing matrix B(s_i, t_j).
    pairing = []
    for ws in s.words:
        row = 0
        for j, wt in enumerate(t.words):
            if space.bform(ws, wt):
                row |= 1 << j
        pairing.append(row)
    rank_pairing = len(bit_rref(pairing)[0])
    return dim_meet, s.w - rank_pairing


# One histogram per Sigma set serves `intersection_moment` at every t; it is
# shared, so it is read-only.
@lru_cache(maxsize=16)
def _intersection_histogram(sigma: SigmaSet) -> Mapping[int, int]:
    """Counts of |S meet S'| over all ordered pairs (sizes include 0)."""
    masks = [s.span_mask() for s in sigma.members]
    hist: Dict[int, int] = {}
    n = len(masks)
    for i in range(n):
        mi = masks[i]
        hist[mi.bit_count()] = hist.get(mi.bit_count(), 0) + 1
        for j in range(i + 1, n):
            c = (mi & masks[j]).bit_count()
            hist[c] = hist.get(c, 0) + 2
    return MappingProxyType(hist)


def intersection_moment(sigma: SigmaSet, t: int) -> Rational:
    """Average of |S meet S'|^t over all ordered pairs of the set."""
    hist = _intersection_histogram(sigma)
    return Fraction(sum(count * size ** t for size, count in hist.items()),
                    sum(hist.values()))


def d_constant(k: int, w: int, t: int) -> Rational:
    """Average of |S meet S'|^t over all ordered pairs of the full X_w.

    Computed by direct double sum over the enumeration (which equals the
    orbital-weighted sum).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    return intersection_moment(enumerate_isotropic(k, w), t)


@dataclass(frozen=True)
class IsoDesignCheck:
    average: Rational
    expected: Rational
    passes: bool


def check_iso_design(sigma: SigmaSet, t: int) -> IsoDesignCheck:
    """Compare the set's |S meet S'|^t average with the full-space constant.

    The average is always >= the constant (checked, also under `python -O`);
    equality is the design condition driving the eigenspace construction.
    For w < k the equality is reported as data without naming a design
    notion.
    """
    if len(sigma) < 1:
        raise ValueError("empty set")
    expected = d_constant(sigma.k, sigma.w, t)
    avg = intersection_moment(sigma, t)
    if avg < expected:
        raise AssertionError("lower bound violated")
    return IsoDesignCheck(avg, expected, avg == expected)


class SpreadNotFound(Exception):
    """No spread exists (exhaustive proof) or the search budget ran out."""

    def __init__(self, message: str, exhausted: bool):
        super().__init__(message)
        self.exhausted = exhausted


def spread_size(k: int, w: int) -> Fraction:
    return Fraction(num_isotropic_points(k), 2 ** w - 1)


# GF(2^w) modulus polynomials for the field-based splitting of generators.
_GF_POLY = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101}


def _gf_mul(a: int, b: int, w: int) -> int:
    poly = _GF_POLY[w]
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> w:
            a ^= poly
    return r


def _linear_spread(k: int, w: int) -> List[List[int]]:
    """Partition of F_2^k - {0} into (2^w - 1)-element scalar orbits.

    Uses the GF(2^w) structure on F_2^k (requires w | k): each class is a
    field line, returned as a w-element GF(2)-basis.
    """
    if k % w:
        raise ValueError("field lines need w | k")
    chunks = k // w
    covered = set()
    lines = []
    for x in range(1, 1 << k):
        if x in covered:
            continue
        orbit = []
        for lam in range(1, 1 << w):
            y = 0
            for c in range(chunks):
                part = (x >> (c * w)) & ((1 << w) - 1)
                y |= _gf_mul(part, lam, w) << (c * w)
            orbit.append(y)
        covered.update(orbit)
        basis = [orbit[(1 << i) - 1] for i in range(w)]  # images of 1, 2, 4, ...
        lines.append(basis)
    return lines


def _cover_backtrack(masks: List[int], full_mask: int, budget: int) -> Optional[List[int]]:
    """Deterministic lexicographic exact cover by pairwise-disjoint masks.

    Masks include bit 0 (the zero vector), which all members share.  Returns
    chosen indices or None; raises SpreadNotFound when the budget runs out.
    """
    nodes = 0

    def rec(covered: int, chosen: List[int]) -> Optional[List[int]]:
        nonlocal nodes
        if covered == full_mask:
            return list(chosen)
        nodes += 1
        if nodes > budget:
            raise SpreadNotFound("search budget exhausted", exhausted=False)
        # lowest uncovered isotropic point
        rem = full_mask & ~covered
        low = (rem & -rem).bit_length() - 1
        for i, m in enumerate(masks):
            if (m >> low) & 1 and (m & covered) == 1:
                chosen.append(i)
                got = rec(covered | m, chosen)
                if got is not None:
                    return got
                chosen.pop()
        return None

    return rec(1, [])


def spread(k: int, w: int, budget: int = 2_000_000) -> SigmaSet:
    """A maximal spread of X_w: pairwise intersections {0}, covering every
    isotropic vector.

    For w = 1 this is X_1 itself.  For even k with w | k the spread is built
    from a maximal spread of the 2^(k-1)+1 maximal isotropics, each split
    into field lines.  Otherwise a deterministic exhaustive backtracking is
    attempted; SpreadNotFound distinguishes a completed (exhaustive) search
    from an exhausted budget.
    """
    if not 1 <= w <= k:
        raise ValueError("need 1 <= w <= k")
    size = spread_size(k, w)
    if size.denominator != 1:
        raise SpreadNotFound(
            f"no spread: required size {size} is not an integer", exhausted=True)
    if w == 1:
        return enumerate_isotropic(k, 1)
    # For even k with w | k, cover by maximal isotropics and split those.
    field = k % 2 == 0 and k % w == 0
    cover_w = k if field else w
    xw = enumerate_isotropic(k, cover_w)
    chosen = _cover_backtrack([s.span_mask() for s in xw.members],
                              _isotropic_mask(k), budget)
    if chosen is None:
        raise SpreadNotFound(
            f"no maximal spread exists in X_{cover_w} for k={k} "
            "(exhaustive search)", exhausted=True)
    members = [xw.members[i] for i in chosen]
    if cover_w != w:
        # bit_span lists a span by coefficient bits: index c is sum c_i g_i.
        lines = _linear_spread(k, w)
        members = [IsoSubspace(k, [span[coeff] for coeff in basis])
                   for span in (bit_span(g.words) for g in members)
                   for basis in lines]
    result = SigmaSet(k, w, tuple(members))
    if len(result) != size:
        raise AssertionError("spread has the wrong size")
    _validate_spread(result)
    return result


def _isotropic_mask(k: int) -> int:
    """Bitmask over F_2^{2k} marking zero and every isotropic vector."""
    full = 1
    for v in QuadSpace(k).isotropic_points():
        full |= 1 << v
    return full


def _validate_spread(sigma: SigmaSet):
    masks = [s.span_mask() for s in sigma.members]
    union = 1
    for i, mi in enumerate(masks):
        for mj in masks[i + 1:]:
            if (mi & mj) != 1:
                raise AssertionError("spread members must meet only in 0")
        union |= mi
    if union != _isotropic_mask(sigma.k):
        raise AssertionError("maximal spread must cover every isotropic vector")


def generator_families(k: int) -> Tuple[List[IsoSubspace], List[IsoSubspace]]:
    """Split the maximal isotropics into their two intersection-parity
    classes: members of a class meet in dimension congruent to k mod 2."""
    xk = enumerate_isotropic(k, k)
    ref = xk.members[0]
    fam0, fam1 = [], []
    for s in xk.members:
        dim_meet, _ = orbital(ref, s)
        (fam0 if (k - dim_meet) % 2 == 0 else fam1).append(s)
    return fam0, fam1
