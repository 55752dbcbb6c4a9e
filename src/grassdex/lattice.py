"""Integral lattices: exact short-vector enumeration, minimal sections,
Rankin data, perfection and eutaxy checks, and the iterated tensor-code
lattice family.

A lattice is held as a rational basis (rows) of rank r inside R^n together
with its Gram matrix.  Full-rank constructions use r = n; rank-deficient
embeddings (E6, E7 inside the 8-dimensional coordinates) are supported, with
section design verdicts taken intrinsically in dimension r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from .exactalg import (RatMatrix, Rational, bit_rref, det, exact_nth_root, hnf,
                       rat, rat_str, saturate_rows, solve_nonneg_combination,
                       verify_combination)
from .grassmann import (Configuration, DesignReport, Subspace, design_report,
                        intdata_from_coords)

# gamma_m^m for the classical Hermite constants, m <= 8 (exact rationals).
_HERMITE_POW = {1: Fraction(1), 2: Fraction(4, 3), 3: Fraction(2),
                4: Fraction(4), 5: Fraction(8), 6: Fraction(64, 3),
                7: Fraction(64), 8: Fraction(256)}


class Lattice:
    """A positive definite lattice with a rational basis."""

    def __init__(self, basis, name: Optional[str] = None):
        mat = basis if isinstance(basis, RatMatrix) else RatMatrix(basis)
        self.basis = mat
        self.rank = mat.rows
        self.n = mat.cols
        if self.rank == 0 or self.rank > self.n:
            raise ValueError("basis must have 1 <= rank <= ambient dimension")
        self.gram = mat @ mat.transpose()
        self.name = name
        self._ldl = _ldl(self.gram)          # also certifies positive definiteness
        self._gram_int, self._gram_scale = _int_gram(self.gram)
        self._min: Optional[Rational] = None

    def det(self) -> Rational:
        return det(self.gram)

    def minimum(self) -> Rational:
        if self._min is None:
            bound = min(self.gram[i, i] for i in range(self.rank))
            vecs = _enumerate(self._ldl, bound, half=True)
            self._min = min(norm for _, norm in vecs)
        return self._min

    def ambient_vector(self, coords: Sequence[int]) -> Tuple[Rational, ...]:
        return tuple(sum(rat(c) * self.basis[i, j] for i, c in enumerate(coords))
                     for j in range(self.n))

    def coord_norm(self, coords: Sequence[int]) -> Rational:
        g = self.gram
        r = range(self.rank)
        return sum(coords[i] * coords[j] * g[i, j] for i in r for j in r)

    def __repr__(self):
        nm = f" {self.name!r}" if self.name else ""
        return f"Lattice(rank={self.rank}, n={self.n}{nm})"


def _ldl(gram: RatMatrix):
    """Fincke-Pohst table: Q(x) = sum_i q[i][i] (x_i + sum_{j>i} q[i][j] x_j)^2.

    Raises on non positive definite input.
    """
    n = gram.rows
    q = [[Fraction(gram[i, j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("Gram matrix is not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for l in range(i + 1, n):
            for m2 in range(l, n):
                q[l][m2] -= q[l][i] * q[i][m2]
    return q


def _int_gram(gram: RatMatrix) -> Tuple[List[List[int]], int]:
    scale = 1
    for i in range(gram.rows):
        for j in range(gram.cols):
            d = gram[i, j].denominator
            scale = scale * d // gcd(scale, d)
    out = [[int(gram[i, j] * scale) for j in range(gram.cols)]
           for i in range(gram.rows)]
    return out, scale


def _coeff_range(d: Fraction, u: Fraction, t: Fraction):
    """Integers x with d (x + u)^2 <= t; exact via integer square roots."""
    if t < 0:
        return range(0)
    s = t / d
    qd, pn = u.denominator, u.numerator
    bnd = (qd * qd * s.numerator) // s.denominator
    r = isqrt(bnd)
    lo = -((r + pn) // qd)
    hi = (r - pn) // qd
    return range(lo, hi + 1)


def _enumerate(q, bound, half=False):
    """All nonzero coordinate vectors with Q(x) <= bound (exact).

    With half=True, one representative per +-pair: the outermost nonzero
    coordinate is positive.
    """
    n = len(q)
    bound = Fraction(bound)
    out = []
    x = [0] * n

    def rec(i: int, rem: Fraction, zero_prefix: bool):
        if i < 0:
            if not zero_prefix:
                out.append((tuple(x), bound - rem))
            return
        u = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                u += q[i][j] * x[j]
        rng = _coeff_range(q[i][i], u, rem)
        for xi in rng:
            if half and zero_prefix and xi < 0:
                continue
            x[i] = xi
            step = q[i][i] * (xi + u) ** 2
            rec(i - 1, rem - step, zero_prefix and xi == 0)
        x[i] = 0

    rec(n - 1, bound, True)
    return out


def short_vectors(lattice: Lattice, bound, half: bool = False) -> List[Tuple[int, ...]]:
    """All v in L - {0} with v.v <= bound, as integer coordinate vectors."""
    bound = rat(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    vecs = _enumerate(lattice._ldl, bound, half=half)
    return [c for c, _ in vecs]


def short_vectors_with_norms(lattice: Lattice, bound, half: bool = False):
    bound = rat(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    return _enumerate(lattice._ldl, bound, half=half)


@dataclass
class SectionSet:
    """Minimal m-sections: the spans (ambient subspaces), their saturated
    coordinate bases and witness Gram matrices of determinant delta."""

    m: int
    delta: Rational
    sections: List[Subspace]
    witness_grams: List[RatMatrix]
    coords: List[Tuple[Tuple[int, ...], ...]]
    search_bound: Rational
    complete: bool
    norm_cap: Optional[Rational]

    def __len__(self):
        return len(self.sections)


def minimal_sections(lattice: Lattice, m: int, search_bound=None) -> SectionSet:
    """Exhaustive minimal m-section search over enumerated short vectors.

    Candidate spans come from m-tuples of enumerated vectors; each span is
    saturated (intersected with the lattice exactly) before its Gram
    determinant is taken.  Completeness: every delta-achieving section is
    spanned by vectors realizing its successive minima, whose norms are at
    most gamma_m^m * delta / min^(m-1); the result is certified complete
    when the search bound covers that cap (always true for the default
    bound m * min at desk scale), and reported relative to the bound
    otherwise.
    """
    r = lattice.rank
    if not (1 <= m and 2 * m <= r):
        raise ValueError("need 1 <= m <= rank/2")
    lam = lattice.minimum()
    bound = rat(search_bound) if search_bound is not None else m * lam
    g = lattice.gram

    if m == 1:
        # delta_1 = min(L) by definition; the minimum-norm enumeration is
        # complete regardless of the requested bound.  Every minimal vector
        # is primitive (c = g c' would give |c'|^2 = lam / g^2 < lam), and
        # half=True keeps one vector per line.
        vecs = short_vectors_with_norms(lattice, lam, half=True)
        coords = [(c,) for c, _ in vecs]
        sections = [Subspace.span(lattice.n, [lattice.ambient_vector(c)])
                    for (c,) in coords]
        grams = [RatMatrix([[lam]])] * len(coords)
        return SectionSet(1, lam, sections, grams, coords, lam, complete=True,
                          norm_cap=lam)

    vecs = sorted(short_vectors_with_norms(lattice, bound, half=True),
                  key=lambda cn: cn[1])
    norms = [nrm for _, nrm in vecs]
    cvecs = [c for c, _ in vecs]
    nv = len(cvecs)
    dots: Dict[Tuple[int, int], Rational] = {}

    def dot(i: int, j: int) -> Rational:
        key = (i, j) if i <= j else (j, i)
        got = dots.get(key)
        if got is None:
            a, b = cvecs[key[0]], cvecs[key[1]]
            got = sum(a[p] * b[q] * g[p, q] for p in range(r) if a[p]
                      for q in range(r) if b[q])
            dots[key] = got
        return got

    hermite = _HERMITE_POW.get(m)
    state = {"delta": None, "cap": None}
    found: Dict[Rational, Dict[Subspace, Tuple]] = {}

    def consider(idxs: Tuple[int, ...]):
        gram = [[dot(a, b) for b in idxs] for a in idxs]
        raw = det(RatMatrix(gram))
        if raw == 0:
            return
        delta = state["delta"]
        if delta is not None and hermite is not None:
            # Saturation divides by a square index; skip when no index can
            # bring raw down to delta while staying above the Hermite floor.
            floor_det = lam ** m / hermite
            max_idx_sq = raw / floor_det
            rr = isqrt(max_idx_sq.numerator // max_idx_sq.denominator)
            if rr * rr * delta < raw:
                return
        rows = [cvecs[i] for i in idxs]
        sat = saturate_rows(rows, r)
        sg = RatMatrix([[sum(a[p] * b[q] * g[p, q] for p in range(r) if a[p]
                             for q in range(r) if b[q]) for b in sat] for a in sat])
        d2 = det(sg)
        sub = Subspace.span(lattice.n, [lattice.ambient_vector(c) for c in sat])
        found.setdefault(d2, {})[sub] = (sg, tuple(tuple(c) for c in sat))
        if state["delta"] is None or d2 < state["delta"]:
            state["delta"] = d2
            state["cap"] = (hermite * d2 / lam ** (m - 1)) if hermite else None

    def choose(start: int, chosen: List[int]):
        if len(chosen) == m:
            consider(tuple(chosen))
            return
        for i in range(start, nv):
            cap = state["cap"]
            if cap is not None and norms[i] > cap:
                break
            chosen.append(i)
            choose(i + 1, chosen)
            chosen.pop()

    choose(0, [])
    delta = min(found)
    best = found[delta]
    sections = sorted(best, key=lambda s: s.basis.to_json())
    grams = [best[s][0] for s in sections]
    coords = [best[s][1] for s in sections]
    cap = _HERMITE_POW[m] * delta / lam ** (m - 1) if m in _HERMITE_POW else None
    complete = cap is not None and bound >= cap
    return SectionSet(m, delta, sections, grams, coords, bound, complete, cap)


@dataclass
class RankinValue:
    """delta_m / (det L)^{m/n} with the exact pair kept symbolic."""

    delta_m: Rational
    det_l: Rational
    m: int
    n: int
    gamma_exact: Optional[Rational]
    gamma_decimal: float

    def to_json_dict(self):
        return {"delta_m": rat_str(self.delta_m), "det": rat_str(self.det_l),
                "m": self.m, "n": self.n,
                "gamma": rat_str(self.gamma_exact) if self.gamma_exact is not None
                else None,
                "gamma_decimal": self.gamma_decimal}


def rankin(lattice: Lattice, m: int, sections: Optional[SectionSet] = None) -> RankinValue:
    if sections is None:
        sections = minimal_sections(lattice, m)
    delta = sections.delta
    dl = lattice.det()
    root = exact_nth_root(dl ** m, lattice.rank)
    gamma_exact = delta / root if root is not None else None
    gamma_dec = float(delta) / float(dl) ** (m / lattice.rank)
    return RankinValue(delta, dl, m, lattice.rank, gamma_exact, gamma_dec)


def _metric_projector_int(lattice: Lattice, coords) -> List[List[int]]:
    """Integer multiple of the coordinate-space projector onto a section.

    P = G Y^T (Y G Y^T)^-1 Y is self-adjoint for the Gram inner product; any
    positive scalar multiple spans the same line in End, which is all the
    perfection rank computation needs.
    """
    r = lattice.rank
    m = len(coords)
    gy, _, adj, _ = intdata_from_coords(coords, lattice._gram_int)
    # G Y^T adj(Gsec) Y, integer.
    left = [[sum(gy[a][i] * adj[a][b] for a in range(m)) for b in range(m)]
            for i in range(r)]
    return [[sum(left[i][b] * coords[b][j] for b in range(m)) for j in range(r)]
            for i in range(r)]


def check_perfection(lattice: Lattice, m: int,
                     sections: Optional[SectionSet] = None) -> Tuple[int, bool]:
    """Rank of the span of the section projectors inside the symmetric
    endomorphisms; perfect when it reaches r(r+1)/2."""
    if sections is None:
        sections = minimal_sections(lattice, m)
    r = lattice.rank
    target = r * (r + 1) // 2
    pivots: Dict[int, List[Fraction]] = {}
    rank_span = 0
    for coords in sections.coords:
        mat = _metric_projector_int(lattice, coords)
        row = [Fraction(mat[i][j]) for i in range(r) for j in range(r)]
        for p in sorted(pivots):
            if row[p]:
                f = row[p]
                prow = pivots[p]
                row = [a - f * b for a, b in zip(row, prow)]
        lead = next((i for i, v in enumerate(row) if v), None)
        if lead is not None:
            inv = row[lead]
            pivots[lead] = [v / inv for v in row]
            rank_span += 1
            if rank_span == target:
                break
    return rank_span, rank_span == target


@dataclass
class EutaxyResult:
    is_eutactic: bool
    weights: Optional[List[Rational]]
    uniform: bool


def check_eutaxy(lattice: Lattice, m: int,
                 sections: Optional[SectionSet] = None) -> EutaxyResult:
    """Strictly positive projector combination reaching the identity.

    Uniform weights are tried first (an orbit shortcut: any section set that
    averages like a 2-design has a uniform eutaxy witness); otherwise the
    exact feasibility solver decides strict eutaxy.
    """
    if sections is None:
        sections = minimal_sections(lattice, m)
    r = lattice.rank
    nsec = len(sections.sections)
    projs = [RatMatrix([[Fraction(x) for x in row]
                        for row in _metric_projector_int(lattice, coords)])
             for coords in sections.coords]
    # Normalize each to the true projector (trace m).
    projs = [p.scale(Fraction(m) / p.trace()) for p in projs]
    total = RatMatrix.zeros(r, r)
    for p in projs:
        total = total + p
    ident = RatMatrix.identity(r)
    if total == ident.scale(Fraction(m * nsec, r)):
        w = Fraction(r, m * nsec)
        return EutaxyResult(True, [w] * nsec, uniform=True)
    weights = solve_nonneg_combination(projs, ident, strict=True)
    if weights is None:
        return EutaxyResult(False, None, uniform=False)
    assert verify_combination(projs, ident, weights)
    return EutaxyResult(True, weights, uniform=False)


def section_design_report(lattice: Lattice, sections: SectionSet, tmax: int = 2,
                          workers: int = 1) -> DesignReport:
    """Design verdicts for the minimal sections, taken intrinsically.

    Subspace pair data is computed in lattice coordinates with the Gram
    metric, so rank-deficient embeddings are judged in dimension rank.
    """
    gi = lattice._gram_int
    data = [intdata_from_coords(c, gi) for c in sections.coords]
    return design_report(data, sections.m, lattice.rank, tmax, workers)


# -- constructions -----------------------------------------------------------


def _linear_subspaces(k: int) -> List[Tuple[int, ...]]:
    """Canonical bases of all linear subspaces of F_2^k (including {0})."""
    out = [()]
    current = [()]
    for _ in range(k):
        nxt = set()
        for words in current:
            span = {0}
            for w in words:
                span |= {s ^ w for s in span}
            for v in range(1, 1 << k):
                if v in span:
                    continue
                canon, _p = bit_rref(list(words) + [v], k)
                nxt.add(tuple(canon))
        current = sorted(nxt)
        out.extend(current)
    return out


def barnes_wall(k: int, normalized: bool = False) -> Lattice:
    """The Z-span of the scaled characteristic vectors of all affine
    subspaces of F_2^k, reduced to a basis by integer row reduction.

    The raw span has minimum 2^k; `normalized=True` rescales so the minimum
    becomes 2^floor(k/2) and raises when that similarity is irrational
    (coordinate factor sqrt 2, e.g. k = 2).
    """
    if not 2 <= k <= 4:
        raise ValueError("desk scale is 2 <= k <= 4")
    n = 1 << k
    gens: List[List[int]] = []
    for words in _linear_subspaces(k):
        d = len(words)
        scale = 1 << ((k - d + 1) // 2)
        span = {0}
        for w in words:
            span |= {s ^ w for s in span}
        # one generator per coset of the linear part
        seen = set()
        for u in range(n):
            cos = min(u ^ s for s in span)
            if cos in seen:
                continue
            seen.add(cos)
            row = [0] * n
            for s in span:
                row[cos ^ s] = scale
            gens.append(row)
    basis_rows = hnf(gens)
    assert len(basis_rows) == n, "generators must span a full-rank lattice"
    # Prefer the triangular family (supports nested by coordinate subsets)
    # when it spans the same lattice; it is better conditioned for
    # enumeration than the HNF rows.
    tri = []
    for mask in range(n):
        d = bin(mask).count("1")
        scale = 1 << ((k - d + 1) // 2)
        row = [0] * n
        for u in range(n):
            if u & ~mask == 0:
                row[u] = scale
        tri.append(row)
    tri_sorted = sorted(tri, key=lambda row: sum(x * x for x in row), reverse=True)
    if hnf(tri) == basis_rows:
        rows = tri_sorted
    else:
        rows = [list(r) for r in basis_rows]
    lat = Lattice(rows, name=f"BW{n}(raw)")
    if not normalized:
        return lat
    raw_min = lat.minimum()
    target = Fraction(2) ** (k // 2)
    ratio = raw_min / target
    side = exact_nth_root(ratio, 2)
    if side is None:
        raise ValueError(f"normalization of BW{n} needs the irrational "
                         f"coordinate factor sqrt({ratio})")
    scaled = RatMatrix([[x / side for x in row] for row in rows])
    return Lattice(scaled, name=f"BW{n}")


def catalog(name: str) -> Lattice:
    """Built-in bases: Zn, D4, E6, E7, E8, BW16."""
    key = name.strip().upper()
    if key.startswith("Z") and key[1:].isdigit():
        n = int(key[1:])
        if not 1 <= n <= 64:
            raise ValueError("Zn supported for 1 <= n <= 64")
        return Lattice(RatMatrix.identity(n), name=f"Z{n}")
    if key == "D4":
        return Lattice([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1],
                        [0, 0, 1, 1]], name="D4")
    if key in ("E6", "E7", "E8"):
        h = Fraction(1, 2)
        roots = [
            [h, -h, -h, -h, -h, -h, -h, h],
            [1, 1, 0, 0, 0, 0, 0, 0],
            [-1, 1, 0, 0, 0, 0, 0, 0],
            [0, -1, 1, 0, 0, 0, 0, 0],
            [0, 0, -1, 1, 0, 0, 0, 0],
            [0, 0, 0, -1, 1, 0, 0, 0],
            [0, 0, 0, 0, -1, 1, 0, 0],
            [0, 0, 0, 0, 0, -1, 1, 0],
        ]
        take = {"E6": 6, "E7": 7, "E8": 8}[key]
        return Lattice(roots[:take], name=key)
    if key == "BW16":
        return barnes_wall(4, normalized=True)
    raise ValueError(f"unknown catalog lattice {name!r}")


def minimal_line_configuration(lattice: Lattice) -> Configuration:
    """The lines supporting the minimal vectors, as ambient subspaces."""
    secs = minimal_sections(lattice, 1) if lattice.rank >= 2 else None
    if secs is None:
        raise ValueError("rank must be >= 2")
    return Configuration(lattice.n, secs.sections)


def theta_shells(lattice: Lattice, max_norm) -> Dict[Rational, int]:
    """Vector counts by norm up to max_norm (both signs counted)."""
    shells: Dict[Rational, int] = {}
    for _, nrm in short_vectors_with_norms(lattice, max_norm):
        shells[nrm] = shells.get(nrm, 0) + 1
    return shells


def similar_invariants(lattice: Lattice, shells: int = 3):
    """Scale-invariant fingerprint: rank, det/min^rank, and the vector
    counts on the first few shells, with norms measured in units of min."""
    lam = lattice.minimum()
    counts = theta_shells(lattice, lam * shells)
    return {
        "rank": lattice.rank,
        "det_over_min_pow": lattice.det() / lam ** lattice.rank,
        "shells": tuple(sorted((nrm / lam, c) for nrm, c in counts.items())),
    }


def similar_to(a: Lattice, b: Lattice, shells: int = 3) -> bool:
    """Necessary-condition similarity certificate via exact invariants."""
    return similar_invariants(a, shells) == similar_invariants(b, shells)
