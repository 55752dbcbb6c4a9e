"""Integral lattices: exact short-vector enumeration, minimal sections,
Rankin data, perfection and eutaxy checks, and the iterated tensor-code
lattice family.

A lattice is held as a rational basis (rows) of rank r inside R^n, its Gram
matrix, and their integer multiples; Fincke-Pohst enumeration runs in
integers on a fraction-free (Bareiss) table of the Gram.  Full-rank
constructions use r = n; rank-deficient embeddings (E6, E7 inside R^8) are
supported.  A section is its integer coordinate rows, judged intrinsically
in dimension r.  Design verdicts sum the pair distribution over certified
automorphism orbits (root reflections, or generators a construction
attaches), all taken as integer coordinate matrices A with A G A^T = G:
their union-find orbits on the minimal vectors are the orbits of the
minimal lines, and for m >= 2 the section search runs over the orbits of
its candidate lines and its closure certifies the section orbits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import exp, gcd, isqrt, lcm, log, prod
from operator import itemgetter, mul, neg, sub
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .exactalg import (RatMatrix, Rational, adjugate, bit_span, bit_subspaces,
                       exact_nth_root, hnf, int_det, rat, rat_str,
                       saturate_rows, solve_nonneg_combination,
                       verify_combination)
from .grassmann import (Configuration, DesignReport, IndexMap, IntAction,
                        PairStats, Subspace, UnionFind, adj_product,
                        check_design_range, design_report, intdata,
                        line_key, pair_stats)

# Most vectors one enumeration keeps; desk-scale enumerations keep a few
# thousand at most (BW16's minimal lines are 2,160).
ENUM_CAP = 1 << 17

# gamma_m^m for the classical Hermite constants, m <= 8 (exact rationals).
_HERMITE_POW = {1: Fraction(1), 2: Fraction(4, 3), 3: Fraction(2),
                4: Fraction(4), 5: Fraction(8), 6: Fraction(64, 3),
                7: Fraction(64), 8: Fraction(256)}


class Lattice:
    """A positive definite lattice with a rational basis, also held as the
    integers `_basis_int / _basis_den` and `_gram_int / _gram_scale`, from
    which norms, ambient spans and determinants are taken.  `minimum()`
    keeps the minimal vectors it enumerates, for `short_vectors_with_norms`
    and the root search of `_candidates`; a lattice built by
    rescaling another one's basis may be handed them instead (see
    `barnes_wall`).  `_automorphisms` holds candidate automorphisms in
    ambient coordinates that a construction attaches, none by default."""

    def __init__(self, basis, name: Optional[str] = None):
        mat = basis if isinstance(basis, RatMatrix) else RatMatrix(basis)
        self.basis = mat
        self.rank = mat.rows
        self.n = mat.cols
        if self.rank == 0 or self.rank > self.n:
            raise ValueError("basis must have 1 <= rank <= ambient dimension")
        self.name = name
        self._basis_int, self._basis_den = _int_scaled(mat)
        # G = B_int B_int^T / den^2, kept as its lowest integer multiple.
        raw = [[sum(map(mul, a, b)) for b in self._basis_int]
               for a in self._basis_int]
        den2 = self._basis_den ** 2
        g = gcd(den2, *(x for row in raw for x in row))
        self._gram_int = [[x // g for x in row] for row in raw]
        self._gram_scale = den2 // g
        self._table = _ldl(self._gram_int)   # also certifies positive definiteness
        self._min: Optional[Rational] = None
        self._min_vectors: List[Tuple[int, ...]] = []
        self._automorphisms: List[RatMatrix] = []

    @cached_property
    def gram(self) -> RatMatrix:
        """The Gram matrix B B^T, as Fractions."""
        s = self._gram_scale
        return RatMatrix([[Fraction(x, s) for x in row] for row in self._gram_int])

    def det(self) -> Rational:
        # det(s G) is the last leading minor of the table.
        return Fraction(self._table[1][-1], self._gram_scale ** self.rank)

    def minimum(self) -> Rational:
        if self._min is None:
            diag = min(row[i] for i, row in enumerate(self._gram_int))
            vecs = _enumerate(self._table, diag, half=True)
            q = min(nq for _, nq in vecs)
            self._min_vectors = [c for c, nq in vecs if nq == q]
            self._min = Fraction(q, self._gram_scale)
        return self._min

    def __repr__(self):
        nm = f" {self.name!r}" if self.name else ""
        return f"Lattice(rank={self.rank}, n={self.n}{nm})"


def _int_scaled(mat: RatMatrix) -> Tuple[List[List[int]], int]:
    """(integer rows, s) with mat = rows / s, s the lcm of the denominators."""
    scale = lcm(*(x.denominator for row in mat.entries for x in row))
    return [[int(x * scale) for x in row] for row in mat.entries], scale


def _ldl(gram_int):
    """Fraction-free Fincke-Pohst table of the integer Gram s*G, from its
    integer rows (left unchanged).

    Bareiss elimination without pivots gives rows M with M[i][i] = D_i, the
    leading minors (D_{-1} = 1), and with U_i = sum_{j>i} M[i][j] x_j

        x^T (s G) x = sum_i (D_i x_i + U_i)^2 / (D_i D_{i-1}).

    Returns (M, D, weights, L) with L = lcm(D_i D_{i-1}) and weights[i] =
    L / (D_i D_{i-1}), so L times every term is an integer.  Raises
    ValueError unless every D_i > 0, which certifies positive definiteness
    (Sylvester).
    """
    a = [list(row) for row in gram_int]
    n = len(a)
    prev = 1
    for k in range(n):
        p, rk = a[k][k], a[k]
        if p <= 0:
            raise ValueError("Gram matrix is not positive definite")
        for ri in a[k + 1:]:
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (p * ri[j] - f * rk[j]) // prev
        prev = p
    minors = [a[i][i] for i in range(n)]
    dens = [d * e for d, e in zip(minors, [1] + minors)]
    big = lcm(*dens)
    return a, minors, [big // d for d in dens], big


def _enumerate(table, limit: int, half: bool = False):
    """All nonzero integer x with x^T (s G) x <= limit, with that form's value.

    Fincke-Pohst in exact integers: level i fixes x_i from low to high for
    i = n-1 down to 0.  With half=True, one representative per +-pair: the
    outermost nonzero coordinate is positive.  Raises ValueError as soon as
    more than ENUM_CAP vectors would be kept, so a skewed basis or a wide
    bound ends in an error instead of unbounded time and memory.
    """
    rows, d, w, big = table
    n = len(d)
    top = big * limit
    out = []
    x = [0] * n

    def rec(i: int, rem: int, zero_prefix: bool):
        u = sum(map(mul, rows[i][i + 1:], x[i + 1:]))
        di, wi = d[i], w[i]
        r = isqrt(rem // wi)
        lo = -((r + u) // di)
        if half and zero_prefix and lo < 0:
            lo = 0
        for xi in range(lo, (r - u) // di + 1):
            t = di * xi + u
            left = rem - wi * t * t
            x[i] = xi
            if i:
                rec(i - 1, left, zero_prefix and not xi)
            elif xi or not zero_prefix:
                if len(out) == ENUM_CAP:
                    raise ValueError(f"short-vector enumeration exceeds its "
                                     f"cap of {ENUM_CAP} vectors")
                out.append((tuple(x), (top - left) // big))
        x[i] = 0

    rec(n - 1, top, True)
    return out


def _limit(lattice: Lattice, bound) -> int:
    """floor(s * bound): the integer form's cap for norms up to bound."""
    bound = rat(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    return bound.numerator * lattice._gram_scale // bound.denominator


def short_vectors(lattice: Lattice, bound, half: bool = False) -> List[Tuple[int, ...]]:
    """All v in L - {0} with v.v <= bound, as integer coordinate vectors."""
    return [c for c, _ in _enumerate(lattice._table, _limit(lattice, bound), half)]


def short_vectors_with_norms(lattice: Lattice, bound, half: bool = False):
    """`short_vectors` with each norm.  A half=True query below the next
    norm after the minimum returns the vectors `Lattice.minimum` kept: the
    integer form's values are multiples of the gcd of its diagonal and
    doubled off-diagonal entries, so none lies between min and min + gcd."""
    limit, s = _limit(lattice, bound), lattice._gram_scale
    if half and lattice._min is not None:
        gi = lattice._gram_int
        q = int(lattice._min * s)
        if q <= limit < q + gcd(*(gi[i][i] for i in range(lattice.rank)),
                                *(2 * x for row in gi for x in row)):
            return [(c, lattice._min) for c in lattice._min_vectors]
    return [(c, Fraction(q, s)) for c, q in _enumerate(lattice._table, limit, half)]


@dataclass
class SectionSet:
    """Minimal m-sections, each a basis of integer coordinate rows (`coords`)
    whose Gram determinant is delta.  `gram_int` is the lattice's integer
    Gram multiple, from which `records` are built.  `gvecs` maps each
    candidate vector of an m >= 2 search, of either sign (images and
    saturated rows may be negated), to its row G c^T for `records`.

    The search also reports how it went: `generators` candidate
    automorphisms (`_candidates`), of which the first `examined` were
    drawn and applied, left `line_orbits` orbits on the `lines` candidate
    vectors, and `tuples` m-tuples were considered (none for lines).  When
    the examined candidates passed the exact gate, `orbits` holds the
    certified orbits of the examined group on the sections, {index of an
    orbit's first section: its size}, the line orbits for lines and the
    closure's for m >= 2, and `stats` sums one row per orbit; `seeds` then
    names, for each section, the section of its orbit whose Gram it shares
    (the union-find root for lines, the first section of the closure's
    orbit for m >= 2).  `orbits` is None for a lattice with no candidate,
    or a refused one.  The design verdicts and the uniform eutaxy witness
    both read the one pair distribution `stats`."""

    m: int
    delta: Rational
    coords: List[Tuple[Tuple[int, ...], ...]]
    search_bound: Rational
    complete: bool
    norm_cap: Optional[Rational]
    gram_int: List[List[int]]
    orbits: Optional[Dict[int, int]] = None
    generators: int = 0
    examined: int = 0
    lines: int = 0
    line_orbits: int = 0
    tuples: int = 0
    gvecs: Dict[Tuple[int, ...], Tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False)
    seeds: Optional[List[int]] = field(default=None, repr=False, compare=False)

    def __len__(self):
        return len(self.coords)

    def metric_rows(self, coords) -> tuple:
        """`grassmann.metric_rows(coords, gram_int)`, (G Y^T rows, Y), with
        each row G y^T read from `gvecs` when y is a candidate vector (every
        section row of the catalog lattices is one, up to sign) and formed
        otherwise."""
        gi, known = self.gram_int, self.gvecs
        return tuple(known.get(y) or tuple(sum(map(mul, row, y)) for row in gi)
                     for y in coords), coords

    @cached_property
    def stats(self) -> PairStats:
        """The pair distribution of the sections, computed on first read,
        once, with one row per certified orbit: every automorphism permutes
        the minimal m-sections (Goethals and Seidel 1981).  Lines and planes
        are read as `records`, whose shared adjugates their orbit-row kernel
        reads; m >= 3 as their rows alone (`metric_rows`), since the cross
        engine forms no adjugate."""
        points = ([self.metric_rows(c) for c in self.coords] if self.m >= 3
                  else self.records)
        return pair_stats(points, orbits=self.orbits)

    @cached_property
    def records(self) -> List[tuple]:
        """One pair-engine record per section, equal to
        `intdata_from_coords(coords, gram_int)`: (G Y^T rows, coordinate
        rows Y, adj(Y G Y^T), det(Y G Y^T)) with G the integer Gram, so det
        is delta * s^m.  Built once, on first read.  The sections of a
        certified orbit share adj and det, taken by `intdata` on their seed:
        an image Y A under an integer A with A G A^T = G has the Gram
        Y G Y^T exactly.  With `orbits` None every section is its own seed.
        The rows G Y^T (`_MetricRows`) are formed on first read, once, so an
        orbit row forms them for its row points alone."""
        coords = self.coords
        seeds = (self.seeds if self.orbits is not None and self.seeds
                 else range(len(coords)))
        rows = [_MetricRows(self, y) for y in coords]
        shared = {s: intdata(rows[s], coords[s])[2:] for s in dict.fromkeys(seeds)}
        return [(r, y, *shared[s]) for r, y, s in zip(rows, coords, seeds)]


class _MetricRows:
    """The rows G Y^T of one section as a sequence, formed on first read,
    once, by `SectionSet.metric_rows`; equal to the tuple of those rows."""

    __slots__ = ("_sections", "_coords", "_rows")

    def __init__(self, sections: SectionSet, coords):
        self._sections, self._coords, self._rows = sections, coords, None

    def _formed(self) -> tuple:
        if self._rows is None:
            self._rows = self._sections.metric_rows(self._coords)[0]
        return self._rows

    def __len__(self):
        return len(self._coords)

    def __getitem__(self, i):
        return self._formed()[i]

    def __iter__(self):
        return iter(self._formed())

    def __eq__(self, other):
        return self._formed() == other


def _ambient_rows(lattice: Lattice, coords) -> List[List[int]]:
    """The integer rows c . _basis_int of coordinate rows c: the ambient
    vectors times _basis_den, so they span the same subspace."""
    basis_cols = list(zip(*lattice._basis_int))
    return [[sum(map(mul, c, col)) for col in basis_cols] for c in coords]


def section_subspaces(lattice: Lattice, sections: SectionSet) -> List[Subspace]:
    """The ambient spans of the sections, in the order of `coords`."""
    m = sections.m
    rows = _ambient_rows(lattice, [c for coords in sections.coords
                                   for c in coords])
    return [Subspace.span(lattice.n, rows[i:i + m])
            for i in range(0, len(rows), m)]


def minimal_sections(lattice: Lattice, m: int, search_bound=None) -> SectionSet:
    """Exhaustive minimal m-section search over enumerated short vectors.

    Candidate spans come from m-tuples of enumerated vectors; each span is
    saturated (intersected with the lattice exactly) before its Gram
    determinant is taken, unless Hermite's bound caps its index below 2,
    when the candidate rows already are a basis of the saturation.  The
    coordinates kept are some basis of each section, not a fixed one, in
    the order of their line keys (`_section_lines`): enumeration order for
    lines.  Completeness: every delta-achieving section is spanned by
    vectors realizing its successive minima, whose norms are at most
    gamma_m^m * delta / min^(m-1); the result is certified complete when the
    search bound covers that cap (always true for the default bound m * min
    at desk scale), and reported relative to the bound otherwise.  For
    2 <= m <= 8 the enumeration stops at the smaller of the bound and
    gamma_m^m * (product of the m smallest basis norms) / min^(m-1), which
    bounds that cap in advance (Hadamard), so a huge bound costs no more
    than the cap; search_bound and completeness still refer to the
    requested bound.  Lines are complete, with search bound min.

    The search runs over orbits.  The candidate automorphisms
    (`_candidates`) are drawn in order, each passing the exact gate when
    drawn, and applied to the lines of the candidate vectors, merging
    orbits by union-find, until the orbits are as few as the distinct norms
    or no candidate is left; an examined candidate that fails the gate or
    maps a candidate vector outside the set refuses them all
    (`_line_orbits`).  For m = 1 those lines are the sections, so
    their orbits, certified by A G A^T = G alone, need no closure.  For
    m >= 2 only the tuples through each orbit's first vector are
    considered, the other vectors drawn from that orbit and the orbits
    after it.  Each section S is then reached up to the examined group H:
    the vectors of a spanning tuple all pass the pruning, and an h in H
    moves the one in the earliest orbit to that orbit's first vector.  The
    sections found are closed under the examined matrices (`_closure`),
    keyed by their line keys.  The closure is the exact gate: an image of
    a minimal section under an integer A with A G A^T = G is a minimal
    section, and every minimal section is the image of a section found,
    so the closure is exactly the minimal sections, its trees are the
    H-orbits, and it certifies the orbit rows of `section_design_report`.
    With no candidate, or a refused one, every vector is its own orbit,
    the closure has no matrix to apply, and this is the exhaustive search,
    with `orbits` None.  The rows G c^T an m >= 2 search formed go to
    `SectionSet.gvecs`.
    """
    r = lattice.rank
    if not (1 <= m and 2 * m <= r):
        raise ValueError("need 1 <= m <= rank/2")
    lam = lattice.minimum()
    bound = rat(search_bound) if search_bound is not None else m * lam
    if bound <= 0:
        raise ValueError("search_bound must be positive")
    gi = lattice._gram_int
    s = lattice._gram_scale
    hermite = _HERMITE_POW.get(m)
    if m == 1:
        # delta_1 = min(L) by definition; the minimum-norm enumeration is
        # complete regardless of the requested bound.  Every minimal vector
        # is primitive (c = g c' would give |c'|^2 = lam / g^2 < lam), and
        # half=True keeps one vector per line.
        reach = lam
    elif hermite is not None:
        # Hadamard: delta_m is at most the product of the m smallest basis
        # norms, so no minimal section needs a vector past this cap (never
        # below those m norms).
        diag = sorted(gi[i][i] for i in range(r))[:m]
        reach = min(bound, hermite * Fraction(prod(diag), s ** m) / lam ** (m - 1))
    else:
        reach = bound
    # Integer norms s * v.v, in increasing order (a stable sort).
    vecs = sorted(((nrm.numerator * s // nrm.denominator, c) for c, nrm
                   in short_vectors_with_norms(lattice, reach, half=True)),
                  key=itemgetter(0))
    norms = [q for q, _ in vecs]
    cvecs = [c for _, c in vecs]
    nv = len(cvecs)
    lam_q = int(lam * s)
    # Orbits of the candidate lines under the candidates, in order.  A
    # root is its orbit's least index, so orbits are processed in the
    # order of their first vectors.  Lines need no closure tables.
    count, lines, examined, moves = _line_orbits(
        lattice, cvecs, len(set(norms)), tables=m >= 2)
    if m == 1:
        # The lines are the sections: their orbits are the section orbits.
        roots = [lines.root(i) for i in range(nv)]
        return SectionSet(1, lam, [(c,) for c in cvecs], lam, True, lam, gi,
                          orbits=None if moves is None else dict(Counter(roots)),
                          generators=count, examined=examined, lines=nv,
                          line_orbits=lines.left, seeds=roots)
    firsts = [i for i in range(nv) if lines.root(i) == i]
    # G c^T for each candidate c (G symmetric).
    gvecs = list(map(tuple, _rows_times(cvecs, gi)))

    # Determinants below are of integer Grams, s^m times the true ones; the
    # norm cap is floor(s * cap), compared with the integer norms.
    state = {"delta": None, "cap": None, "tuples": 0}
    # HNF of the saturated coordinates -> coordinates, for the sections at
    # the smallest determinant so far; the HNF names the section, and the
    # last candidate spanning it is kept.
    best: Dict[Tuple, list] = {}

    def consider(idxs: Tuple[int, ...]):
        state["tuples"] += 1
        raw = int_det([[sum(map(mul, gvecs[a], cvecs[b])) for b in idxs] for a in idxs])
        if raw == 0:
            return
        delta = state["delta"]
        rr = None
        if hermite is not None:
            # Saturation divides raw by the square of its index, and the
            # saturated Gram stays at or above the Hermite floor
            # lam^m / gamma_m^m, so the index is at most rr.  Skip when no
            # index can bring raw down to delta.
            rr = isqrt(raw * hermite.numerator // (lam_q ** m * hermite.denominator))
            if delta is not None and rr * rr * delta < raw:
                return
        if rr is not None and rr < 2:
            # Index 1: the candidate rows already span the saturation.
            sat, d2 = [cvecs[i] for i in idxs], raw
        else:
            sat = saturate_rows([cvecs[i] for i in idxs], r)
            d2 = int_det([[sum(map(mul, ga, b)) for b in sat]
                          for ga in _rows_times(sat, gi)])
        if delta is not None and d2 > delta:
            return
        if delta is None or d2 < delta:
            best.clear()
            state["delta"] = d2
            if hermite:
                cap = hermite * d2 / lam_q ** (m - 1)
                state["cap"] = cap.numerator // cap.denominator
        best[tuple(map(tuple, hnf(sat)))] = sat

    def choose(pool: List[int], start: int, chosen: List[int]):
        if len(chosen) == m:
            consider(tuple(chosen))
            return
        for pos in range(start, len(pool)):
            i = pool[pos]
            cap = state["cap"]
            if cap is not None and norms[i] > cap:
                break
            chosen.append(i)
            choose(pool, pos + 1, chosen)
            chosen.pop()

    # No vector of an orbit precedes its first, so the pool of the orbit
    # of f is the vectors after f whose orbit's first is not before f.
    for f in firsts:
        cap = state["cap"]
        if cap is not None and norms[f] > cap:
            break
        choose([j for j in range(f + 1, nv) if lines.root(j) >= f], 0, [f])
    if not best:
        raise ValueError(f"no {m}-section: the vectors of norm at most "
                         f"{rat_str(bound)} span fewer than {m} dimensions; "
                         "pass a larger search_bound")
    index = {c: i for i, c in enumerate(cvecs)}
    coords, orbits, seeds = _closure(
        list(best.values()), moves or [],
        lambda y: _section_lines(y, gi, index, norms[-1]))
    delta = Fraction(state["delta"], s ** m)
    cap = hermite * delta / lam ** (m - 1) if hermite else None
    complete = cap is not None and bound >= cap
    return SectionSet(m, delta, coords, bound, complete, cap, gi,
                      orbits=None if moves is None else orbits, generators=count,
                      examined=examined, lines=nv,
                      line_orbits=len(firsts), tuples=state["tuples"],
                      gvecs=_signed(zip(cvecs, gvecs)), seeds=seeds)


def _section_lines(sat, gram_int, index, top) -> Tuple[int, ...]:
    """The line key of the saturated section `sat`: the sorted `index`es
    of its vectors up to integer norm `top`, from its own m x m Gram, that
    are candidates.  With `top` the largest candidate norm these are all
    the candidate lines in its span, as the section is L meet its span."""
    gram = [[sum(map(mul, ga, b)) for b in sat]
            for ga in _rows_times(sat, gram_int)]
    found = (index.get(_half_key(_rows_times([x], sat)[0]))
             for x, _ in _enumerate(_ldl(gram), top, half=True))
    return tuple(sorted(i for i in found if i is not None))


def _signed(pairs) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """{c: v} for pairs (c, v) of integer vectors, with {-c: -v} as well."""
    out = dict(pairs)
    out.update([(tuple(map(neg, c)), tuple(map(neg, v))) for c, v in out.items()])
    return out


def _line_orbits(lattice: Lattice, cvecs, distinct: int, tables: bool):
    """(number of candidates, `UnionFind` of the lines of the candidate
    vectors `cvecs`, kept as `_enumerate` keeps them with half=True,
    examined, closure moves).

    The candidates (`_candidates`) are drawn in order, each mapped and
    gated only then, and merge the line orbits until they are as few as
    `distinct`; a candidate never drawn is never examined.  With no
    candidate, or an examined one that fails the gate or maps a candidate
    vector outside `cvecs`, which refuses them all, every line is its own
    orbit, none counts as examined and the moves are None.  With `tables`,
    each examined A that moves some line is kept as (A, the images of the
    candidates of either sign, the line permutation); one that fixes every
    candidate line fixes every section, so the closure skips it."""
    count, drawn = _candidates(lattice)
    nv = len(cvecs)
    if not count:
        return count, UnionFind(nv), 0, None
    lines, fixed = UnionFind(nv), list(range(nv))
    index = {c: i for i, c in enumerate(cvecs)}
    examined, moves = 0, []
    # Nothing is drawn once the orbits are as few as the norms.
    while lines.left > distinct and examined < count:
        a = next(drawn)
        if a is None:
            return count, UnionFind(nv), 0, None
        # c A, one term per nonzero of a column of A.
        imgs = list(map(IndexMap(list(zip(*a))).image, cvecs))
        image = [index.get(_half_key(v)) for v in imgs]
        if None in image:
            return count, UnionFind(nv), 0, None
        examined += 1
        if image != fixed:
            if tables:
                moves.append((a, _signed(zip(cvecs, imgs)), image))
            lines.merge(image)
    return count, lines, examined, moves


def _closure(seeds, moves, lines_of) -> Tuple[list, Dict[int, int], List[int]]:
    """(coordinates of every image of the seed sections under the moves, in
    the order of their line keys; {index of an orbit's first section: its
    size}; for each section the index of its orbit's first section).

    `moves` are (A, images of the candidate vectors of either sign, the
    permutation of the candidate lines) and `lines_of` is `_section_lines`.
    Each seed holds m independent candidate lines and every A permutes the
    candidates, so every image does too, and two saturated sections that
    share m independent lines have one span: the line key names an image
    exactly, the seed's mapped through each move's permutation.  An image
    keeps its seed's rows times A, so every section of an orbit has its
    seed's Gram exactly, as its first section has."""
    seen: Dict[Tuple[int, ...], tuple] = {}   # line key -> (coords, seed)
    for s, sat in enumerate(seeds):
        key = lines_of(sat)
        if key in seen:
            continue
        seen[key] = (sat, s)
        stack = [(sat, key)]
        while stack:
            y, lk = stack.pop()
            for a, table, image in moves:
                k = tuple(sorted([image[i] for i in lk]))
                if k not in seen:
                    img = [table.get(row) or tuple(_rows_times([row], a)[0])
                           for row in y]
                    seen[k] = (img, s)
                    stack.append((img, k))
    ordered = [seen[k] for k in sorted(seen)]
    first: Dict[int, int] = {}
    heads = [first.setdefault(s, i) for i, (_, s) in enumerate(ordered)]
    return ([tuple(map(tuple, y)) for y, _ in ordered], dict(Counter(heads)),
            heads)


def _half_key(vec) -> Tuple[int, ...]:
    """The vector of the pair +-vec (nonzero) that `_enumerate` keeps with
    half=True: the one whose outermost (last) nonzero coordinate is
    positive."""
    if next(filter(None, reversed(vec))) > 0:
        return tuple(vec)
    return tuple(map(neg, vec))


def _rows_times(a, b) -> List[List[int]]:
    """The integer matrix product a b, row i the combination of the rows of
    b with coefficients a[i], zero coefficients skipped: about r^2 steps
    for a reflection or a short vector, whose entries are mostly zero."""
    out = []
    for row in a:
        acc = None
        for x, brow in zip(row, b):
            if x:
                acc = ([x * y for y in brow] if acc is None
                       else [s + x * y for s, y in zip(acc, brow)])
        out.append(acc or [0] * len(b[0]))
    return out


def _sections_of(lattice: Lattice, m: int,
                 sections: Optional[SectionSet]) -> SectionSet:
    """`sections`, checked to hold m-sections of this lattice's Gram, or a
    fresh minimal m-section search when it is None."""
    if sections is None:
        return minimal_sections(lattice, m)
    if sections.m != m or sections.gram_int != lattice._gram_int:
        raise ValueError(f"the sections are not {m}-sections of this lattice")
    return sections


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
    sections = _sections_of(lattice, m, sections)
    delta = sections.delta
    dl = lattice.det()
    root = exact_nth_root(dl ** m, lattice.rank)
    gamma_exact = delta / root if root is not None else None
    try:
        gamma_dec = float(delta) / float(dl) ** (m / lattice.rank)
    except OverflowError:
        # det L past the float range (~1e308): the same quotient in logs.
        ld, ll = (log(q.numerator) - log(q.denominator) for q in (delta, dl))
        gamma_dec = exp(ld - ll * m / lattice.rank)
    return RankinValue(delta, dl, m, lattice.rank, gamma_exact, gamma_dec)


def check_perfection(lattice: Lattice, m: int,
                     sections: Optional[SectionSet] = None) -> Tuple[int, bool]:
    """Rank of the span of the section projectors inside the symmetric
    endomorphisms; perfect when it reaches r(r+1)/2.  Fraction-free
    elimination on the integer projector multiples, one gcd per pivot row.

    A section's coordinate-space projector P = G Y^T (Y G Y^T)^-1 Y is
    self-adjoint for the Gram inner product; its record gives the integer
    multiple G Y^T adj(Y G Y^T) Y, which spans the same line in End."""
    sections = _sections_of(lattice, m, sections)
    r = lattice.rank
    target = r * (r + 1) // 2
    pivots: Dict[int, List[int]] = {}
    for gy, y, adj, _ in sections.records:
        row = [x for prow in adj_product(gy, adj, y) for x in prow]
        for p in sorted(pivots):
            f = row[p]
            if f:
                prow = pivots[p]
                row = [prow[p] * a - f * b for a, b in zip(row, prow)]
        if any(row):
            g = gcd(*row)
            pivots[next(i for i, v in enumerate(row) if v)] = [v // g for v in row]
            if len(pivots) == target:
                break
    return len(pivots), len(pivots) == target


@dataclass
class EutaxyResult:
    is_eutactic: bool
    weights: Optional[List[Rational]]
    uniform: bool


def check_eutaxy(lattice: Lattice, m: int,
                 sections: Optional[SectionSet] = None) -> EutaxyResult:
    """Strictly positive projector combination reaching the identity.

    Uniform weights are decided first, from the pair engine alone.  The
    projectors P_p of the N sections are self-adjoint in the Gram metric,
    so S = sum P_p has real eigenvalues and, by Cauchy-Schwarz,

        sum_{p,q} tr(P_p P_q) = tr(S^2) >= (tr S)^2 / r = (m N)^2 / r,

    with equality exactly when S = (m N / r) I, the uniform witness
    (equivalently, the sections form a Grassmannian 2-design).  The left
    side is the sigma sum of the sections' pair distribution
    (`SectionSet.stats`), the one the design verdicts read, so the
    uniform verdict costs no projector, and no pair engine run once the
    design report has run.  Otherwise the exact phase-1 solver
    `solve_nonneg_combination` decides strict eutaxy on the integer
    projector multiples, and its weights, some strict vertex certificate
    rather than a canonical one, are re-checked exactly (AssertionError,
    also under python -O).  The sections must share one Gram determinant,
    and a given section set must hold m-sections of this lattice
    (ValueError otherwise), as for `rankin` and `check_perfection`.
    """
    sections = _sections_of(lattice, m, sections)
    r = lattice.rank
    nsec = len(sections)
    records = sections.records
    dets = {d for *_, d in records}
    if len(dets) != 1:
        raise ValueError("minimal sections must share one Gram determinant")
    if sections.stats.sigma_sum(1) * r == (m * nsec) ** 2:
        w = Fraction(r, m * nsec)
        return EutaxyResult(True, [w] * nsec, uniform=True)
    # Each multiple is det times the projector, of trace tr = m * det;
    # normalize each to the true projector (trace m) for the exact solver.
    tr = m * dets.pop()
    projs = [RatMatrix([[Fraction(m * x, tr) for x in row]
                        for row in adj_product(gy, adj, y)])
             for gy, y, adj, _ in records]
    ident = RatMatrix.identity(r)
    weights = solve_nonneg_combination(projs, ident)
    if weights is None:
        return EutaxyResult(False, None, uniform=False)
    if not verify_combination(projs, ident, weights):
        raise AssertionError("eutaxy weights fail the exact re-check")
    return EutaxyResult(True, weights, uniform=False)


def _simple_roots(lattice: Lattice) -> List[Tuple[int, ...]]:
    """The simple roots among the minimal vectors `Lattice.minimum` kept, as
    coordinate vectors (none before the minimum is known).

    A minimal vector c is a root when the reflection in it maps the lattice
    onto itself: 2 (c G)_i / (c G c^T) is an integer for every i, G the
    integer Gram `_gram_int`, an exact test that stops at the first
    coordinate failing it.  The kept vectors have a positive outermost
    nonzero coordinate (`_enumerate` with half=True), so they are the
    positive vectors of the functional sum_i c_i M^i for a large M, which
    is generic; the simple roots are the positive roots that are not the
    sum of two positive roots, and their reflections generate the Weyl
    group (Humphreys 1990, 1.3-1.5).
    """
    if not lattice._min_vectors:
        return []
    gi = lattice._gram_int
    q = int(lattice._min * lattice._gram_scale)
    roots = [c for c in lattice._min_vectors
             if all(2 * sum(map(mul, c, row)) % q == 0 for row in gi)]
    positive = set(roots)
    return [r for r in roots
            if not any(tuple(map(sub, r, p)) in positive for p in roots)]


def coordinate_automorphisms(
        lattice: Lattice) -> Tuple[int, Optional[List[List[List[int]]]]]:
    """(number of candidates, their integer coordinate matrices, or None
    when any fails the gate): `_candidates` with every candidate drawn."""
    count, drawn = _candidates(lattice)
    mats = list(drawn)
    return count, None if None in mats else mats


def _candidates(lattice: Lattice) -> Tuple[int, Iterator]:
    """(number of candidates, an iterator over them in order, each mapped
    and gated only when drawn: its integer coordinate matrix, or None when
    it fails the gate).

    The candidates act on coordinate rows as c -> c A.  With two or more
    simple roots, the product of their reflections comes first: a Coxeter
    element of the root system (Humphreys 1990, 3.16), a cheap extra
    generator.  Then come those a construction attached (`_automorphisms`),
    each g mapped through the basis, A = B g^T B^T (B B^T)^-1 / sqrt(c) for
    the primitive integer multiple of g with g g^T = c I, the right inverse
    B^T (B B^T)^-1 taken once from the integer adjugate (`_right_inverse`);
    then the reflections in the simple roots r (`_simple_roots`), built
    from r and the integer Gram G,

        A = I - (2 / r G r^T) (G r^T) r,

    integer by the root test.  The count needs only the attached list and
    the roots.  The gate: A must be an integer matrix with A G A^T = G,
    which makes it an automorphism of the lattice (det A = +-1).  It is
    plain comparisons, so it also holds under python -O.
    """
    lattice.minimum()   # the roots are among the minimal vectors
    roots = _simple_roots(lattice)
    gi = lattice._gram_int
    # A G A^T = A (A G)^T, G symmetric.
    gated = (a if a is not None and _rows_times(a, list(zip(*_rows_times(a, gi)))) == gi
             else None for a in _built(lattice, roots))
    return len(lattice._automorphisms) + len(roots) + (len(roots) > 1), gated


def _built(lattice: Lattice, roots) -> Iterator:
    """The candidates of `_candidates` in order, each built when drawn."""
    gi = lattice._gram_int
    reflections = []
    for v in roots:
        gv = [sum(map(mul, row, v)) for row in gi]
        q = sum(map(mul, gv, v))
        reflections.append([[int(i == j) - (2 * a // q) * b
                             for j, b in enumerate(v)] for i, a in enumerate(gv)])
    if len(reflections) > 1:
        # A_1 ... A_k, multiplied from the right so that the sparse factor
        # is on the left.
        product = reflections[-1]
        for a in reversed(reflections[:-1]):
            product = _rows_times(a, product)
        yield product
    if lattice._automorphisms:
        bi = lattice._basis_int
        pcols, pden = _right_inverse(bi)
        for g in lattice._automorphisms:
            yield _coordinate_map(g, bi, pcols, pden)
    yield from reflections


def _right_inverse(basis_int) -> Tuple[List[List[int]], int]:
    """(columns, den): B^T (B B^T)^-1 = columns^T / den in lowest terms, for
    integer rows B of full rank, from the integer adjugate, adj(B B^T) B /
    det(B B^T), with its common factor divided out (B B^T is symmetric, so
    the columns are the rows of adj(B B^T) B)."""
    bbt = [[sum(map(mul, a, b)) for b in basis_int] for a in basis_int]
    adj = adjugate(bbt)
    d = sum(map(mul, bbt[0], (row[0] for row in adj)))
    cols = _rows_times(adj, basis_int)
    g = gcd(d, *(x for col in cols for x in col))
    return [[x // g for x in col] for col in cols], d // g


def _coordinate_map(g, basis_int, pcols, pden) -> Optional[List[List[int]]]:
    """The integer coordinate matrix of the ambient map g / sqrt(c), g g^T =
    c I, on the lattice with integer basis rows `basis_int` (right inverse
    `pcols` / pden, as columns), or None when g is no orthogonal map up to a
    square scalar or the matrix is not integral."""
    try:
        act = IntAction(g)
    except ValueError:
        return None
    side = isqrt(act.scale)
    if act.n != len(basis_int[0]) or side * side != act.scale:
        return None
    den = pden * side
    # Row i is (g b_i) times the right inverse, zero entries skipped.
    rows = _rows_times([act.image(b) for b in basis_int], list(zip(*pcols)))
    if any(x % den for row in rows for x in row):
        return None
    return [[x // den for x in row] for row in rows]


def section_design_report(lattice: Lattice, sections: SectionSet,
                          tmax: int = 2) -> DesignReport:
    """Design verdicts for the minimal sections, taken intrinsically: read
    from their pair distribution `sections.stats`, summed over the orbits
    the search certified (the line union-find for lines, its closure for
    m >= 2), the one that `check_eutaxy` reads too.  The verdicts are
    taken in dimension rank, so rank-deficient embeddings are judged
    intrinsically.
    """
    check_design_range(sections.m, lattice.rank, tmax)
    report = design_report(sections.stats, lattice.rank, tmax)
    report.generators, report.examined = sections.generators, sections.examined
    return report


# -- constructions -----------------------------------------------------------


def barnes_wall(k: int, normalized: bool = False) -> Lattice:
    """The Z-span of the scaled characteristic vectors of all affine
    subspaces of F_2^k, with the triangular basis: for each coordinate
    subset (mask), 2^ceil((k - |mask|)/2) times the indicator of the
    points inside it, rows sorted by increasing norm (nested supports).
    The enumeration fixes coordinates from the last row inward, where this
    order has twice the Gram-Schmidt norms of decreasing norm at k = 4: it
    finds the minimal vectors about six times faster.  That the basis spans
    the same full-rank lattice as the affine generators is checked exactly,
    by equal HNFs (AssertionError otherwise, also under python -O).

    The raw span has minimum 2^k; `normalized=True` rescales so the minimum
    becomes 2^floor(k/2) and raises when that similarity is irrational
    (coordinate factor sqrt 2, e.g. k = 2).  Both attach the generators of
    G_k from `generators`, which loads neither `clifford` nor `binquad`.
    """
    if not 2 <= k <= 4:
        raise ValueError("desk scale is 2 <= k <= 4")
    n = 1 << k
    gens: List[List[int]] = []
    for d in range(k + 1):
        scale = 1 << ((k - d + 1) // 2)
        for words in bit_subspaces(k, d):
            span = bit_span(words)
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
    tri = []
    for mask in range(n):
        scale = 1 << ((k - mask.bit_count() + 1) // 2)
        tri.append([scale if u & ~mask == 0 else 0 for u in range(n)])
    basis_rows = hnf(gens)
    if len(basis_rows) != n or hnf(tri) != basis_rows:
        raise AssertionError("the triangular basis must span the full-rank "
                             "lattice of the affine generators")
    rows = sorted(tri, key=lambda row: sum(x * x for x in row))
    lat = Lattice(rows, name=f"BW{n}(raw)")
    # Candidate automorphisms: the generators of the rational Clifford
    # subgroup G_k, which preserves the lattice (Nebe, Rains and Sloane
    # 2001); H = `h_first` is not in it.  `cycle`, `transvect_01` and
    # `h2_first` come first, which leave one orbit on the minimal lines and
    # 2-sections of BW16.
    from .generators import clifford_generators
    first = ("cycle", "transvect_01", "h2_first")
    lat._automorphisms = [g.matrix for g in sorted(
        clifford_generators(k), key=lambda g: g.name not in first)
        if g.in_gk]
    if not normalized:
        return lat
    raw_min = lat.minimum()
    target = Fraction(2) ** (k // 2)
    ratio = raw_min / target
    side = exact_nth_root(ratio, 2)
    if side is None:
        raise ValueError(f"normalization of BW{n} needs the irrational "
                         f"coordinate factor sqrt({ratio})")
    scaled = Lattice([[x / side for x in row] for row in rows], name=f"BW{n}")
    # Dividing the basis by side keeps every coordinate vector and divides
    # every norm by side^2, so the raw minimal vectors are the scaled ones.
    scaled._min = raw_min / side ** 2
    scaled._min_vectors = lat._min_vectors
    # A similarity keeps the automorphisms.
    scaled._automorphisms = lat._automorphisms
    return scaled


def catalog(name: str) -> Lattice:
    """Built-in bases: Zn, D4, E6, E7, E8, BW16."""
    if not isinstance(name, str):
        raise ValueError(f"a catalog lattice name is a string, not {name!r}")
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


def minimal_line_keys(lattice: Lattice) -> Set[Tuple[Tuple[int, ...], ...]]:
    """Canonical rows (`Subspace.rows`) of the lines through the minimal
    vectors, without building a Subspace per line."""
    vecs = short_vectors_with_norms(lattice, lattice.minimum(), half=True)
    return {(line_key(row),) for row in _ambient_rows(lattice, [c for c, _ in vecs])}


def minimal_line_configuration(lattice: Lattice) -> Configuration:
    """The lines supporting the minimal vectors, as ambient subspaces."""
    lines = minimal_sections(lattice, 1)
    return Configuration(lattice.n, section_subspaces(lattice, lines))


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
