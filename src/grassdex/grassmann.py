"""Subspaces of R^n as exact objects, configurations, and the two
design-verification criteria (zonal-sum vanishing and sigma^t pair averages).

Principal-angle data is never extracted eigenvalue by eigenvalue; only power
sums enter, via traces of small integer matrices, so every verdict stays in Q.
For subspaces p, q with integer bases B_p, B_q and Gram matrices G_p, G_q:

    tr((pi_p pi_q)^t) = tr(W^t) / (det G_p * det G_q)^t,
    W = adj(G_p) * (B_p B_q^T) * adj(G_q) * (B_q B_p^T)

which the pair engine below evaluates in pure integer arithmetic.

Each point's rows are first made orthogonal in the record's own metric by a
fraction-free Gram-Schmidt (integer only, content divided out at each
step; `_orthogonal`).  The new rows u_a, v_a have a diagonal Gram g_a, so
adj(G) / det G becomes diag(w) / l with l = lcm(g) and weights
w_a = l / g_a.  With the cross entries C_ab = u_a(p) . v_b(q):

    H_ac = sum_b w'_b C_ab C_cb,  tr W = sum_a w_a H_aa,
    tr W^2 = sum_{a,c} w_a w_c H_ac^2,  den = l_p l_q

for W = diag(w) C diag(w') C^T; a line has w = (1) and l = |u|^2, so
tr W = c^2 and tr W^2 = c^4 for its one cross entry c.  With new bases T_p B_p and T_q B_q this W / den is
T_p^-T (W / den of the old bases) T_p^T, a similar matrix, so
tr W / den = sigma and tr W^2 / den^2 = sum y_i^2 are unchanged and so is
every pair key, whichever basis a point starts from.

The engine reads a Subspace in the rows it was given in, as primitive
integer rows, when they are m independent rows, and in its canonical rows
otherwise.  Gram-Schmidt about doubles the bit size of a basis far from
orthogonal, such as RREF rows of a rotated space, and keeps an orthogonal
one as it is.  `verify_design` first rewrites a configuration in an exact
orthogonal frame of its own span (`_frame_data`): frame vectors taken
greedily from the given rows and made orthogonal by the same Gram-Schmidt,
scaled to one norm per square class, and every row as its primitive
integer coordinate row in them, with a diagonal metric.  sigma and
sum y_i^2 are invariant under an isometry and a global scale of the
metric, so every pair key stays the same, and a rationally rotated
configuration returns to coordinates as small as its unrotated ones.  The
frame is taken only when it narrows the rows the engine would read, and
the verdict constants stay those of the ambient n.

Every count site keys a pair by `_pair_key`: sigma = tr W / den and
sum y_i^2 = tr W^2 / den^2 as gcd-reduced integer numerators and
denominators.  Pairs at one angle share one key however their Gram
determinants differ, so the counters hold one entry per angle class and
Fractions are built once per class, never per pair.

The inner products are taken a block at a time by packing (Kronecker
substitution): for a block of columns and each coordinate k, one Python
integer holds y_j[k] in slot j of s bits, so one multiply-add per
coordinate, sum_k x[k] * col_k + 2^(s-1) * ones, yields x . y_j + 2^(s-1)
in every slot.  The slot width comes from the exact Hoelder (Cauchy-Schwarz)
bound |x . y| <= isqrt(max|x|^2 max|y|^2) < 2^(s-1), so no slot carries into
the next and every count is exact.  The columns are the m rows v_b of each
point, each slot also holding the point's weight class (w, l), so each row
u_a of p gives its C_ab against a whole block at once, as one record of m
slots per column point q (a line's record is its one slot, read in place).
The m records of a pair, zipped, are one record of all of C and q's class:
`Counter.update` counts one record per pair in C, with one counter per
row class (w_p, l_p), and each distinct record is decoded and keyed once.
Pairs at one angle often share C, so far fewer records than pairs are
keyed.

When a group G permutes the configuration X, the ordered-pair distribution
is a sum over G-orbits O of |O| times one row, a representative of O
against all of X (Goethals and Seidel 1981).  `pair_stats` takes only
orbits its caller has certified: `certified_orbits` checks ambient
generator matrices exactly (the Clifford trace path), and the lattice
section search certifies integer automorphisms itself.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, cycle, islice, repeat
from math import gcd, isqrt, lcm
from operator import add, itemgetter, mul, neg
from struct import Struct, calcsize
from typing import Dict, List, Optional, Sequence, Tuple

from .exactalg import (RatMatrix, Rational, adjugate, int_rref, json_rows,
                       pivot_rows, primitive_int_row, rat_str)
from .zonal import MAX_T, Partition, constant_c, jacobi_p, supported_partitions


class Subspace:
    """An m-dimensional subspace of R^n in integer canonical form.

    `rows` are the rows of the reduced row echelon basis over Q, each scaled
    to a primitive integer row with a positive pivot.  The form is unique,
    so equality is exact and hashing safe, and configurations deduplicate
    without any inner-product normalization.  `basis` is the same RREF
    basis as Fractions.

    A point built from m independent rows other than `rows` also keeps
    them, as primitive integer rows (`_given`), for the pair engine alone:
    sigma does not depend on the basis, and a given basis is often far
    smaller after Gram-Schmidt than the RREF one (an orthogonal one stays
    as it is).  The pair engine (`pair_stats`, and `int_data` for the
    orbit rows of lines and planes) and the orthogonal frame of
    `verify_design` (`_frame_data`) read them.

    Nonzero integer rows with pairwise disjoint supports, such as the
    eigenspace bases of `clifford.eigenspaces`, skip elimination: their
    canonical rows are their line keys sorted by pivot (`disjoint_keys`).
    Those are the given rows, scaled and reordered, and orthogonal, so
    such a point keeps no other rows.
    """

    __slots__ = ("n", "m", "rows", "_given", "_basis", "_intdata")

    def __init__(self, n: int, rows, *, allow_dependent: bool = False):
        if isinstance(rows, RatMatrix):
            rows = rows.entries
        rows = list(rows)
        canon = given = None
        if (n and set(map(len, rows)) == {n} and type(rows[0][0]) is int
                and set(map(type, chain.from_iterable(rows))) == {int}):
            # Nonzero integer rows with disjoint supports (one row, say)
            # are orthogonal, and their line keys are their canonical rows.
            canon = disjoint_keys(rows, n)
        if canon is None:
            ints = tuple(primitive_int_row(r) for r in rows)
            for r in ints:
                if len(r) != n:
                    raise ValueError(f"rows have {len(r)} columns, ambient is {n}")
            canon = int_rref(ints, n)
            if not allow_dependent and len(canon) != len(ints):
                raise ValueError("basis rows are linearly dependent")
            given = ints if len(ints) == len(canon) and ints != canon else None
        if not canon:
            raise ValueError("subspace must have positive dimension")
        self.n = n
        self.m = len(canon)
        self.rows = canon
        self._given = given
        self._basis = None
        self._intdata = None

    @classmethod
    def span(cls, n: int, rows) -> "Subspace":
        return cls(n, rows, allow_dependent=True)

    @classmethod
    def line(cls, vector) -> "Subspace":
        return cls(len(tuple(vector)), [list(vector)])

    @property
    def basis(self) -> RatMatrix:
        """The canonical RREF basis, pivots 1."""
        if self._basis is None:
            self._basis = RatMatrix(pivot_rows(self.rows))
        return self._basis

    def int_data(self):
        """(left rows, right rows, adjugate of Gram, det Gram), all integer.

        The line and plane orbit-row kernel (`_count_rows`) forms cross
        matrices as left_i @ right_j^T; for ambient subspaces both factors
        are the given rows, else the canonical ones.
        """
        if self._intdata is None:
            rows = self._given or self.rows
            self._intdata = intdata(rows, rows)
        return self._intdata

    def projector(self) -> RatMatrix:
        """Orthogonal projector onto the subspace (symmetric idempotent),
        B^T adj(G) B / det(G)."""
        b, _, adj, d = self.int_data()
        return RatMatrix([[Fraction(x, d) for x in row]
                          for row in adj_product(b, adj, b)])

    def transform(self, q: RatMatrix) -> "Subspace":
        """Image under the linear map with matrix q (vectors as rows * q^T)."""
        return Subspace(self.n, [[sum(map(mul, row, qrow)) for qrow in q.entries]
                                 for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Subspace(n={self.n}, m={self.m}, basis={self.basis!r})"

    def to_json(self):
        return self.basis.to_json()


def intdata(left, right):
    """(left, right, adj G, det G) for the integer Gram G = left @ right^T:
    the record the line and plane orbit-row kernel reads (`_count_rows`)."""
    m = len(left)
    g = [[sum(map(mul, left[i], right[j])) for j in range(m)] for i in range(m)]
    adj = adjugate(g)
    return left, right, adj, sum(g[0][j] * adj[j][0] for j in range(m))


def adj_product(left, adj, right) -> List[List[int]]:
    """The integer matrix left^T adj right, for m x n factors and an m x m
    adj: det G times the projector when left = right are basis rows of
    Gram G and adj = adj(G).  Row i is the combination of the rows of
    adj right with coefficients left[.][i], zero coefficients skipped."""
    mid = _mul_int(adj, right)
    out = []
    for col in zip(*left):
        row = None
        for c, mrow in zip(col, mid):
            if c:
                row = ([c * x for x in mrow] if row is None
                       else [r + c * x for r, x in zip(row, mrow)])
        out.append(row or [0] * len(mid[0]))
    return out


def intdata_from_coords(coords: Sequence[Tuple[int, ...]], gram_int) -> tuple:
    """Pair-engine data for subspaces given in lattice coordinates.

    `coords` are integer coordinate rows, `gram_int` the (scaled) integer
    Gram matrix of the ambient basis; sigma values are scale invariant, so
    any positive integer multiple of the true Gram works.
    """
    return intdata(*metric_rows(coords, gram_int))


def metric_rows(coords: Sequence[Tuple[int, ...]], gram_int) -> tuple:
    """(G Y^T rows, Y) for the coordinate rows Y and the integer Gram G: the
    left and right rows of `intdata_from_coords`, all that the full sweep
    and the m >= 3 orbit rows read, with no Gram adjugate formed.  G is
    symmetric, so entry b of G y^T is row b of G dotted with y."""
    coords = tuple(tuple(r) for r in coords)
    return tuple(tuple(sum(map(mul, r, g)) for g in gram_int)
                 for r in coords), coords


def _mul_int(a, b):
    """Product of small integer matrices given as tuples of row tuples."""
    bt = list(zip(*b))
    return tuple(tuple(sum(map(mul, ra, cb)) for cb in bt) for ra in a)


def _pair_w(data_i, data_j):
    """(W, det G_p * det G_q) for a pair of subspaces p, q.

    W = adj(G_p) C adj(G_q) C^T with C = L_p R_q^T, so that
    tr((pi_p pi_q)^t) = tr(W^t) / den^t.
    """
    li, _, adji, di = data_i
    _, rj, adjj, dj = data_j
    if len(li) == 1:
        c = sum(map(mul, li[0], rj[0]))
        return ((c * c,),), di * dj
    c = tuple(tuple(sum(map(mul, ra, rb)) for rb in rj) for ra in li)
    return _mul_int(_mul_int(_mul_int(adji, c), adjj), tuple(zip(*c))), di * dj


@dataclass
class PairStats:
    """The exact distribution of (sigma, sum y_i^2) over all ordered pairs
    of a configuration of `size` m-spaces.  Every design verdict, zonal sum
    and the uniform eutaxy witness is read from it."""

    size: int
    m: int
    # (sigma, sum(y_i^2)) -> number of ordered pairs, the diagonal included;
    # one entry per distinct `_pair_key` of the count sites.
    distribution: Dict[Tuple[Rational, Rational], int]
    # The number of certified group orbits when the orbit identity was used.
    orbits: Optional[int] = None

    def sigma_sum(self, t: int) -> Rational:
        """Sum of sigma^t over all ordered pairs, for any t >= 1."""
        return sum(c * s ** t for (s, _), c in self.distribution.items())

    @property
    def power2(self) -> Rational:
        """Sum of the second power sums sum(y_i^2)."""
        return sum(c * q for (_, q), c in self.distribution.items())

    def zonal_sum(self, poly) -> Rational:
        """Sum of the zonal polynomial `poly` over all ordered pairs."""
        return sum(c * poly.evaluate_power_sums(s, q)
                   for (s, q), c in self.distribution.items())


def _pair_key(trw: int, trw2: int, den: int) -> Tuple[int, int, int, int]:
    """(sigma num, sigma den, sum y^2 num, sum y^2 den) in lowest terms for
    sigma = trw / den and sum y_i^2 = trw2 / den^2, den > 0: equal keys
    exactly when the two rationals are equal."""
    g = gcd(trw, den)
    den2 = den * den
    h = gcd(trw2, den2)
    return trw // g, den // g, trw2 // h, den2 // h


def _count_rows(data, rows) -> Counter:
    """Counts of the `_pair_key`s of the pairs (i, j), j >= start, of each
    row spec (i, start, weight), each counted weight times, for lines and
    planes; only a row point's left rows are read.

    For lines a pair takes c = L_p . R_q, so tr W = c^2 and tr W^2 = c^4:
    each row counts its distinct (c, det G_q) first and keys each once.
    For planes a pair takes the 4 dot products of C = L_p R_q^T and then
    only 2 x 2 integer arithmetic: tr W = <adj(G_p) C adj(G_q), C>
    (Frobenius) and tr W^2 = (tr W)^2 - 2 det W, det W = det G_p det G_q
    (det C)^2 for the 2 x 2 W, the values `_pair_w` gives."""
    counts = Counter()
    n = len(data)
    if len(data[0][0]) == 1:
        for i, start, weight in rows:
            (x,), _, _, di = data[i]
            pairs = Counter((sum(map(mul, x, r)), dj)
                            for _, (r,), _, dj in islice(data, start, None))
            for (c, dj), k in pairs.items():
                c2 = c * c
                key = _pair_key(c2, c2 * c2, di * dj)
                counts[key] = counts.get(key, 0) + k * weight
        return counts
    for i, start, weight in rows:
        (l0, l1), _, ((p00, p01), (p10, p11)), di = data[i]
        for j in range(start, n):
            _, (r0, r1), ((b00, b01), (b10, b11)), dj = data[j]
            c00, c01 = sum(map(mul, l0, r0)), sum(map(mul, l0, r1))
            c10, c11 = sum(map(mul, l1, r0)), sum(map(mul, l1, r1))
            # adj(G_p) C
            m00, m01 = p00 * c00 + p01 * c10, p00 * c01 + p01 * c11
            m10, m11 = p10 * c00 + p11 * c10, p10 * c01 + p11 * c11
            trw = ((m00 * b00 + m01 * b10) * c00
                   + (m00 * b01 + m01 * b11) * c01
                   + (m10 * b00 + m11 * b10) * c10
                   + (m10 * b01 + m11 * b11) * c11)
            den, detc = di * dj, c00 * c11 - c01 * c10
            key = _pair_key(trw, trw * trw - 2 * den * detc * detc, den)
            counts[key] = counts.get(key, 0) + weight
    return counts


# Bytes of column slots per packed integer, so that one multiply-add costs
# about the same whatever the slot width: 2048 one-byte slots, 512 of four
# bytes, 85 of 24.  The block a row starts in is computed whole but read
# only to the right of the row, so wide slots waste less in fewer points.
_BLOCK_BYTES = 2048
# memoryview formats by native item width in bits.
_SLOT_FORMATS = {8 * calcsize(c): c for c in "BHIQ"}


def _slot_layout(xnorm: int, ynorm: int, classes: int) -> Tuple[int, int]:
    """(value bits, slot width in bits) for row and column vectors of
    squared lengths at most xnorm and ynorm, with `classes` column classes
    above the value.  By Hoelder with p = q = 2, |x . y|^2 <= |x|^2 |y|^2,
    so x . y + 2^(bits - 1) fits in its bits."""
    bits = isqrt(xnorm * ynorm).bit_length() + 1
    need = bits + (classes - 1).bit_length()
    fits = [w for w in sorted(_SLOT_FORMATS) if w >= need]
    return bits, fits[0] if fits else -(-need // 8) * 8


def _pack(values, nbytes: int) -> int:
    """sum_j values[j] * 2^(8 * nbytes * j) for 0 <= values[j] < 2^(8 * nbytes)."""
    return int.from_bytes(b"".join(v.to_bytes(nbytes, "little") for v in values),
                          "little")


class _PackedColumns:
    """Column vectors packed so that one multiply-add per coordinate gives a
    row's inner products with a whole block of them.

    Column j carries an integer vector y_j and a class index, the weight
    class (w, l) of its point in the cross engine.  Slot j of sum_k x[k] *
    col_k + base holds x . y_j + 2^(bits - 1) in its low `bits` bits and
    class j above them, so a row's pairs at equal values against one class
    give equal slots.  Over the rows xs the engine will use, |x . y_j| <=
    max|x| max|y| < 2^(bits - 1) (Euclidean norms), so the value stays in
    its bits.  A block holds whole groups of `group` consecutive columns,
    so a point's m columns share one block.
    """

    def __init__(self, xs, ys, classes: Sequence[int], group: int = 1):
        self.bits, width = _slot_layout(max(sum(v * v for v in x) for x in xs),
                                        max(sum(v * v for v in y) for y in ys),
                                        max(classes) + 1)
        self.nbytes = nb = width // 8
        # Slots read in place as native integers on little-endian hosts.
        self.fmt = _SLOT_FORMATS.get(width) if sys.byteorder == "little" else None
        # Some x is nonzero, so |y[k]| < 2^(bits - 1): y + half packs
        # without a sign.
        half = 1 << (width - 1)
        offset = 1 << (self.bits - 1)
        self.per_block = per_block = max(1, _BLOCK_BYTES // (nb * group)) * group
        self.blocks = []
        for j0 in range(0, len(classes), per_block):
            block = classes[j0:j0 + per_block]
            halves = _pack([half] * len(block), nb)
            cols = [_pack([v + half for v in col], nb) - halves
                    for col in zip(*ys[j0:j0 + per_block])]
            base = _pack([offset + (c << self.bits) for c in block], nb)
            self.blocks.append((j0, cols, base, len(block)))

    def row(self, x, start: int):
        """The slots of columns j >= start as little-endian bytes, `nbytes`
        per slot, one memoryview per block.  `slots` reads them as
        integers; the cross engine cuts them into records of m slots, one
        per column point, when m >= 2."""
        nb = self.nbytes
        for j0, cols, base, size in self.blocks[start // self.per_block:]:
            raw = sum(map(mul, x, cols), base).to_bytes(size * nb, "little")
            yield memoryview(raw)[max(start - j0, 0) * nb:]

    def slots(self, raw):
        """The slot integers of packed bytes: read in place when the slot
        width is a native format, else one `int.from_bytes` per slot."""
        if self.fmt:
            return memoryview(raw).cast(self.fmt)
        nb = self.nbytes
        return [int.from_bytes(raw[o:o + nb], "little")
                for o in range(0, len(raw), nb)]


def _orthogonal(rec) -> tuple:
    """(U, V, w, l): the rows of a pair-engine record (or of its first two
    fields, left and right) made orthogonal in its own metric, by
    fraction-free Gram-Schmidt.

    Row a of U and of V is one integer combination of the record's left and
    right rows, so U_p V_q^T is the cross matrix of p and q in the new
    bases; each step takes u -> g_b u - (u . v_b) u_b (and v alike) for the
    earlier rows b, then divides the pair by its common content.  U V^T is
    diagonal, g_a = u_a . v_a, and the weights w_a = l / g_a over l =
    lcm(g) stand in for the adjugate: adj(G) / det G = diag(w) / l.
    """
    left, right = rec[0], rec[1]
    same = left is right
    us, vs, gs = [], [], []
    for u, v in zip(left, right):
        u, v = _reduce(u, v, us, vs, gs, same)
        us.append(u)
        vs.append(v)
        gs.append(sum(map(mul, u, v)))
    scale = lcm(*gs)
    return us, vs, [scale // g for g in gs], scale


def _reduce(u, v, us, vs, gs, same: bool):
    """(u, v) made orthogonal to the rows vs, us (u_b . v_b = g_b), one
    fraction-free Gram-Schmidt step per earlier row, each dividing the pair
    by its common content; v is u throughout when `same`.  The result is
    zero exactly when u lies in the span of us."""
    for ub, vb, gb in zip(us, vs, gs):
        c = sum(map(mul, u, vb))
        if c:
            u = [gb * x - c * y for x, y in zip(u, ub)]
            v = u if same else [gb * x - c * y for x, y in zip(v, vb)]
            h = gcd(*u) if same else gcd(*u, *v)
            if h > 1:
                u = [x // h for x in u]
                v = u if same else [x // h for x in v]
    return u, v


def _cross_rows(orth, rows) -> Counter:
    """`_count_rows` for the records `orth` (`_orthogonal`), from packed
    cross entries C_ab = u_a(p) . v_b(q): one record counted per pair, each
    distinct record keyed once.

    Column (q, b) holds v_b(q) and q's weight class, the index of (w_q,
    l_q), so one multiply-add per coordinate gives C_ab against a block of
    points for each row a of p.  Each of the m byte strings is cut into
    records of m slots, one per q; zipped over a they give one record per
    pair, all of C with q's class, which `Counter.update` counts in C, one
    counter per row class (w_p, l_p) and a row of weight k counted k times.
    For lines the record is the one slot, read in place as an integer (a
    one-slot byte record cost up to twice as much).  Each distinct record
    is then decoded exactly, takes H, tr W and tr W^2 by the identities of
    the module docstring, and `_pair_key` gives the loop's keys.  Needs U_q V_p^T = (U_p V_q^T)^T, a symmetric metric, as
    for all data from `Subspace.int_data` and `intdata_from_coords`.
    """
    n = len(orth)
    m = len(orth[0][2])
    kinds: Dict = {}
    classes = [kinds.setdefault((tuple(w), l), len(kinds))
               for _, _, w, l in orth]
    packed = _PackedColumns([u for us, _, _, _ in orth for u in us],
                            [v for _, vs, _, _ in orth for v in vs],
                            [c for c in classes for _ in range(m)], m)
    records = Struct(f"{m * packed.nbytes}s").iter_unpack
    by_class = defaultdict(Counter)
    for i, start, weight in rows:
        if start >= n:
            continue
        if m == 1:
            # A record is one slot, read in place.
            pairs = chain.from_iterable(map(packed.slots,
                                            packed.row(orth[i][0][0], start)))
        else:
            pairs = zip(*(chain.from_iterable(map(records,
                                                  packed.row(u, start * m)))
                          for u in orth[i][0]))
        counter = by_class[classes[i]]
        if weight == 1:
            counter.update(pairs)
        else:
            for record, k in Counter(pairs).items():
                counter[record] += k * weight
    counts = Counter()
    weights = list(kinds)
    # The value sits below the class.
    shift = packed.bits
    mask, off = (1 << shift) - 1, 1 << (shift - 1)
    # H's diagonal first, then its upper triangle.
    tri = ([(a, a) for a in range(m)]
           + [(a, c) for a in range(m) for c in range(a + 1, m)])
    first, second = [a for a, _ in tri], [c for _, c in tri]
    for cls, counter in by_class.items():
        wp, lp = weights[cls]
        # w_a w_c, counted twice off the diagonal.
        ww = [wp[a] * wp[c] * (1 + (a < c)) for a, c in tri]
        for record, k in counter.items():
            slots = ((record,) if m == 1 else
                     packed.slots(b"".join(chain.from_iterable(record))))
            wq, lq = weights[slots[0] >> shift]
            vals = [(s & mask) - off for s in slots]
            cr = [vals[a:a + m] for a in range(0, m * m, m)]
            x = [list(map(mul, row, wq)) for row in cr]
            h = list(map(sum, map(map, repeat(mul), map(x.__getitem__, first),
                                  map(cr.__getitem__, second))))
            key = _pair_key(sum(map(mul, wp, h)),
                            sum(map(mul, ww, map(mul, h, h))), lp * lq)
            counts[key] += k
    return counts


def _square_classes(dets) -> Dict[int, List[int]]:
    """The points by square class of their Gram determinants, keyed by the
    class's first determinant d_G: a new determinant d joins the first class
    with d d_G a perfect square, an exact `isqrt` test."""
    first: Dict[int, int] = {}
    classes: Dict[int, List[int]] = defaultdict(list)
    for p, d in enumerate(dets):
        if d not in first:
            first[d] = next((g for g in classes
                             if (dd := d * g) > 0 and isqrt(dd) ** 2 == dd), d)
        classes[first[d]].append(p)
    return classes


def line_key(vec) -> Tuple[int, ...]:
    """Canonical row of the line through a nonzero integer vector: the
    primitive vector with a positive pivot, `Subspace.line(vec).rows[0]`."""
    g = gcd(*vec)
    if next(filter(None, vec)) < 0:
        g = -g
    if g == 1:
        return tuple(vec)
    if g == -1:
        return tuple(map(neg, vec))
    return tuple(x // g for x in vec)


def disjoint_keys(rows, n: int) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Canonical rows (`int_rref`) of nonzero integer rows of length n whose
    supports are pairwise disjoint: their line keys sorted by pivot.  None
    when a row is zero or two supports meet.

    Each key is zero on every other row's pivot, so the keys are the
    RREF rows.  A key is positive at its pivot and zero before it, so
    keys sort by pivot in decreasing lexicographic order.
    """
    if len(rows) == 1:
        return (line_key(rows[0]),) if any(rows[0]) else None
    # The columns of the nonzero entries, row after row.
    support = tuple(compress(cycle(range(n)), chain.from_iterable(rows)))
    if len(set(support)) != len(support) or not all(map(any, rows)):
        return None
    return tuple(sorted(map(line_key, rows), reverse=True))


class IndexMap:
    """An integer matrix g acting on integer rows as row -> g row, compiled
    to index maps: term k of output coordinate i is coefs_k[i] *
    row[index_k[i]].  A signed permutation is one layer (a signed index
    map), S (x) I two and the two-factor rotation four (butterflies)."""

    __slots__ = ("layers",)

    def __init__(self, g):
        terms = [[(j, x) for j, x in enumerate(r) if x] for r in g]
        width = max(map(len, terms))
        # Rows with fewer terms are padded with 0 * row[0].
        padded = [t + [(0, 0)] * (width - len(t)) for t in terms]
        self.layers = [(itemgetter(*(t[k][0] for t in padded)),
                        tuple(t[k][1] for t in padded)) for k in range(width)]

    def image(self, row) -> Tuple[int, ...]:
        get, coefs = self.layers[0]
        out = map(mul, get(row), coefs)
        for get, coefs in self.layers[1:]:
            out = map(add, out, map(mul, get(row), coefs))
        return tuple(out)


class IntAction(IndexMap):
    """A matrix g with g g^T = c I, c > 0, acting on integer rows.

    The matrix is scaled to a primitive integer matrix, which acts on
    subspaces as g does, and the equality g g^T = c I is checked exactly;
    ValueError otherwise.  Rows map as `Subspace.transform` maps them.
    """

    __slots__ = ("n", "scale")

    def __init__(self, matrix):
        rows = matrix.entries if isinstance(matrix, RatMatrix) else matrix
        n = len(rows)
        if n < 2 or any(len(r) != n for r in rows):
            raise ValueError("generator matrix must be square, n >= 2")
        flat = primitive_int_row([x for r in rows for x in r])
        g = [flat[i * n:(i + 1) * n] for i in range(n)]
        c = sum(x * x for x in g[0])
        if c == 0 or any(sum(map(mul, g[a], g[b])) != (c if a == b else 0)
                         for a in range(n) for b in range(a, n)):
            raise ValueError("generator is not orthogonal up to a scalar")
        self.n = n
        self.scale = c
        super().__init__(g)

    def key(self, rows) -> Tuple[Tuple[int, ...], ...]:
        """Canonical rows (`Subspace.rows`) of the image of the subspace
        with canonical rows `rows`.  Images whose supports are disjoint,
        as a signed permutation leaves disjoint rows, take their sorted
        line keys (`disjoint_keys`); any other image is eliminated."""
        if len(rows) == 1:
            return (line_key(self.image(rows[0])),)
        images = [self.image(r) for r in rows]
        return disjoint_keys(images, self.n) or int_rref(images, self.n)


class UnionFind:
    """Orbits of maps on 0..n-1 by union-find with path halving: a root is
    its orbit's least element, and `left` counts the orbits."""

    __slots__ = ("parent", "left")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.left = n

    def root(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]   # path halving
        return x

    def merge(self, image) -> None:
        """Joins the orbits of x and image[x] for every x."""
        for x, y in enumerate(image):
            x, y = self.root(x), self.root(y)
            if x != y:
                self.parent[max(x, y)] = min(x, y)
                self.left -= 1


def certified_orbits(points: Sequence, generators) -> tuple:
    """(orbits, examined): the orbits of a group generated by `generators`
    on the multiset of Subspaces `points`, certified exactly, and the number
    of generators examined; (None, 0) when a check fails.

    Each generator must compile to an `IntAction` on R^n (g g^T = c I).
    They are examined in order, merging orbits, until one orbit is left
    (the orbit identity needs only some group transitive on the points).
    An examined generator must map the distinct points bijectively onto
    themselves with their multiplicities (exact image keys), so it permutes
    a finite set and its inverse is one of its powers.  The orbits are
    {list index of the orbit's first point: number of points in the orbit,
    multiplicity counted}, as `pair_stats` takes them.
    """
    if not points or not all(isinstance(p, Subspace) for p in points):
        return None, 0
    n = points[0].n
    try:
        actions = [IntAction(g) for g in generators]
    except ValueError:
        return None, 0
    if any(a.n != n for a in actions):
        return None, 0
    ids: Dict[tuple, int] = {}
    first: List[int] = []
    mult: List[int] = []
    for i, p in enumerate(points):
        d = ids.setdefault(p.rows, len(first))
        if d == len(first):
            first.append(i)
            mult.append(0)
        mult[d] += 1
    found, examined = UnionFind(len(first)), 0
    while found.left > 1 and examined < len(actions):
        image = [ids.get(actions[examined].key(rows)) for rows in ids]
        if (None in image or len(set(image)) < len(image)
                or [mult[e] for e in image] != mult):
            return None, 0
        examined += 1
        found.merge(image)
    orbits: Dict[int, int] = {}
    for d in range(len(first)):
        key = first[found.root(d)]
        orbits[key] = orbits.get(key, 0) + mult[d]
    return orbits, examined


# Certified orbit rows of lines and planes up to this many run the serial
# loop (`_count_rows`); with more, the full sweep (`_cross_rows`) can be
# faster.  The serial rows cost more per pair, so the crossover grows with
# the point count: with the line kernel, 6 rows on the D4 minimal lines
# (12 points), 15 on the E8 lines (120) and 82 on the BW16 lines (2160).
# Planes, with the 2 x 2 row kernel, cross over at 11 rows on the D4
# minimal planes (16), 30 on the E7 planes (336), 78 on the E8 planes
# (1120).
_SERIAL_ROWS = 6


def pair_stats(points: Sequence,
               orbits: Optional[Dict[int, int]] = None) -> PairStats:
    """The exact pair distribution over all ordered pairs; every sigma^t
    sum and zonal sum is read from it (`PairStats`).

    `points` may be Subspace instances, read in the rows they were given
    in (`Subspace._given`, else their canonical rows), or raw records: the
    left and right rows alone (`metric_rows`), or for lines and planes
    with orbit rows the full `intdata` record, whose adjugate and
    determinant the row kernel reads.  The full sweep first makes every
    point's rows orthogonal in its own metric (`_orthogonal`); the packed
    cross engine (`_cross_rows`) then counts one record per pair, its cross
    matrix and the column point's weight class, and keys each distinct
    record once.  The module docstring gives its identities, and why no key
    depends on the basis a point starts from.  Every engine runs in this
    process.

    `orbits`, {list index of a point of the orbit: its size, multiplicity
    counted}, are the orbits of a group G that permutes the points and
    keeps sigma, certified by the caller: `certified_orbits` for ambient
    generator matrices (`clifford.verify_tt`), the line union-find and the
    closure of `lattice.minimal_sections` for integer automorphisms of a
    lattice.  Then the distribution is the sum over G-orbits O of |O|
    times the row of one point of O against all points, since G permutes
    the columns of every row, and only the orbit rows are counted, if they
    count fewer pairs than the full sweep and, for lines and planes, are
    no more than `_SERIAL_ROWS`.  Lines and planes run the rows as the
    pair loop (`_count_rows`); m >= 3 runs them through the cross engine.
    With no orbits, or rows that would cost more, the full sweep runs, with
    the same result.
    """
    if not points:
        raise ValueError("pair_stats needs at least one point")
    n = len(points)
    m = points[0].m if isinstance(points[0], Subspace) else len(points[0][0])
    # n |O| ordered pairs against the full sweep's n (n - 1) / 2.
    if orbits is not None and (2 * len(orbits) >= n - 1 or
                               (m <= 2 and len(orbits) > _SERIAL_ROWS)):
        orbits = None
    if orbits is None:
        rows = ((i, i + 1, 1) for i in range(n))
    else:
        # Ordered pairs (i, j) for every j, the diagonal included.
        rows = [(i, 0, w) for i, w in orbits.items()]
    if orbits is not None and m <= 2:
        keys = _count_rows([p.int_data() if isinstance(p, Subspace) else p
                            for p in points], rows)
    else:
        # Only the rows enter, so a Subspace forms no adjugate here.
        keys = _cross_rows([_orthogonal(((r := p._given or p.rows), r)
                                        if isinstance(p, Subspace) else p)
                            for p in points], rows)
    if orbits is None:
        # Pairs i < j stand for both orders; on the diagonal every
        # principal cosine is 1.
        half, keys = keys, Counter({(m, 1, m, 1): n})
        for key, count in half.items():
            keys[key] += 2 * count
    # Distinct reduced keys are distinct rationals.
    dist = {(Fraction(a, b), Fraction(c, d)): count
            for (a, b, c, d), count in keys.items()}
    return PairStats(size=n, m=m, distribution=dist,
                     orbits=None if orbits is None else len(orbits))


class Configuration:
    """Finite multiset of equal-dimension subspaces of R^n."""

    def __init__(self, n: int, points: Sequence[Subspace]):
        points = list(points)
        if not points:
            raise ValueError("configuration must be nonempty")
        m = points[0].m
        for p in points:
            if p.n != n or p.m != m:
                raise ValueError("all points must share (m, n)")
        self.n = n
        self.m = m
        self.points = points

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def multiplicities(self) -> Dict[Subspace, int]:
        out: Dict[Subspace, int] = {}
        for p in self.points:
            out[p] = out.get(p, 0) + 1
        return out

    def deduplicated(self) -> "Configuration":
        return Configuration(self.n, list(self.multiplicities().keys()))

    def to_json_dict(self):
        return {"n": self.n, "m": self.m,
                "points": [p.to_json() for p in self.points]}

    @classmethod
    def from_json_dict(cls, data) -> "Configuration":
        n, m = data["n"], data["m"]
        if type(n) is not int or type(m) is not int:
            raise TypeError(f"n and m must be JSON integers, got {n!r}, {m!r}")
        points = [Subspace(n, json_rows(rows)) for rows in data["points"]]
        cfg = cls(n, points)
        if cfg.m != m:
            raise ValueError(f"declared m={m} but points have dimension {cfg.m}")
        return cfg


def principal_power_sums(p: Subspace, q: Subspace, tmax: int) -> List[Rational]:
    """[sum_i y_i^t for t = 1..tmax], y_i the squared principal cosines."""
    if (p.n, p.m) != (q.n, q.m):
        raise ValueError("subspaces must share (m, n)")
    if tmax < 1:
        raise ValueError("tmax must be >= 1")
    w, den = _pair_w(p.int_data(), q.int_data())
    out = []
    wp = w
    for t in range(1, tmax + 1):
        out.append(Fraction(sum(wp[a][a] for a in range(p.m)), den ** t))
        if t < tmax:
            wp = _mul_int(wp, w)
    return out


def sigma(p: Subspace, q: Subspace) -> Rational:
    """Sum of squared principal cosines between p and q."""
    return principal_power_sums(p, q, 1)[0]


def eval_zonal(mu: Partition, p: Subspace, q: Subspace) -> Rational:
    """Exact zonal polynomial value at the principal-cosine data of (p, q)."""
    poly = jacobi_p(mu, p.m, p.n)
    if mu.degree == 0:
        return Fraction(1)
    s = principal_power_sums(p, q, 2)
    return poly.evaluate_power_sums(s[0], s[1])


@dataclass(frozen=True)
class TDesignStat:
    average: Rational
    expected: Rational
    is_design: bool


@dataclass
class DesignReport:
    """Per-t sigma^t averages against their invariant values, plus the
    corroborating zonal pair sums (each must be >= 0, and exactly 0 at
    certified strengths)."""

    n: int
    m: int
    size: int
    tmax: int
    t_stats: Dict[int, TDesignStat]
    zonal_sums: Dict[str, Rational]
    # The certified group orbits the pair distribution was summed over (None
    # for the full engine); the candidate generators and those examined to
    # certify the orbits, which the caller sets; not part of the JSON.
    generators: int = 0
    orbits: Optional[int] = None
    examined: int = 0
    # (rank, square classes) of the orthogonal frame `verify_design` ran the
    # pair engine in, None when it kept the points; not part of the JSON.
    frame: Optional[Tuple[int, int]] = None

    def is_design(self, t: int) -> bool:
        return self.t_stats[t].is_design

    def strength(self) -> int:
        """Largest certified t (0 if none)."""
        best = 0
        for t in sorted(self.t_stats):
            if self.t_stats[t].is_design:
                best = t
        return best

    def to_json_dict(self):
        return {
            "n": self.n, "m": self.m, "size": self.size, "tmax": self.tmax,
            "t": {str(t): {"average": rat_str(s.average),
                           "c": rat_str(s.expected),
                           "is_design": s.is_design}
                  for t, s in self.t_stats.items()},
            "zonal_sums": {k: rat_str(v) for k, v in self.zonal_sums.items()},
        }


def _frame_coords(u, frame, mults) -> Tuple[List[int], int]:
    """(y, h): the primitive integer coordinate row y of the row u in the
    scaled frame (`_frame_data`), y_i = (u . f_i) mults_i / h, and the
    content h divided out."""
    z = [sum(map(mul, u, f)) * k for f, k in zip(frame, mults)]
    h = gcd(*z)
    return [x // h for x in z], h


def _frame_data(config: Configuration) -> tuple:
    """(data, frame): the points of `config` as the pair engine reads them,
    with frame = (rank, square classes) when they are rewritten in an exact
    orthogonal frame of their span, and the points as they are with frame
    None otherwise.

    The frame takes independent rows greedily from the rows each point was
    given in (`Subspace._given`, else its canonical rows) and makes them
    orthogonal by the fraction-free Gram-Schmidt of `_orthogonal`
    (`_reduce`), until the rank is n or the rows run out.  A frame vector
    f_i of norm N_i in the square class (`_square_classes`) with first
    norm N_G stands for e_i = f_i sqrt(N_G / N_i), a rational multiple of
    norm N_G.  A row u has the coordinates y_i = (u . f_i) / s_i in the
    e_i, s_i = sqrt(N_i N_G) an integer, taken times L = lcm(s) and
    divided by their content h; the metric is diag(N_G) over the gcd g of
    the class norms.  Every row is certified by the Bessel equality
    sum y_i^2 M_i g h^2 = |u|^2 L^2, which holds exactly when u lies in the
    frame's span; a failure raises ArithmeticError.

    sigma and sum y_i^2 do not change under an isometry, a global scale of
    the metric or the scale of a row, so every `_pair_key` is the one the
    points give.  The frame is used only when its coordinates and metric
    have fewer bits than the widest entry of the same given rows, which the
    engine reads otherwise; ties keep the points.  A rationally rotated
    configuration so returns to coordinates as small as its unrotated ones.
    """
    points = config.points
    given = [p._given or p.rows for p in points]
    frame, norms = [], []
    for u in chain.from_iterable(given):
        if len(frame) == config.n:
            break
        f, _ = _reduce(u, u, frame, frame, norms, True)
        if any(f):
            frame.append(f)
            norms.append(sum(map(mul, f, f)))
    classes = _square_classes(norms)
    first = {i: g for g, members in classes.items() for i in members}
    firsts = [first[i] for i in range(len(norms))]
    roots = [isqrt(a * b) for a, b in zip(norms, firsts)]
    scale = lcm(*roots)
    g = gcd(*classes)
    metric = [first // g for first in firsts]
    mults = [scale // s for s in roots]
    coords = []
    for rows in given:
        ys = []
        for u in rows:
            y, h = _frame_coords(u, frame, mults)
            if (sum(x * x * a for x, a in zip(y, metric)) * g * h * h
                    != sum(map(mul, u, u)) * scale * scale):
                raise ArithmeticError("a row leaves the orthogonal frame")
            ys.append(y)
        coords.append(ys)
    width = max(abs(x).bit_length() for rows in given for r in rows for x in r)
    if max(abs(x).bit_length() for ys in coords for y in ys
           for x in chain(y, metric)) >= width:
        return points, None
    r = len(frame)
    gram = [[a if i == j else 0 for j in range(r)] for i, a in enumerate(metric)]
    return [metric_rows(ys, gram) for ys in coords], (r, len(classes))


def verify_design(config: Configuration, tmax: int = 3) -> DesignReport:
    """Certify 2t-design status for each t <= tmax by exact pair averages,
    with the points in an orthogonal frame of their span when that makes
    them narrower (`_frame_data`; the report's `frame` says which).  The
    verdict constants stay those of G(m, n) for the ambient n."""
    check_design_range(config.m, config.n, tmax)
    data, frame = _frame_data(config)
    report = design_report(pair_stats(data), config.n, tmax)
    report.frame = frame
    return report


def check_design_range(m: int, n: int, tmax: int) -> None:
    """ValueError unless G(m, n) has design verdicts for t <= tmax: 1 <=
    tmax <= MAX_T and 2m <= n.  Callers that own the points check first,
    before any pair engine runs."""
    if not 1 <= tmax <= MAX_T:
        raise ValueError(f"tmax must be between 1 and {MAX_T}")
    if 2 * m > n:
        raise ValueError("design criteria require m <= n/2")


def design_report(stats: PairStats, n: int, tmax: int) -> DesignReport:
    """Design verdicts in G(m, n) for t <= tmax, read from the pair
    distribution `stats` of the points alone; m, the size and the orbits
    summed over come from `stats`.  The caller that owns the points runs
    `pair_stats` once, so its other verdicts read the same distribution.

    Equality at t forces equality at every t' < t (the sigma^t expansions
    have positive coefficients); this monotonicity, nonnegativity of every
    zonal sum and its vanishing at certified strengths are re-checked, and
    a failure raises AssertionError, also under `python -O`.
    """
    m = stats.m
    check_design_range(m, n, tmax)
    size2 = Fraction(stats.size) ** 2
    t_stats = {}
    for t in range(1, tmax + 1):
        avg = stats.sigma_sum(t) / size2
        exp = constant_c(m, n, t)
        t_stats[t] = TDesignStat(avg, exp, avg == exp)
    parts = supported_partitions(m, tmax=min(tmax, 2))
    zsums = {}
    for mu in parts:
        val = stats.zonal_sum(jacobi_p(mu, m, n))
        if val < 0:
            raise AssertionError(f"zonal positivity violated for {mu}")
        zsums[str(mu)] = val
    for t in range(2, tmax + 1):
        if t_stats[t].is_design and not t_stats[t - 1].is_design:
            raise AssertionError("design strengths must be monotone")
    for mu in parts:
        if t_stats[mu.degree].is_design and zsums[str(mu)] != 0:
            raise AssertionError("zonal sum must vanish at certified strength")
    return DesignReport(n=n, m=m, size=stats.size, tmax=tmax,
                        t_stats=t_stats, zonal_sums=zsums,
                        orbits=stats.orbits)


def zonal_positivity(config: Configuration, mu: Partition) -> Rational:
    """The exact double zonal sum over the configuration (always >= 0)."""
    if mu.degree == 0:
        return Fraction(len(config)) ** 2
    poly = jacobi_p(mu, config.m, config.n)
    return pair_stats(_frame_data(config)[0]).zonal_sum(poly)


def average_sigma_power(config: Configuration, t: int) -> Rational:
    """Exact pair average of sigma^t for arbitrary t >= 1."""
    return pair_stats(_frame_data(config)[0]).sigma_sum(t) / len(config) ** 2
