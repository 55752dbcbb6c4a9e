"""Subspaces of R^n as exact objects, configurations, and the two
design-verification criteria (zonal-sum vanishing and sigma^t pair averages).

Principal-angle data is never extracted eigenvalue by eigenvalue; only power
sums enter, via traces of small integer matrices, so every verdict stays in Q.
For subspaces p, q with integer bases B_p, B_q and Gram matrices G_p, G_q:

    tr((pi_p pi_q)^t) = tr(W^t) / (det G_p * det G_q)^t,
    W = adj(G_p) * (B_p B_q^T) * adj(G_q) * (B_q B_p^T)

which the pair engine below evaluates in pure integer arithmetic.

For m <= 2 the engine needs no per-pair loop.  With C = L_p R_q^T (the
cross matrix of the engine's left and right factors) two identities give
both traces from inner products of per-point integer vectors:

    tr W = <X_p, Y_q>,  X = L^T adj(G) L,  Y = R^T adj(G) R   (Frobenius)
    tr W^2 = (tr W)^2 - 2 det W,  det W = det G_p det G_q (det C)^2  (m = 2)

with det C = <wedge^2 L_p, wedge^2 R_q> by Cauchy-Binet on Pluecker
vectors; for lines tr W = c^2 and tr W^2 = c^4 with c = L_p . R_q.  The
lifted vectors share one scale per square class of Gram determinants (d_p
d_q a perfect square).  The first field becomes the upper half of D P_p,
with P_p the projector and D the lcm of the class's projector
denominators; the top wedge (L_p for lines, wedge^2 L_p for planes) is
divided by r_p, the rational square root of d_p / d_G for the class's
first determinant d_G; then each field is divided by its content over the
class.  This writes sigma = <P_p, P_q> (Conway, Hardin and Sloane 1996)
over a shared denominator, so pairs at one angle give equal integers.  The
decision is one per configuration: if sharing would pack a wider slot than
per-point scales, every point keeps its own scale instead.  The scales
re-enter once per pair of scales and distinct value, when the pair is
keyed.

For m >= 3 each point's rows are first made orthogonal in the record's own
metric by a fraction-free Gram-Schmidt (integer only, content divided out
at each step; `_orthogonal`).  A Subspace hands over the rows it was given
in, as primitive integer rows, when they are m independent rows, and its
canonical rows otherwise: Gram-Schmidt about doubles the bit size of a
basis far from orthogonal, such as RREF rows of a rotated space, and keeps
an orthogonal one as it is.  The new rows u_a, v_a have a diagonal Gram
g_a, so adj(G) / det G becomes diag(w) / l with l = lcm(g) and weights
w_a = l / g_a.  With the cross entries C_ab = u_a(p) . v_b(q):

    H_ac = sum_b w'_b C_ab C_cb,  tr W = sum_a w_a H_aa,
    tr W^2 = sum_{a,c} w_a w_c H_ac^2,  den = l_p l_q

for W = diag(w) C diag(w') C^T.  With new bases T_p B_p and T_q B_q this
W / den is T_p^-T (W / den of the old bases) T_p^T, a similar matrix, so
tr W / den = sigma and tr W^2 / den^2 = sum y_i^2 are unchanged and so is
every pair key, whichever basis a point starts from.

Every count site keys a pair by `_pair_key`: sigma = tr W / den and
sum y_i^2 = tr W^2 / den^2 as gcd-reduced integer numerators and
denominators.  Pairs at one angle share one key however their Gram
determinants differ, so the counters hold one entry per angle class and
Fractions are built once per class, never per pair.

The inner products are taken a block at a time by packing (Kronecker
substitution): for a block of column points and each coordinate k, one
Python integer holds y_j[k] in slot j of s bits, so one multiply-add per
coordinate, sum_k x[k] * col_k + 2^(s-1) * ones, yields x . y_j + 2^(s-1)
in every slot.  The slot width comes from the exact Hoelder (Cauchy-Schwarz)
bound |x . y| <= isqrt(max|x|^2 max|y|^2) < 2^(s-1), so no slot carries into
the next and every count is exact.  Planes pack tr W and det C, and every
slot also holds its column point's class, so one integer per pair is
counted: pairs at one angle between two classes share one slot, which
`Counter.update` counts in C and which is decoded and keyed once.  For
m >= 3 the columns are the m rows v_b of each point, so each row u_a of a
point gives its C_ab against a whole block at once.

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
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import add, itemgetter, mul, neg
from struct import calcsize
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

    For m >= 3 a point built from m independent rows other than `rows` also
    keeps them, as primitive integer rows (`_given`), for the pair engine
    alone: sigma does not depend on the basis, and a given basis is often
    far smaller after Gram-Schmidt than the RREF one (an orthogonal one
    stays as it is).  Nothing else reads them.
    """

    __slots__ = ("n", "m", "rows", "_given", "_basis", "_intdata")

    def __init__(self, n: int, rows, *, allow_dependent: bool = False):
        if isinstance(rows, RatMatrix):
            rows = rows.entries
        rows = list(rows)
        if (len(rows) == 1 and len(rows[0]) == n and any(rows[0])
                and all(type(x) is int for x in rows[0])):
            # One nonzero integer row: its line's canonical row.
            canon = (line_key(rows[0]),)
            given = None
        else:
            ints = tuple(primitive_int_row(r) for r in rows)
            for r in ints:
                if len(r) != n:
                    raise ValueError(f"rows have {len(r)} columns, ambient is {n}")
            canon = int_rref(ints, n)
            if not allow_dependent and len(canon) != len(ints):
                raise ValueError("basis rows are linearly dependent")
            given = (ints if len(canon) >= 3 and len(ints) == len(canon)
                     and ints != canon else None)
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

        The pair engine forms cross matrices as left_i @ right_j^T; for
        ambient subspaces both factors are the canonical integer rows.
        """
        if self._intdata is None:
            self._intdata = intdata(self.rows, self.rows)
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
    the record the pair engine reads for m <= 2."""
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
    left and right rows of `intdata_from_coords`, all that the m >= 3 pair
    engine reads, with no Gram adjugate formed.  G is symmetric, so entry
    b of G y^T is row b of G dotted with y."""
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
    """Exact sums over all ordered point pairs of a configuration."""

    size: int
    m: int
    sigma_pow: Dict[int, Rational]   # t -> sum of sigma^t, t = 1..max(tmax, 3)
    # (sigma, sum(y_i^2)) -> number of ordered pairs, the diagonal included;
    # one entry per distinct `_pair_key` of the count sites.
    distribution: Dict[Tuple[Rational, Rational], int]
    # The number of certified group orbits when the orbit identity was used.
    orbits: Optional[int] = None

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
    row spec (i, start, weight), each counted weight times.

    For planes a pair takes the 4 dot products of C = L_p R_q^T and then
    only 2 x 2 integer arithmetic: tr W = <adj(G_p) C adj(G_q), C>
    (Frobenius) and tr W^2 = (tr W)^2 - 2 det G_p det G_q (det C)^2 (module
    docstring), the values `_pair_w` gives.  Other m run `_pair_w`."""
    counts = Counter()
    n = len(data)
    m = len(data[0][0])
    if m == 2:
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
    rng = range(m)
    for i, start, weight in rows:
        di = data[i]
        for j in range(start, n):
            w, den = _pair_w(di, data[j])
            key = _pair_key(sum(w[a][a] for a in rng),
                            sum(w[a][b] * w[b][a] for a in rng for b in rng),
                            den)
            counts[key] = counts.get(key, 0) + weight
    return counts


# Bytes of column slots per packed integer, so that one multiply-add costs
# about the same whatever the slot width: 2048 one-byte slots, 512 of four
# bytes, 85 of 24.  The block a row starts in is computed whole but read
# only to the right of the row, so wide slots waste less in fewer points.
_BLOCK_BYTES = 2048
# memoryview formats by native item width in bits.
_SLOT_FORMATS = {8 * calcsize(c): c for c in "BHIQ"}


def _slot_layout(xnorms, ynorms, classes: int) -> Tuple[List[int], int]:
    """(bits per field, slot width in bits) for row and column vectors of
    squared lengths at most xnorms[f] and ynorms[f], with `classes` column
    classes above the fields.  By Hoelder with p = q = 2, |x . y|^2 <=
    |x|^2 |y|^2, so x . y + 2^(bits - 1) fits in its bits."""
    bits = [isqrt(a * b).bit_length() + 1 for a, b in zip(xnorms, ynorms)]
    need = sum(bits) + (classes - 1).bit_length()
    fits = [w for w in sorted(_SLOT_FORMATS) if w >= need]
    return bits, fits[0] if fits else -(-need // 8) * 8


def _pack(values, nbytes: int) -> int:
    """sum_j values[j] * 2^(8 * nbytes * j) for 0 <= values[j] < 2^(8 * nbytes)."""
    return int.from_bytes(b"".join(v.to_bytes(nbytes, "little") for v in values),
                          "little")


class _PackedColumns:
    """Column points packed so that one multiply-add per coordinate gives a
    row's inner products with a whole block of them.

    Each point carries one integer vector per field and a class index, the
    index of its scale (`_shared_scales`: one per square class of Gram
    determinants, or one per point throughout the configuration if sharing
    would widen the slot).
    Slot j of sum_k x[k] * col_k + base holds, for each field f,
    x_f . y_f(j) + 2^(bits_f - 1) in bits [shift_f, shift_f + bits_f), and
    class j above the fields, so a row's pairs at equal values against one
    class give equal slots.  Over the rows the engine will use,
    |x_f . y_f| <= max|x_f| max|y_f| < 2^(bits_f - 1) (Euclidean norms), so
    each field stays in its bits.  A block holds whole groups of `group`
    consecutive columns, so a point's m columns share one block.
    """

    def __init__(self, fields, classes: Sequence[int], group: int = 1):
        bits, width = _slot_layout(
            [max(sum(v * v for v in x) for x in xs) for xs, _ in fields],
            [max(sum(v * v for v in y) for y in ys) for _, ys in fields],
            max(classes) + 1)
        self.fields = []                 # (shift, bits) per field
        shift = 0
        for b in bits:
            self.fields.append((shift, b))
            shift += b
        self.class_shift = shift
        self.nbytes = nb = width // 8
        # Slots read in place as native integers on little-endian hosts.
        self.fmt = _SLOT_FORMATS.get(width) if sys.byteorder == "little" else None
        # Some x is nonzero, so |y[k]| < 2^(bits_f - 1): y << shift_f + half
        # packs without a sign.
        half = 1 << (width - 1)
        offsets = sum(1 << (sh + bits - 1) for sh, bits in self.fields)
        self.per_block = per_block = max(1, _BLOCK_BYTES // (nb * group)) * group
        self.blocks = []
        for j0 in range(0, len(classes), per_block):
            block = classes[j0:j0 + per_block]
            halves = _pack([half] * len(block), nb)
            cols = [_pack([(v << sh) + half for v in col], nb) - halves
                    for (_, ys), (sh, _) in zip(fields, self.fields)
                    for col in zip(*ys[j0:j0 + per_block])]
            base = _pack([offsets + (c << shift) for c in block], nb)
            self.blocks.append((j0, cols, base, len(block)))

    def row(self, x, start: int):
        """The slots of columns j >= start, one sequence per block; x is the
        row's field vectors concatenated."""
        nb = self.nbytes
        for j0, cols, base, size in self.blocks[start // self.per_block:]:
            raw = sum(map(mul, x, cols), base).to_bytes(size * nb, "little")
            lo = max(start - j0, 0)
            if self.fmt:
                yield memoryview(raw).cast(self.fmt)[lo:]
            else:
                yield [int.from_bytes(raw[o:o + nb], "little")
                       for o in range(lo * nb, size * nb, nb)]

    def decode(self, slot: int) -> Tuple[int, List[int]]:
        """(class, field values) of a slot."""
        return slot >> self.class_shift, [
            ((slot >> sh) & ((1 << bits) - 1)) - (1 << (bits - 1))
            for sh, bits in self.fields]


def _packed_pairs(fields, row_keys, col_keys):
    """(row_keys[i], col_keys[j], values, count) over pairs i < j, values
    the inner products x_f(i) . y_f(j) of every field f = (xs, ys)."""
    classes: Dict = {}
    packed = _PackedColumns(fields, [classes.setdefault(k, len(classes))
                                     for k in col_keys])
    by_row = defaultdict(Counter)
    for i in range(len(row_keys) - 1):
        x = [v for xs, _ in fields for v in xs[i]]
        counter = by_row[row_keys[i]]
        for slots in packed.row(x, i + 1):
            counter.update(slots)
    kinds = list(classes)
    for key, counter in by_row.items():
        for slot, k in counter.items():
            cls, values = packed.decode(slot)
            yield key, kinds[cls], values, k


def _packed_counts(data) -> Counter:
    """`_count_rows` over all pairs i < j for m <= 2, from packed inner
    products: each distinct slot is decoded once and keyed by `_pair_key`.

    Every field is scaled per square class of Gram determinants, or per
    point when that packs a narrower slot, one decision for the whole
    configuration (`_shared_scales`).  Within a class pairs at one angle
    share one slot, and the scales re-enter once per slot, with its row and
    column classes, before the pair is keyed.  Needs the cross matrices
    symmetric in the pair (L_p R_q^T = (L_q R_p^T)^T), as for all data from
    `Subspace.int_data` and `intdata_from_coords`, and every det G > 0.
    """
    counts = Counter()
    if len(data) < 2:
        return counts
    if len(data[0][0]) == 1:
        # Lines: the top wedge is the line vector itself.
        rows = [[left[0]] for left, _, _, _ in data]
        cols = [[right[0]] for _, right, _, _ in data]
    else:
        rows = [[_plane_lift(left, adj, 2), _pluecker(left)]
                for left, _, adj, _ in data]
        cols = [[_plane_lift(right, adj, 1), _pluecker(right)]
                for _, right, adj, _ in data]
    (xs, row_keys), (ys, col_keys) = _shared_scales(
        [rows, cols], [d for _, _, _, d in data])
    fields = [([x[f] for x in xs], [y[f] for y in ys])
              for f in range(len(rows[0]))]
    for (dg, row), (dh, col), values, k in _packed_pairs(fields, row_keys,
                                                         col_keys):
        # e / f = <top_p / sqrt d_p, top_q / sqrt d_q>^2: c^2 / den = sigma
        # for lines (c = L_p . R_q), (det C)^2 / den for planes, with
        # det C = <wedge^2 L_p, wedge^2 R_q>.
        (kp, mp), (kq, mq) = row[-1], col[-1]
        e, f = (values[-1] * kp * kq) ** 2, (mp * mq) ** 2 * dg * dh
        if len(values) == 1:
            counts[_pair_key(e, e * e, f)] += k
            continue
        # Planes: sigma = tr W / den = <X_p / d_p, Y_q / d_q> = a / b, and
        # sum y_i^2 = tr W^2 / den^2 = sigma^2 - 2 (det C)^2 / den.
        (kp, mp), (kq, mq) = row[0], col[0]
        a, b = values[0] * kp * kq, mp * mq
        counts[_pair_key(a * f, f * (a * a * f - 2 * e * b * b), b * f)] += k
    return counts


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
        for ub, vb, gb in zip(us, vs, gs):
            c = sum(map(mul, u, vb))
            if c:
                u = [gb * x - c * y for x, y in zip(u, ub)]
                v = u if same else [gb * x - c * y for x, y in zip(v, vb)]
                h = gcd(*u) if same else gcd(*u, *v)
                if h > 1:
                    u = [x // h for x in u]
                    v = u if same else [x // h for x in v]
        us.append(u)
        vs.append(v)
        gs.append(sum(map(mul, u, v)))
    scale = lcm(*gs)
    return us, vs, [scale // g for g in gs], scale


def _cross_rows(orth, rows) -> Counter:
    """`_count_rows` for the records `orth` (`_orthogonal`), from packed
    cross entries C_ab = u_a(p) . v_b(q).

    Column (q, b) holds v_b(q), so one multiply-add per coordinate gives
    C_ab against a block of points for each row a of p; each pair then
    takes H, tr W and tr W^2 by the identities of the module docstring and
    `_pair_key` gives the loop's keys.  Needs U_q V_p^T = (U_p V_q^T)^T, a
    symmetric metric, as for all data from `Subspace.int_data` and
    `intdata_from_coords`.
    """
    counts = Counter()
    n = len(orth)
    m = len(orth[0][2])
    packed = _PackedColumns([([u for us, _, _, _ in orth for u in us],
                              [v for _, vs, _, _ in orth for v in vs])],
                            [0] * (n * m), m)
    off = 1 << (packed.fields[0][1] - 1)
    # H's diagonal first, then its upper triangle.
    tri = ([(a, a) for a in range(m)]
           + [(a, c) for a in range(m) for c in range(a + 1, m)])
    first, second = [a for a, _ in tri], [c for _, c in tri]
    for i, start, weight in rows:
        if start >= n:
            continue
        us, _, wp, lp = orth[i]
        # w_a w_c, counted twice off the diagonal.
        ww = [wp[a] * wp[c] * (1 + (a < c)) for a, c in tri]
        q = start
        for block in zip(*(packed.row(u, start * m) for u in us)):
            vals = [[x - off for x in slots] for slots in block]
            for k in range(0, len(vals[0]), m):
                cr = [v[k:k + m] for v in vals]
                _, _, wq, lq = orth[q]
                q += 1
                x = [list(map(mul, row, wq)) for row in cr]
                h = list(map(sum, map(map, repeat(mul), map(x.__getitem__, first),
                                      map(cr.__getitem__, second))))
                key = _pair_key(sum(map(mul, wp, h)),
                                sum(map(mul, ww, map(mul, h, h))), lp * lq)
                counts[key] = counts.get(key, 0) + weight
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


def _shared_scales(sides, dets):
    """One (vectors, scales) pair per side of the packed engine, from one
    decision per configuration: each square class of points
    (`_square_classes`) shares one scale, unless that packs a wider slot
    than per-point scales (`_slot_layout` on both; ties go to sharing), and
    then every point keeps its own.

    `sides[s][p]` holds point p's integer field vectors on side s (rows,
    columns): its projector field (value v / d_p) first for planes, its top
    wedge (value v / sqrt d_p) last.  Point p of a class with first
    determinant d_G gets the integer vectors `vectors[p]` and the scale
    (d_G, ((k, D) per field)): its projector field is vectors[p][0] * k / D,
    its top wedge vectors[p][-1] * k / (D sqrt d_G).  Since d_p / d_G = r_p^2
    is a rational square, the top wedge is taken as v / r_p.  D is the lcm
    of the class's denominators and k the content of the scaled field over
    the class, so equal values give equal vectors.

    A point's own scale is that form for a class of one point: with g_f the
    content of field f, (d_p, ((g_0 / h, d_p / h), (g_1, 1))) for planes,
    h = gcd(g_0, d_p), and (d_p, ((g, 1),)) for lines.
    """
    prims = [[[_content(v) for v in lift] for lift in side] for side in sides]
    vectors = [[[v for v, _ in point] for point in prim] for prim in prims]
    wedge = len(sides[0][0]) - 1
    classes = _square_classes(dets)
    # Per side and point: (multiplier per field, the class's scale).
    shared = [[None] * len(dets) for _ in sides]
    for prim, out in zip(prims, shared):
        for dg, points in classes.items():
            mults, scale = [], []
            for f in range(wedge + 1):
                fracs = []
                for p in points:
                    num, den = prim[p][f][1], dets[p]
                    if f == wedge:
                        # 1 / r_p = d_G / sqrt(d_p d_G), an exact root in a class
                        num, den = num * dg, isqrt(den * dg)
                    h = gcd(num, den)
                    fracs.append((num // h, den // h))
                big = lcm(*(den for _, den in fracs))
                m = [num * (big // den) for num, den in fracs]
                k = gcd(*m)
                mults.append([x // k for x in m])
                scale.append((k, big))
            for p, ms in zip(points, zip(*mults)):
                out[p] = ms, (dg, tuple(scale))
    if any(x != 1 for side in shared for ms, _ in side for x in ms):
        # Lengths are read only here: with every multiplier 1 the shared
        # slot packs the per-point vectors in no more column classes.
        lengths = [[[sum(map(mul, v, v)) for v in point] for point in side]
                   for side in vectors]
        grown = [[[n * x * x for n, x in zip(point, ms)]
                  for point, (ms, _) in zip(side, found)]
                 for side, found in zip(lengths, shared)]
        own = [[(d, tuple((g, 1) if f == wedge else
                          (g // gcd(g, d), d // gcd(g, d))
                          for f, (_, g) in enumerate(point)))
                for d, point in zip(dets, prim)] for prim in prims]

        def width(norms, keys):
            return _slot_layout(*([max(f) for f in zip(*side)] for side in norms),
                                len(set(keys)))[1]

        if width(grown, [key for _, key in shared[1]]) > width(lengths, own[1]):
            return list(zip(vectors, own))
        vectors = [[[v if x == 1 else [x * y for y in v]
                     for v, x in zip(point, ms)]
                    for point, (ms, _) in zip(side, found)]
                   for side, found in zip(vectors, shared)]
    return [(side, [key for _, key in found])
            for side, found in zip(vectors, shared)]


def _content(vec) -> Tuple[List[int], int]:
    """(vec / g, g) with g the gcd of the entries (1 for a zero vector)."""
    g = gcd(*vec)
    return (vec, 1) if g < 2 else ([v // g for v in vec], g)


def _plane_lift(rows, adj, off_diagonal: int) -> List[int]:
    """Upper half of rows^T adj rows, off-diagonal entries times
    `off_diagonal`."""
    full = adj_product(rows, adj, rows)
    return [row[l] * (off_diagonal if k < l else 1)
            for k, row in enumerate(full) for l in range(k, len(row))]


def _pluecker(rows) -> List[int]:
    """The 2x2 minors of two rows."""
    p, q = rows
    n = len(p)
    return [p[k] * q[l] - p[l] * q[k] for k in range(n) for l in range(k + 1, n)]


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
        with canonical rows `rows`."""
        if len(rows) == 1:
            return (line_key(self.image(rows[0])),)
        return int_rref([self.image(r) for r in rows], self.n)


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
# loop (`_count_rows`); with more, the packed full engine can be faster.
# The serial rows cost more per pair, so the crossover grows with the point
# count: 6 rows on the D4 and E8 minimal lines (12 and 120 points), 35 on
# the BW16 minimal lines (2160).  Planes, with the 2 x 2 row kernel, cross
# over later: 22 rows on the D4 minimal planes (16), 45 on the E7 planes
# (336), 74 on the E8 planes (1120).
_SERIAL_ROWS = 6


def pair_stats(points: Sequence, tmax: int = 3,
               orbits: Optional[Dict[int, int]] = None) -> PairStats:
    """The exact pair distribution and its sigma-power totals over all
    ordered pairs.

    `points` may be Subspace instances or raw int-data tuples; for m >= 3
    only their left and right rows are read (`metric_rows`).  Lines and
    planes take the packed engine (`_packed_counts`).  For m >= 3 every
    point's rows are first made orthogonal in its own metric
    (`_orthogonal`), from the rows a Subspace was given in when it keeps
    them (`Subspace._given`) and its canonical rows otherwise, and the
    packed cross engine (`_cross_rows`) keys every pair.  The module
    docstring gives both engines' identities, and why no key depends on
    the basis a point starts from.  Every engine runs in this process.

    `orbits`, {list index of a point of the orbit: its size, multiplicity
    counted}, are the orbits of a group G that permutes the points and
    keeps sigma, certified by the caller: `certified_orbits` for ambient
    generator matrices (`clifford.verify_tt`), the line union-find and the
    closure of `lattice.minimal_sections` for integer automorphisms of a
    lattice.  Then the distribution is the sum over G-orbits O of |O|
    times the row of one point of O against all points, since G permutes
    the columns of every row, and only the orbit rows are counted, if they
    count fewer pairs than the full engine and, for lines and planes, are
    no more than `_SERIAL_ROWS`.  Lines and planes run the rows as the
    pair loop (packing would first lift every point, which costs more than
    a few rows); m >= 3 runs them through the cross engine.  With no
    orbits, or rows that would cost more, the full engine runs, with the
    same result.
    """
    if not points:
        raise ValueError("pair_stats needs at least one point")
    n = len(points)
    m = points[0].m if isinstance(points[0], Subspace) else len(points[0][0])
    if m >= 3:
        # Only the rows enter, so a Subspace forms no adjugate here.
        data = [_orthogonal(((r := p._given or p.rows), r)
                            if isinstance(p, Subspace) else p)
                for p in points]
    else:
        data = [p.int_data() if isinstance(p, Subspace) else p for p in points]
    # n |O| ordered pairs against the full engine's n (n - 1) / 2.
    if orbits is not None and (2 * len(orbits) >= n - 1 or
                               (m <= 2 and len(orbits) > _SERIAL_ROWS)):
        orbits = None
    if orbits is not None:
        # Ordered pairs (i, j) for every j, the diagonal included.
        rows = [(i, 0, w) for i, w in orbits.items()]
        keys = _count_rows(data, rows) if m <= 2 else _cross_rows(data, rows)
    else:
        half = (_packed_counts(data) if m <= 2 else
                _cross_rows(data, ((i, i + 1, 1) for i in range(n))))
        # Pairs i < j stand for both orders; on the diagonal every principal
        # cosine is 1.
        keys = Counter({(m, 1, m, 1): n})
        for key, count in half.items():
            keys[key] += 2 * count
    # Distinct reduced keys are distinct rationals.
    dist = {(Fraction(a, b), Fraction(c, d)): count
            for (a, b, c, d), count in keys.items()}
    sums = {t: sum(c * s ** t for (s, _), c in dist.items())
            for t in range(1, max(tmax, 3) + 1)}
    return PairStats(size=n, m=m, sigma_pow=sums, distribution=dist,
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


def verify_design(config: Configuration, tmax: int = 3) -> DesignReport:
    """Certify 2t-design status for each t <= tmax by exact pair averages."""
    return design_report(config.points, config.m, config.n, tmax)


def design_report(data: Sequence, m: int, n: int, tmax: int,
                  orbits=None) -> DesignReport:
    """Design verdicts for the points `data` in G(m, n), Subspace instances
    or their pair-engine data; `orbits`, certified by the caller, go to
    `pair_stats`.

    Equality at t forces equality at every t' < t (the sigma^t expansions
    have positive coefficients); this monotonicity, nonnegativity of every
    zonal sum and its vanishing at certified strengths are re-checked, and
    a failure raises AssertionError, also under `python -O`.
    """
    if not 1 <= tmax <= MAX_T:
        raise ValueError(f"tmax must be between 1 and {MAX_T}")
    if 2 * m > n:
        raise ValueError("design criteria require m <= n/2")
    stats = pair_stats(data, tmax=tmax, orbits=orbits)
    size2 = Fraction(len(data)) ** 2
    t_stats = {}
    for t in range(1, tmax + 1):
        avg = stats.sigma_pow[t] / size2
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
    return DesignReport(n=n, m=m, size=len(data), tmax=tmax,
                        t_stats=t_stats, zonal_sums=zsums,
                        orbits=stats.orbits)


def zonal_positivity(config: Configuration, mu: Partition) -> Rational:
    """The exact double zonal sum over the configuration (always >= 0)."""
    if mu.degree == 0:
        return Fraction(len(config)) ** 2
    poly = jacobi_p(mu, config.m, config.n)
    return pair_stats(config.points, tmax=2).zonal_sum(poly)


def average_sigma_power(config: Configuration, t: int) -> Rational:
    """Exact pair average of sigma^t for arbitrary t >= 1."""
    stats = pair_stats(config.points, tmax=t)
    return stats.sigma_pow[t] / len(config) ** 2
