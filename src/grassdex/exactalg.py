"""Exact linear algebra over the rationals and over GF(2).

Everything downstream (subspaces, lattices, design certificates) is built on
the primitives here.  All verdict arithmetic is exact: entries are
`fractions.Fraction`, never floats.  Q is the only field: the Clifford
rotation H = S (x) I / sqrt 2 acts on subspaces as the integer matrix S (x) I
does, so no extension of Q is needed.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

Rational = Fraction


def rat(x) -> Fraction:
    """Coerce ints, 'p/q' or decimal strings and Fractions to an exact
    Fraction; bools and floats raise TypeError.  A malformed string, a zero
    denominator or a decimal exponent past sys.get_int_max_str_digits()
    (10**e costs superlinear time, as a long digit string would) raises
    ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise TypeError(f"not an exact rational: {x!r}")
    if isinstance(x, str) and ("e" in x or "E" in x):
        limit = sys.get_int_max_str_digits()
        exp = x.replace("E", "e").rpartition("e")[2]
        if limit and exp.strip().lstrip("+-").replace("_", "").isdecimal() \
                and abs(int(exp)) > limit:
            raise ValueError(f"decimal exponent past {limit} in {x[:40]!r}")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def rat_str(x: Fraction) -> str:
    """Render as 'p/q', or 'p' when the denominator is 1."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class RatMatrix:
    """Immutable dense matrix of exact rationals (Fractions); ints and
    'p/q' strings are coerced on entry."""

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, rows):
        self._rows = tuple(tuple(rat(x) for x in row) for row in rows)
        self.rows = len(self._rows)
        self.cols = len(self._rows[0]) if self._rows else 0
        if any(len(r) != self.cols for r in self._rows):
            raise ValueError("ragged rows")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r: int, c: int) -> "RatMatrix":
        zero = Fraction(0)
        return cls([[zero] * c for _ in range(r)])

    @classmethod
    def diagonal(cls, values) -> "RatMatrix":
        values = [rat(v) for v in values]
        n = len(values)
        zero = Fraction(0)
        return cls([[values[i] if i == j else zero for j in range(n)] for i in range(n)])

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i][j]

    def row(self, i):
        return self._rows[i]

    @property
    def entries(self):
        return self._rows

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return RatMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self._rows, other._rows)])

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix([[c * a for a in r] for r in self._rows])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other._rows))
        return RatMatrix([[sum(map(mul, ra, cb)) for cb in bt] for ra in self._rows])

    def transpose(self) -> "RatMatrix":
        return RatMatrix(list(zip(*self._rows))) if self._rows else RatMatrix([])

    def trace(self):
        if not self.is_square:
            raise ValueError("trace of non-square matrix")
        return sum((self._rows[i][i] for i in range(self.rows)), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        body = "; ".join(" ".join(map(rat_str, row)) for row in self._rows)
        return f"RatMatrix[{body}]"

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return [[rat_str(x) for x in row] for row in self._rows]

    @classmethod
    def from_json(cls, data) -> "RatMatrix":
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise TypeError("a matrix must be a JSON list of rows")
        return cls(data)


def rref(m: RatMatrix):
    """Reduced row echelon form.

    Returns (R, pivots, rank); R is the unique RREF with the same row space,
    read off `int_rref` of the rows scaled to integers, with the zero rows
    last.
    """
    canon = int_rref([primitive_int_row(r) for r in m.entries], m.cols)
    zero = [Fraction(0)] * m.cols
    rows = pivot_rows(canon) + [zero] * (m.rows - len(canon))
    pivots = tuple(next(c for c, x in enumerate(r) if x) for r in canon)
    return RatMatrix(rows), pivots, len(pivots)


def rank(m: RatMatrix) -> int:
    return rref(m)[2]


def det(m: RatMatrix):
    """Exact determinant of a rational matrix: each row is scaled to
    integers by the lcm of its denominators, and `int_det` of the scaled
    rows is divided back.  An irrational entry raises ValueError."""
    if not m.is_square:
        raise ValueError("determinant of non-square matrix")
    if m.rows == 0:
        return Fraction(1)
    rows = []
    scale = 1
    for row in m.entries:
        den = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return Fraction(int_det(rows), scale)


def int_det(a) -> int:
    """Determinant of a square integer matrix (Bareiss); overwrites `a`."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pr is None:
                return 0
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ri, rk = a[i], a[k]
            for j in range(k + 1, n):
                ri[j] = (pk * ri[j] - aik * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def trace_pow(m: RatMatrix, t: int):
    """tr(M^t), exact; t must be >= 1."""
    if not m.is_square:
        raise ValueError("trace_pow of non-square matrix")
    if t < 1:
        raise ValueError("t must be >= 1")
    acc = m
    for _ in range(t - 1):
        acc = acc @ m
    return acc.trace()


def inverse(m: RatMatrix) -> RatMatrix:
    if not m.is_square:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    aug = RatMatrix([list(m.row(i)) + list(RatMatrix.identity(n).row(i)) for i in range(n)])
    r, piv, rk = rref(aug)
    if rk < n or piv[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return RatMatrix([r.row(i)[n:] for i in range(n)])


def solve_linear(a: RatMatrix, b) -> list:
    """Solve A x = b for square invertible A; b is a sequence."""
    inv = inverse(a)
    return [sum(map(mul, inv.row(i), b)) for i in range(a.rows)]


def null_space(m: RatMatrix) -> RatMatrix:
    """Basis (rows) of {x : M x^T = 0}."""
    r, piv, rk = rref(m)
    free = [c for c in range(m.cols) if c not in piv]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv):
            v[pc] = -r[i, fc]
        basis.append(v)
    return RatMatrix(basis) if basis else RatMatrix.zeros(0, m.cols)


def adjugate(mat) -> tuple:
    """Adjugate of a square integer matrix, adj(M) M = det(M) I, as row tuples."""
    m = len(mat)
    if m == 1:
        return ((1,),)
    if m == 2:
        return ((mat[1][1], -mat[0][1]), (-mat[1][0], mat[0][0]))
    adj = []
    for i in range(m):
        row = []
        for j in range(m):
            minor = [[mat[r][c] for c in range(m) if c != i]
                     for r in range(m) if r != j]
            v = int_det(minor)
            row.append(v if (i + j) % 2 == 0 else -v)
        adj.append(tuple(row))
    return tuple(adj)


# -- integer matrices (lattice plumbing) -----------------------------------


def _echelon(mat, ncols: int):
    """Integer row echelon form of `mat` on its first `ncols` columns, in
    place, by Euclidean elimination below each pivot; returns the pivot
    columns.  Rows from len(pivots) on vanish on those columns."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        for i in range(r + 1, len(mat)):
            while mat[i][c] != 0:
                q = mat[r][c] // mat[i][c]
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[i])]
                mat[r], mat[i] = mat[i], mat[r]
        pivots.append(c)
    return pivots


def hnf(rows):
    """Row-style Hermite normal form of integer rows.

    Returns the nonzero rows: pivot entries positive, entries above a pivot
    reduced into [0, pivot).  The row span over Z is preserved.
    """
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return []
    pivots = _echelon(mat, len(mat[0]))
    for r, c in enumerate(pivots):
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
    return [tuple(row) for row in mat[:len(pivots)]]


def int_left_kernel(rows, ncols=None):
    """Primitive basis of {x in Z^m : x . M = 0} for integer rows M.

    The returned rows span the full (saturated) kernel lattice.
    """
    mat = [list(map(int, r)) for r in rows]
    m = len(mat)
    if m == 0:
        return []
    n = ncols if ncols is not None else len(mat[0])
    aug = [mat[i] + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    rank = len(_echelon(aug, n))
    return [tuple(row[n:]) for row in aug[rank:]]


def saturate_rows(rows, ncols):
    """Basis of Z^n intersected with the Q-span of the given integer rows."""
    # Integer basis of the orthogonal complement {z : Y z = 0}, then the
    # lattice of integer vectors orthogonal to it.
    comp = int_left_kernel(list(zip(*rows)), ncols=len(rows))
    if not comp:
        return [tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)]
    return int_left_kernel(list(zip(*comp)), ncols=len(comp))


def primitive_int_row(row):
    """Scale a rational row to a primitive integer row (gcd 1, same line).

    Entries may be ints, Fractions or 'p/q' strings; anything else raises
    TypeError.
    """
    fracs = [_rational_entry(x) for x in row]
    den = lcm(*(x.denominator for x in fracs))
    ints = [x.numerator * (den // x.denominator) for x in fracs]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def _rational_entry(x):
    """x as an int or Fraction; ints pass through unconverted."""
    if isinstance(x, (int, Fraction)):
        return x
    return rat(x)


def int_rref(rows, ncols: int):
    """Integer canonical form of the rational row space of integer rows.

    Row i of the result is row i of the reduced row echelon form over Q,
    scaled to a primitive integer row with a positive pivot.
    Fraction-free Gauss-Jordan: each step p * row_i - a * row_r is divided
    by its content, so no Fraction is formed and entries stay primitive.
    A row that vanishes on every other pivot column is a multiple of the
    RREF row, which makes the result the unique canonical form.
    """
    mat = [list(r) for r in rows if any(r)]
    nr = len(mat)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(nr):
            a = mat[i][c]
            if a and i != r:
                row = [p * x - a * y for x, y in zip(mat[i], prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    out = []
    for row, c in zip(mat, pivots):
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        out.append(tuple(x // g for x in row))
    return tuple(out)


def pivot_rows(rows):
    """The RREF rows over Q of `int_rref` output: each row divided by its
    pivot, as Fraction lists."""
    out = []
    for row in rows:
        pivot = next(filter(None, row))
        out.append([Fraction(x, pivot) for x in row])
    return out


# -- GF(2) row words: bit j of a word is column j ---------------------------


def bit_rref(words):
    """RREF over GF(2); returns (canonical word tuple, pivot columns).

    Each word is reduced by the rows so far; a nonzero remainder becomes a
    row whose pivot is its lowest set bit, and is added to every row having
    that bit.  Rows stay zero on each other's pivots and below their own,
    and are returned sorted by pivot.
    """
    rows = {}                   # pivot bit -> row
    for w in words:
        w = int(w)
        for bit, r in rows.items():
            if w & bit:
                w ^= r
        if w:
            low = w & -w
            for bit, r in rows.items():
                if r & low:
                    rows[bit] = r ^ w
            rows[low] = w
    order = sorted(rows)
    return tuple(rows[b] for b in order), tuple(b.bit_length() - 1 for b in order)


def bit_span(words):
    """All GF(2) combinations of the given row words (includes 0)."""
    span = [0]
    for w in words:
        span += [s ^ w for s in span]
    return span


def bit_subspaces(cols, dim, admissible=None):
    """Canonical `bit_rref` word tuples of the dim-dimensional subspaces of
    F_2^cols, sorted; `admissible(rows, v)` may veto appending row v.

    Canonical augmentation (McKay 1998): a canonical basis minus its last
    row is its parent's canonical basis, so each subspace is generated once,
    from its parent plus a row v whose lowest set bit lies above the parent's
    last pivot in a column where every parent row is zero (v is then zero on
    the parent's pivots).  A veto prunes the whole subtree: a subspace is
    listed only when each row of its canonical basis is admissible after
    the rows before it.
    """
    level = [()]
    for _ in range(dim):
        nxt = []
        for rows in level:
            used = 0
            for r in rows:
                used |= r
            start = (rows[-1] & -rows[-1]).bit_length() if rows else 0
            for p in range(start, cols):
                if (used >> p) & 1:
                    continue
                for high in range(1 << (cols - p - 1)):
                    v = (1 | (high << 1)) << p
                    if admissible is None or admissible(rows, v):
                        nxt.append(rows + (v,))
        level = nxt
    return sorted(level)


def bit_solve(basis_words, pivots, target):
    """Coefficients of `target` over an RREF basis, or None if outside."""
    coeffs = 0
    t = int(target)
    for i, (w, p) in enumerate(zip(basis_words, pivots)):
        if (t >> p) & 1:
            t ^= w
            coeffs |= 1 << i
    return coeffs if t == 0 else None


# -- exact linear feasibility (simplex over Q) ------------------------------


def solve_nonneg_combination(targets, goal):
    """Exact weights lambda > 0 with sum(l_i T_i) = goal, or None.

    Strict feasibility is one phase-1 problem on a homogenized system: find
    s, u >= 0 with sum(s_i T_i) - u * goal = goal - sum(T_i), and return
    lambda_i = (1 + s_i) / (1 + u).  Conversely, strict lambda gives
    s_i = c lambda_i - 1 and u = c - 1 with c = max(1, 1 / min lambda), so
    the system is feasible exactly when strict weights exist, for any
    targets.  The simplex minimizes the sum of one artificial per entry with
    Bland's rule, the artificial of row k indexed after the real variables;
    an artificial that leaves the basis never re-enters, so no artificial
    column is stored.
    """
    if not targets:
        return None
    shape = (goal.rows, goal.cols)
    if any((t.rows, t.cols) != shape for t in targets):
        raise ValueError("shape mismatch between targets and goal")
    nv = len(targets) + 1                 # s_1..s_N, u; the rhs is last
    rows = []
    for i in range(shape[0]):
        for j in range(shape[1]):
            col = [Fraction(t[i, j]) for t in targets]
            g = Fraction(goal[i, j])
            row = col + [-g, g - sum(col)]
            rows.append([-x for x in row] if row[-1] < 0 else row)
    basis = [nv + k for k in range(len(rows))]
    # Reduced costs of the phase-1 objective (sum of the artificials) over
    # the real columns, and minus its value last.
    cost = [-sum(col) for col in zip(*rows)]
    while True:
        enter = next((c for c in range(nv) if cost[c] < 0), None)
        if enter is None:
            break
        # Bland: the lowest entering index; ratio ties go to the smallest
        # basic index.
        leave = min((row[-1] / row[enter], basis[k], k)
                    for k, row in enumerate(rows) if row[enter] > 0)[2]
        piv = rows[leave][enter]
        prow = rows[leave] = [x / piv for x in rows[leave]]
        for row in rows + [cost]:
            f = row[enter]
            if f and row is not prow:
                row[:] = [a - f * b for a, b in zip(row, prow)]
        basis[leave] = enter
    if cost[-1] != 0:
        return None
    x = [Fraction(0)] * nv
    for row, b in zip(rows, basis):
        if b < nv:
            x[b] = row[-1]
    return [(1 + s) / (1 + x[-1]) for s in x[:-1]]


def verify_combination(targets, goal, weights) -> bool:
    """Check sum(w_i T_i) == goal exactly."""
    acc = RatMatrix.zeros(goal.rows, goal.cols)
    for w, t in zip(weights, targets):
        acc = acc + t.scale(w)
    return acc == goal


def exact_nth_root(x: Fraction, n: int):
    """The exact n-th root of a positive rational, or None if irrational."""
    if x <= 0:
        raise ValueError("positive input required")
    num, den = x.numerator, x.denominator
    rn = _int_nth_root(num, n)
    rd = _int_nth_root(den, n)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _int_nth_root(v: int, n: int):
    if n == 2:
        r = isqrt(v)
        return r if r * r == v else None
    lo, hi = 0, 1
    while hi ** n < v:
        hi <<= 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** n < v:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** n == v else None
