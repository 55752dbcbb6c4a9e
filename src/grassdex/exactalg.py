"""Exact linear algebra over the rationals and over GF(2).

Everything downstream (subspaces, lattices, design certificates) is built on
the primitives here.  All verdict arithmetic is exact: entries are
`fractions.Fraction`, never floats.  Q is the only field: the Clifford
rotation H = S (x) I / sqrt 2 acts on subspaces as the integer matrix S (x) I
does, so no extension of Q is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

Rational = Fraction


def rat(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact Fraction; a
    malformed string or a zero denominator raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


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
        return cls([[rat(x) for x in row] for row in data])


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


class _Tableau:
    """Dense simplex tableau over Fractions with Bland's rule."""

    def __init__(self, nvars):
        self.nvars = nvars
        self.rows = []          # each: list of coefficients, length nvars + 1 (rhs last)
        self.basis = []

    def add_row(self, coeffs, rhs):
        row = [Fraction(x) for x in coeffs] + [Fraction(rhs)]
        if row[-1] < 0:
            row = [-x for x in row]
        self.rows.append(row)
        self.basis.append(None)

    def _pivot(self, r, c):
        prow = self.rows[r]
        inv = prow[c]
        self.rows[r] = [x / inv for x in prow]
        prow = self.rows[r]
        for i, row in enumerate(self.rows):
            if i != r and row[c] != 0:
                f = row[c]
                self.rows[i] = [a - f * b for a, b in zip(row, prow)]
        self.basis[r] = c

    def optimize(self, objective):
        """Maximize objective . x; returns (value, solution) or None if unbounded."""
        m = len(self.rows)
        z = [-Fraction(x) for x in objective] + [Fraction(0)]
        for r in range(m):
            c = self.basis[r]
            if c is not None and z[c] != 0:
                f = z[c]
                z = [a - f * b for a, b in zip(z, self.rows[r])]
        while True:
            enter = next((c for c in range(self.nvars) if z[c] < 0), None)
            if enter is None:
                break
            best = None
            for r in range(m):
                a = self.rows[r][enter]
                if a > 0:
                    ratio = self.rows[r][-1] / a
                    if best is None or ratio < best[0] or \
                            (ratio == best[0] and self.basis[r] < self.basis[best[1]]):
                        best = (ratio, r)
            if best is None:
                return None
            self._pivot(best[1], enter)
            f = z[enter]
            z = [a - f * b for a, b in zip(z, self.rows[best[1]])]
        sol = [Fraction(0)] * self.nvars
        for r, c in enumerate(self.basis):
            if c is not None and c < self.nvars:
                sol[c] = self.rows[r][-1]
        return z[-1], sol


def _phase1(tab: _Tableau):
    """Drive in a feasible basis with artificial variables; True if feasible."""
    m = len(tab.rows)
    n0 = tab.nvars
    tab.nvars = n0 + m
    for i, row in enumerate(tab.rows):
        rhs = row.pop()
        row.extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
        row.append(rhs)
        tab.basis[i] = n0 + i
    obj = [Fraction(0)] * n0 + [Fraction(-1)] * m
    res = tab.optimize(obj)
    assert res is not None  # phase-1 objective is bounded by 0
    value, _ = res
    if value != 0:
        return False
    # Pivot artificials out of the basis where possible; drop dead rows.
    for r in range(m):
        if tab.basis[r] is not None and tab.basis[r] >= n0:
            c = next((j for j in range(n0) if tab.rows[r][j] != 0), None)
            if c is not None:
                tab._pivot(r, c)
    keep = [r for r in range(len(tab.rows))
            if not (tab.basis[r] is not None and tab.basis[r] >= n0)]
    tab.rows = [tab.rows[r] for r in keep]
    tab.basis = [tab.basis[r] for r in keep]
    # Remove artificial columns.
    for i, row in enumerate(tab.rows):
        tab.rows[i] = row[:n0] + [row[-1]]
    tab.nvars = n0
    return True


def solve_nonneg_combination(targets, goal):
    """Exact weights lambda > 0 with sum(l_i T_i) = goal.

    Returns a list of Fractions or None when no such weights exist.  Strict
    feasibility is decided exactly by maximizing the minimum weight (capped
    at 1 to keep the program bounded); strict iff the optimum is positive.
    """
    if not targets:
        return None
    shape = (goal.rows, goal.cols)
    if any((t.rows, t.cols) != shape for t in targets):
        raise ValueError("shape mismatch between targets and goal")
    nt = len(targets)
    cells = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
    # Variables: lambda_1..lambda_nt, z, s_1..s_nt, cap slack.
    nv = nt + 1 + nt + 1
    zi = nt
    tab = _Tableau(nv)
    for (i, j) in cells:
        tab.add_row([t[i, j] for t in targets] + [Fraction(0)] * (nt + 2), goal[i, j])
    for i in range(nt):
        coeffs = [Fraction(0)] * nv
        coeffs[i] = Fraction(1)
        coeffs[zi] = Fraction(-1)
        coeffs[zi + 1 + i] = Fraction(-1)
        tab.add_row(coeffs, 0)
    cap = [Fraction(0)] * nv
    cap[zi] = Fraction(1)
    cap[-1] = Fraction(1)
    tab.add_row(cap, 1)
    if not _phase1(tab):
        return None
    obj = [Fraction(0)] * nv
    obj[zi] = Fraction(1)
    res = tab.optimize(obj)
    assert res is not None  # z is capped
    value, sol = res
    if value <= 0:
        return None
    return sol[:nt]


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
    if v == 0:
        return 0
    if n == 1:
        return v
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
