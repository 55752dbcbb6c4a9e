"""Exact linear algebra over the rationals and over GF(2).

Everything downstream (subspaces, lattices, design certificates) is built on
the primitives here.  All verdict arithmetic is exact: entries are
`fractions.Fraction` (or `QuadExt` elements of Q(sqrt 2)), never floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

Rational = Fraction


def rat(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat_str(x: Fraction) -> str:
    """Render as 'p/q', or 'p' when the denominator is 1."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class QuadExt:
    """Element a + b*sqrt(2) of the real quadratic field Q(sqrt 2).

    Arithmetic is exact and componentwise equality is field equality
    (1, sqrt 2 are linearly independent over Q).
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = rat(a)
        self.b = rat(b)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b)

    @staticmethod
    def _coerce(x):
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadExt(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.a * other.a + 2 * self.b * other.b,
                       self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = other.a * other.a - 2 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        inv = QuadExt(other.a / norm, -other.b / norm)
        return self * inv

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.b == 0:
            return rat_str(self.a)
        return f"({rat_str(self.a)} + {rat_str(self.b)}*sqrt2)"


SQRT2 = QuadExt(0, 1)


def _coerce_entry(x):
    if isinstance(x, QuadExt):
        return x
    return rat(x)


class RatMatrix:
    """Immutable dense matrix of exact field elements.

    Entries are Fractions in normal use; QuadExt entries are accepted so the
    same elimination code serves Q(sqrt 2) matrices (orthogonality checks of
    the irrational generators).  Mixing the two in one matrix is the caller's
    responsibility.
    """

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, rows):
        self._rows = tuple(tuple(_coerce_entry(x) for x in row) for row in rows)
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
        values = [_coerce_entry(v) for v in values]
        n = len(values)
        zero = Fraction(0)
        return cls([[values[i] if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def symmetric(cls, rows) -> "RatMatrix":
        m = cls(rows)
        if not m.is_symmetric():
            raise ValueError("matrix is not symmetric")
        return m

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i][j]

    def row(self, i):
        return self._rows[i]

    def row_lists(self):
        return [list(r) for r in self._rows]

    @property
    def entries(self):
        return self._rows

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        return all(self._rows[i][j] == self._rows[j][i]
                   for i in range(self.rows) for j in range(i + 1, self.cols))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return RatMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self._rows, other._rows)])

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return RatMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self._rows, other._rows)])

    def __neg__(self):
        return RatMatrix([[-a for a in r] for r in self._rows])

    def scale(self, c) -> "RatMatrix":
        c = _coerce_entry(c)
        return RatMatrix([[c * a for a in r] for r in self._rows])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other._rows))
        return RatMatrix([[_dot(ra, cb) for cb in bt] for ra in self._rows])

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
        body = "; ".join(" ".join(repr(x) if isinstance(x, QuadExt) else rat_str(x)
                                  for x in row) for row in self._rows)
        return f"RatMatrix[{body}]"

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return [[rat_str(x) for x in row] for row in self._rows]

    @classmethod
    def from_json(cls, data) -> "RatMatrix":
        return cls([[rat(x) for x in row] for row in data])


def _dot(xs, ys):
    acc = None
    for x, y in zip(xs, ys):
        term = x * y
        acc = term if acc is None else acc + term
    return acc if acc is not None else Fraction(0)


def rref(m: RatMatrix):
    """Reduced row echelon form.

    Returns (R, pivots, rank); R is the unique RREF with the same row space.
    """
    rows = m.row_lists()
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return RatMatrix(rows), tuple(pivots), len(pivots)


def rank(m: RatMatrix) -> int:
    return rref(m)[2]


def det(m: RatMatrix):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    rows = m.row_lists()
    if all(isinstance(x, Fraction) and x.denominator == 1 for r in rows for x in r):
        return Fraction(int_det([[int(x) for x in r] for r in rows]))
    return _det_bareiss_field(rows)


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


def _det_bareiss_field(a):
    n = len(a)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if not a[k][k]:
            pr = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pr is None:
                return Fraction(0) * a[0][0]
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (pk * a[i][j] - aik * a[k][j]) / prev
            a[i][k] = 0 * a[i][k]
        prev = pk
    v = a[n - 1][n - 1]
    return v if sign == 1 else -v


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
    return [_dot(inv.row(i), b) for i in range(a.rows)]


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


def hnf(rows):
    """Row-style Hermite normal form of integer rows.

    Returns the nonzero rows: pivot entries positive, entries above a pivot
    reduced into [0, pivot).  The row span over Z is preserved.
    """
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        # Euclidean elimination below the pivot.
        for i in range(r + 1, len(mat)):
            while mat[i][c] != 0:
                q = mat[r][c] // mat[i][c]
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[i])]
                mat[r], mat[i] = mat[i], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r] if any(row)] + \
           [tuple(row) for row in mat[r:] if any(row)]


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
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        for i in range(r + 1, m):
            while aug[i][c] != 0:
                q = aug[r][c] // aug[i][c]
                aug[r] = [a - q * b for a, b in zip(aug[r], aug[i])]
                aug[r], aug[i] = aug[i], aug[r]
        r += 1
        if r == m:
            break
    return [tuple(row[n:]) for row in aug[r:]]


def saturate_rows(rows, ncols):
    """Basis of Z^n intersected with the Q-span of the given integer rows."""
    # Integer basis of the orthogonal complement {z : Y z = 0}, then the
    # lattice of integer vectors orthogonal to it.
    comp = int_left_kernel(list(zip(*rows)), ncols=len(rows))
    if not comp:
        return [tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)]
    return int_left_kernel(list(zip(*comp)), ncols=len(comp))


def primitive_int_row(row):
    """Scale a rational row to a primitive integer row (gcd 1, same line)."""
    lcm = 1
    for x in row:
        x = rat(x)
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(rat(x) * lcm) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


# -- GF(2) matrices ---------------------------------------------------------


class BitMatrix:
    """Matrix over GF(2) with at most 64 columns, one int word per row.

    Bit j of a row word is column j.  Instances are immutable.
    """

    __slots__ = ("words", "rows", "cols")

    def __init__(self, words, cols: int):
        if cols > 64:
            raise ValueError("BitMatrix supports at most 64 columns")
        mask = (1 << cols) - 1
        self.words = tuple(int(w) & mask for w in words)
        self.rows = len(self.words)
        self.cols = cols

    @classmethod
    def from_rows(cls, rows, cols: int) -> "BitMatrix":
        words = []
        for row in rows:
            w = 0
            for j, b in enumerate(row):
                if b & 1:
                    w |= 1 << j
            words.append(w)
        return cls(words, cols)

    def row_bits(self, i):
        return [(self.words[i] >> j) & 1 for j in range(self.cols)]

    def __eq__(self, other):
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.cols == other.cols and self.words == other.words

    def __hash__(self):
        return hash((self.cols, self.words))

    def __repr__(self):
        rows = ["".join(str(b) for b in self.row_bits(i)) for i in range(self.rows)]
        return "BitMatrix[" + "; ".join(rows) + "]"


def bit_rref(words, cols):
    """RREF over GF(2); returns (canonical word tuple, pivot columns)."""
    rows = [int(w) for w in words if w]
    res = []
    pivots = []
    for c in range(cols):
        bit = 1 << c
        pr = next((i for i in range(len(rows)) if rows[i] & bit), None)
        if pr is None:
            continue
        pivot = rows.pop(pr)
        rows = [r ^ pivot if r & bit else r for r in rows]
        res = [r ^ pivot if r & bit else r for r in res]
        res.append(pivot)
        pivots.append(c)
        if not rows:
            break
    return tuple(res), tuple(pivots)


def bit_rank(words, cols) -> int:
    return len(bit_rref(words, cols)[0])


def bit_span(words):
    """All GF(2) combinations of the given row words (includes 0)."""
    span = [0]
    for w in words:
        span += [s ^ w for s in span]
    return span


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


def solve_nonneg_combination(targets, goal, strict: bool = False):
    """Exact weights lambda >= 0 (or > 0 when strict) with sum(l_i T_i) = goal.

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

    if not strict:
        tab = _Tableau(nt)
        for (i, j) in cells:
            tab.add_row([t[i, j] for t in targets], goal[i, j])
        if not _phase1(tab):
            return None
        sol = [Fraction(0)] * nt
        for r, c in enumerate(tab.basis):
            if c is not None and c < nt:
                sol[c] = tab.rows[r][-1]
        return sol

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
