import random
import sys
import time
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grassdex.exactalg import (RatMatrix, adjugate,
                               bit_rref, bit_solve, bit_span,
                               bit_subspaces, det, exact_nth_root, hnf,
                               int_left_kernel, inverse, null_space, rank,
                               rat, rat_str, rref, saturate_rows,
                               solve_nonneg_combination, trace_pow,
                               verify_combination)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=8)


def line_projector(v):
    n = len(v)
    nrm = sum(F(x) * F(x) for x in v)
    return RatMatrix([[F(v[i]) * F(v[j]) / nrm for j in range(n)] for i in range(n)])


def test_rat_parsing():
    assert rat("3/4") == F(3, 4)
    assert rat(7) == 7
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(8, 4)) == "2"
    with pytest.raises(TypeError):
        rat(1.5)
    with pytest.raises(ValueError, match="zero denominator"):
        rat("1/0")


def test_rat_rejects_bools_and_unbounded_exponents():
    for flag in (True, False):
        with pytest.raises(TypeError):
            rat(flag)
    limit = sys.get_int_max_str_digits()
    assert rat(f"1e{limit}") == 10 ** limit
    assert rat(f"2.5E-{limit}") == F(5, 2 * 10 ** limit)
    for text in (f"1e{limit + 1}", f"-3.25E-{limit + 1}", "1e1_000_000",
                 " 7e+10000000 ", "1e10000000\n"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            rat(text)
        assert time.perf_counter() - start < 0.1


def test_rref_identity():
    m = RatMatrix.identity(3)
    r, piv, rk = rref(m)
    assert r == m and rk == 3 and piv == (0, 1, 2)


def test_rref_proportional_rows():
    r, piv, rk = rref(RatMatrix([[1, 2], [2, 4]]))
    assert rk == 1
    assert r.row(0) == (F(1), F(2))
    assert r.row(1) == (F(0), F(0))


def test_rref_paired_coordinates():
    rows = [[1 if j == i or j == i + 4 else 0 for j in range(8)] for i in range(4)]
    r, piv, rk = rref(RatMatrix(rows))
    assert rk == 4
    assert piv == (0, 1, 2, 3)
    assert r == RatMatrix(rows)  # already reduced


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=2, max_size=3))
def test_rref_idempotent(rows):
    r1, _, _ = rref(RatMatrix(rows))
    r2, _, _ = rref(r1)
    assert r1 == r2


def test_det_small():
    assert det(RatMatrix([[2, 1], [1, 2]])) == 3
    assert det(RatMatrix.identity(5)) == 1
    with pytest.raises(ValueError):
        det(RatMatrix([[1, 2, 3]]))


def test_det_e8_gram_is_one():
    from grassdex.lattice import catalog
    assert det(catalog("E8").gram) == 1


@settings(max_examples=60)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_multiplicative(a_rows, b_rows):
    a, b = RatMatrix(a_rows), RatMatrix(b_rows)
    assert det(a @ b) == det(a) * det(b)


def test_trace_pow_basics():
    assert trace_pow(RatMatrix.identity(4), 2) == 4
    pr = line_projector([1, 0, 0])
    for t in (1, 2, 3, 5):
        assert trace_pow(pr, t) == 1
    with pytest.raises(ValueError):
        trace_pow(RatMatrix.identity(2), 0)


def test_trace_pow_two_projectors():
    # pi_p pi_p' for the lines span(e1), span(e1+e2) in R^4, by hand.
    prod = line_projector([1, 0, 0, 0]) @ line_projector([1, 1, 0, 0])
    assert trace_pow(prod, 1) == F(1, 2)
    assert trace_pow(prod, 2) == F(1, 4)


def test_trace_pow_block_diagonal():
    a = RatMatrix([[1, 2], [3, 4]])
    b = RatMatrix([[5, 1], [1, 5]])
    blk = RatMatrix([[a[0, 0], a[0, 1], 0, 0], [a[1, 0], a[1, 1], 0, 0],
                     [0, 0, b[0, 0], b[0, 1]], [0, 0, b[1, 0], b[1, 1]]])
    assert trace_pow(a, 1) + trace_pow(b, 1) == trace_pow(blk, 1)
    assert trace_pow(a, 3) + trace_pow(b, 3) == trace_pow(blk, 3)


def test_inverse_and_null_space():
    m = RatMatrix([[2, 1], [1, 1]])
    assert m @ inverse(m) == RatMatrix.identity(2)
    ns = null_space(RatMatrix([[1, 2, 3]]))
    assert ns.rows == 2
    for i in range(ns.rows):
        assert sum(ns[i, j] * F(j + 1) for j in range(3)) == 0


def test_solve_nonneg_two_axes():
    t1 = line_projector([1, 0])
    t2 = line_projector([0, 1])
    goal = RatMatrix.identity(2)
    w = solve_nonneg_combination([t1, t2], goal)
    assert w == [1, 1]
    assert verify_combination([t1, t2], goal, w)


def test_solve_nonneg_rank_deficient():
    assert solve_nonneg_combination([line_projector([1, 0])],
                                    RatMatrix.identity(2)) is None


def d4_minimal_vectors():
    vecs = []
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (1, -1):
                v = [0] * 4
                v[i], v[j] = 1, s
                vecs.append(v)
    return vecs


def test_solve_nonneg_d4_lines_strict():
    projs = [line_projector(v) for v in d4_minimal_vectors()]
    goal = RatMatrix.identity(4)
    w = solve_nonneg_combination(projs, goal)
    assert w is not None
    assert all(x == F(1, 3) for x in w)
    assert verify_combination(projs, goal, w)


def test_solve_nonneg_strict_refuted():
    # Feasible only on the boundary: goal needs weight 0 on the second target.
    t1 = line_projector([1, 0])
    t2 = line_projector([0, 1])
    goal = t1
    assert solve_nonneg_combination([t1, t2], goal) is None


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_nonneg_combination([RatMatrix.identity(2)], RatMatrix.identity(3))


def _random_lines(rng, r, count):
    lines = []
    while len(lines) < count:
        v = [rng.randint(-3, 3) for _ in range(r)]
        if any(v):
            lines.append(line_projector(v))
    return lines


def test_solve_nonneg_finds_strict_weights_when_they_exist():
    # goal = sum(l_i T_i) with every l_i > 0 by construction, so the solver
    # must return strict weights; they need not be the l_i.
    rng = random.Random(14)
    for _ in range(40):
        r = rng.randint(2, 4)
        targets = _random_lines(rng, r, rng.randint(1, 10))
        lam = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in targets]
        goal = RatMatrix.zeros(r, r)
        for w, t in zip(lam, targets):
            goal = goal + t.scale(w)
        w = solve_nonneg_combination(targets, goal)
        assert w is not None and len(w) == len(targets)
        assert all(x > 0 for x in w)
        assert verify_combination(targets, goal, w)


def test_solve_nonneg_refutes_a_forced_zero_weight():
    # Linearly independent targets write goal in one way only; a zero
    # coefficient there leaves no strictly positive weights.
    rng = random.Random(41)
    checked = 0
    while checked < 30:
        r = rng.randint(2, 4)
        targets = _random_lines(rng, r, rng.randint(1, r * (r + 1) // 2))
        flat = RatMatrix([[x for row in t.entries for x in row] for t in targets])
        if rank(flat) < len(targets):
            continue
        lam = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in targets]
        lam[rng.randrange(len(lam))] = F(0)
        goal = RatMatrix.zeros(r, r)
        for w, t in zip(lam, targets):
            goal = goal + t.scale(w)
        assert solve_nonneg_combination(targets, goal) is None
        checked += 1


def test_shape_mismatch_rejected_among_several_targets():
    targets = [RatMatrix.identity(3), RatMatrix.identity(2), RatMatrix.identity(3)]
    with pytest.raises(ValueError, match="shape"):
        solve_nonneg_combination(targets, RatMatrix.identity(3))


def test_bit_rref_and_span():
    words, piv = bit_rref([0b101, 0b110, 0b011])
    assert len(words) == 2
    span = set(bit_span(words))
    assert span == {0, 0b101, 0b110, 0b011}
    coeff = bit_solve(words, piv, 0b011)
    assert coeff is not None
    acc = 0
    for i, w in enumerate(words):
        if (coeff >> i) & 1:
            acc ^= w
    assert acc == 0b011
    assert bit_solve(words, piv, 0b001) is None


def gaussian_binomial(n, k):
    """Number of k-dimensional subspaces of F_2^n."""
    num = den = 1
    for i in range(k):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def test_bit_subspaces_each_once_and_canonical():
    for d in range(7):
        for dim in range(d + 1):
            got = bit_subspaces(d, dim)
            assert got == sorted(set(got))
            assert len(got) == gaussian_binomial(d, dim)
            for words in got:
                assert len(words) == dim and bit_rref(words)[0] == words


def test_hnf_and_kernel():
    rows = hnf([[2, 0], [3, 0]])
    assert rows == [(1, 0)]
    ker = int_left_kernel([[1, 1], [1, 1], [2, 2]])
    assert len(ker) == 2
    for k in ker:
        assert k[0] * 1 + k[1] * 1 + k[2] * 2 == 0


def test_saturate_rows():
    # span of (2, 0) inside Z^2 saturates to the full axis.
    sat = saturate_rows([(2, 0)], 2)
    assert hnf([list(r) for r in sat]) == [(1, 0)]
    sat2 = saturate_rows([(1, 1, 0), (1, -1, 0)], 3)
    assert hnf([list(r) for r in sat2]) == [(1, 0, 0), (0, 1, 0)]


def _saturate_reference(rows, ncols):
    """Saturation through the Fraction null space (the earlier route)."""
    comp = null_space(RatMatrix(rows))
    if comp.rows == 0:
        return [tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)]
    zint = [[int(x * lcm(*(y.denominator for y in row))) for x in row]
            for row in comp.entries]
    return int_left_kernel([list(r) for r in zip(*zint)], ncols=len(zint))


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 6)).flatmap(
    lambda mn: st.lists(st.lists(st.integers(-6, 6), min_size=mn[1],
                                 max_size=mn[1]), min_size=mn[0], max_size=mn[0])))
def test_integer_saturation_matches_fraction_reference(rows):
    ncols = len(rows[0])
    assume(rref(RatMatrix(rows))[2] == len(rows))
    got = saturate_rows(rows, ncols)
    assert hnf(got) == hnf(_saturate_reference(rows, ncols))
    assert hnf(got + [tuple(r) for r in rows]) == hnf(got)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_integer_adjugate(mat):
    # adj(M) M = det(M) I, singular M included.
    n = len(mat)
    adj = adjugate(mat)
    d = det(RatMatrix(mat))
    for i in range(n):
        for j in range(n):
            assert sum(adj[i][k] * mat[k][j] for k in range(n)) == (d if i == j else 0)


# -- the routines the shared paths replaced, kept as references -------------


def _rref_reference(m):
    """Gauss-Jordan elimination over Fractions: (R, pivots, rank)."""
    rows = [list(r) for r in m.entries]
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


def _inverse_reference(m):
    n = m.rows
    aug = RatMatrix([list(m.row(i)) + [int(i == j) for j in range(n)]
                     for i in range(n)])
    r, piv, rk = _rref_reference(aug)
    if rk < n or piv[:n] != tuple(range(n)):
        return None
    return RatMatrix([r.row(i)[n:] for i in range(n)])


def _null_space_reference(m):
    r, piv, _ = _rref_reference(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in piv):
        v = [F(0)] * m.cols
        v[fc] = F(1)
        for i, pc in enumerate(piv):
            v[pc] = -r[i, fc]
        basis.append(v)
    return RatMatrix(basis) if basis else RatMatrix.zeros(0, m.cols)


@st.composite
def _rational_matrices(draw):
    """Rational matrices up to 6 x 7 with zero entries, zero rows and rows
    dependent on earlier ones."""
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    entry = st.one_of(st.just(F(0)), rationals)
    rows = []
    for _ in range(nr):
        kind = draw(st.sampled_from(["free", "zero", "dependent"]))
        if kind == "zero":
            rows.append([F(0)] * nc)
        elif kind == "dependent" and rows:
            mix = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(mix, rows)) for j in range(nc)])
        else:
            rows.append(draw(st.lists(entry, min_size=nc, max_size=nc)))
    return RatMatrix(rows) if rows else RatMatrix.zeros(0, nc)


@settings(max_examples=200, deadline=None)
@given(_rational_matrices())
@example(RatMatrix.zeros(3, 4))
@example(RatMatrix.zeros(0, 0))
@example(RatMatrix([[0, 2, 4], [0, 1, 2], [0, 0, 0], [3, 0, 1]]))
def test_rref_family_matches_fraction_gauss_jordan(m):
    ref = _rref_reference(m)
    assert rref(m) == ref
    assert rank(m) == ref[2]
    assert null_space(m) == _null_space_reference(m)
    if m.is_square:
        expected = _inverse_reference(m)
        if expected is None:
            with pytest.raises(ValueError):
                inverse(m)
        else:
            assert inverse(m) == expected


def _det_field_reference(m):
    """Bareiss elimination over the entry field (Fractions throughout)."""
    a = [list(r) for r in m.entries]
    n = len(a)
    sign = 1
    prev = F(1)
    for k in range(n - 1):
        if not a[k][k]:
            pr = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pr is None:
                return F(0)
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (pk * a[i][j] - aik * a[k][j]) / prev
            a[i][k] = F(0)
        prev = pk
    return sign * a[n - 1][n - 1]


def _square_rational_matrices(draw_singular):
    def build(rows_and_mix):
        rows, mix = rows_and_mix
        if draw_singular and len(rows) > 1:
            # The last row is a rational combination of the others.
            rows = rows[:-1] + [[sum(c * r[j] for c, r in zip(mix, rows[:-1]))
                                 for j in range(len(rows))]]
        return rows
    return st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.lists(rationals, min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(rationals, min_size=n, max_size=n))).map(build)


@settings(max_examples=60, deadline=None)
@given(_square_rational_matrices(False))
def test_det_matches_field_bareiss_reference(rows):
    m = RatMatrix(rows)
    assert det(m) == _det_field_reference(m)


@settings(max_examples=40, deadline=None)
@given(_square_rational_matrices(True))
def test_det_matches_field_bareiss_reference_singular(rows):
    m = RatMatrix(rows)
    assert det(m) == _det_field_reference(m)
    if m.rows > 1:
        assert det(m) == 0
    zero_row = RatMatrix(rows[:-1] + [[0] * len(rows)])
    assert det(zero_row) == _det_field_reference(zero_row) == 0


def _hnf_reference(rows):
    """Hermite normal form with sign fixes and upper reduction done column
    by column inside the forward elimination."""
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return []
    r = 0
    for c in range(len(mat[0])):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
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


def _int_left_kernel_reference(rows, ncols=None):
    """Left kernel from its own copy of the Euclidean echelon loop."""
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


integer_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda mn: st.lists(st.lists(st.integers(-9, 9), min_size=mn[1],
                                 max_size=mn[1]), min_size=mn[0], max_size=mn[0]))


@settings(max_examples=200, deadline=None)
@given(integer_matrices)
@example([[0, 0], [0, 0]])
@example([[2, 4, 6], [1, 2, 3], [3, 6, 9]])
@example([[0, 3], [0, -6], [5, 1]])
def test_hnf_and_kernel_match_references(rows):
    assert hnf(rows) == _hnf_reference(rows)
    assert int_left_kernel(rows) == _int_left_kernel_reference(rows)
    cols = [list(c) for c in zip(*rows)]
    assert int_left_kernel(cols, ncols=len(rows)) == \
        _int_left_kernel_reference(cols, ncols=len(rows))


def _bit_rref_reference(words, cols):
    """GF(2) RREF by scanning the columns in order for a pivot row."""
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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(lambda cols: st.tuples(
    st.just(cols), st.lists(st.integers(0, (1 << cols) - 1), max_size=8))))
@example((4, []))
@example((4, [0, 0]))
@example((4, [0b0110, 0b1010, 0b1100, 0, 0b0110]))
@example((6, [0b110000, 0b010000, 0b000011]))
def test_bit_rref_matches_column_scan_reference(case):
    cols, words = case
    assert bit_rref(words) == _bit_rref_reference(words, cols)
    # A dependent word changes nothing.
    if len(words) >= 2:
        extra = words + [words[0] ^ words[1]]
        assert bit_rref(extra) == bit_rref(words)


def _int_root_reference(v, n):
    """The positive integer c with c^n = v, or None: a float guess, checked
    exactly with its neighbours."""
    c = round(v ** (1 / n))
    return next((x for x in (c - 1, c, c + 1) if x > 0 and x ** n == v), None)


positive_rationals = st.fractions(min_value=F(1, 10 ** 6), max_value=10 ** 6,
                                  max_denominator=10 ** 6)


@settings(max_examples=200, deadline=None)
@given(positive_rationals, st.integers(1, 7))
def test_exact_nth_root_of_a_power_is_the_base(q, n):
    assert exact_nth_root(q ** n, n) == q


@settings(max_examples=300, deadline=None)
@given(positive_rationals, st.integers(1, 7))
@example(F(1), 3)
@example(F(4, 9), 2)
@example(F(2), 2)
@example(F(8, 27), 3)
@example(F(16, 3), 4)
@example(F(10 ** 6 + 1, 10 ** 6), 1)
def test_exact_nth_root_matches_integer_reference(x, n):
    rn = _int_root_reference(x.numerator, n)
    rd = _int_root_reference(x.denominator, n)
    want = F(rn, rd) if rn is not None and rd is not None else None
    assert exact_nth_root(x, n) == want
    if want is not None:
        assert want > 0 and want ** n == x


def test_exact_nth_root_rejects_nonpositive():
    for x in (F(0), F(-4), F(-1, 8)):
        with pytest.raises(ValueError):
            exact_nth_root(x, 2)
