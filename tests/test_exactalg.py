from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grassdex.exactalg import (BitMatrix, QuadExt, RatMatrix, adjugate,
                               bit_rank, bit_rref, bit_solve, bit_span, det, hnf,
                               int_left_kernel, inverse, null_space, rat,
                               rat_str, rref, saturate_rows,
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


def test_symmetric_constructor():
    RatMatrix.symmetric([[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        RatMatrix.symmetric([[1, 2], [3, 1]])


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
    assert solve_nonneg_combination([line_projector([1, 0])],
                                    RatMatrix.identity(2), strict=True) is None


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
    w = solve_nonneg_combination(projs, goal, strict=True)
    assert w is not None
    assert all(x == F(1, 3) for x in w)
    assert verify_combination(projs, goal, w)


def test_solve_nonneg_strict_refuted():
    # Feasible only on the boundary: goal needs weight 0 on the second target.
    t1 = line_projector([1, 0])
    t2 = line_projector([0, 1])
    goal = t1
    assert solve_nonneg_combination([t1, t2], goal) is not None
    assert solve_nonneg_combination([t1, t2], goal, strict=True) is None


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_nonneg_combination([RatMatrix.identity(2)], RatMatrix.identity(3))


@given(st.tuples(rationals, rationals))
def test_quadext_norm_identity(ab):
    a, b = ab
    x = QuadExt(a, b)
    assert x * x.conjugate() == QuadExt(a * a - 2 * b * b)


@given(st.tuples(rationals, rationals), st.tuples(rationals, rationals))
def test_quadext_field_ops(xy, zw):
    x = QuadExt(*xy)
    z = QuadExt(*zw)
    assert x + z == z + x
    assert x * z == z * x
    if z:
        assert (x / z) * z == x


def test_quadext_interop_with_fraction():
    x = QuadExt(F(1, 2), F(1, 3))
    assert x + 1 == QuadExt(F(3, 2), F(1, 3))
    assert 2 * x == QuadExt(1, F(2, 3))
    assert F(1, 2) * x == QuadExt(F(1, 4), F(1, 6))


def test_bitmatrix_basics():
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]], 3)
    assert m.rows == 2 and m.cols == 3
    assert m.row_bits(0) == [1, 0, 1]
    with pytest.raises(ValueError):
        BitMatrix([], 65)


def test_bit_rref_and_span():
    words, piv = bit_rref([0b101, 0b110, 0b011], 3)
    assert len(words) == 2 and bit_rank([0b101, 0b110, 0b011], 3) == 2
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
