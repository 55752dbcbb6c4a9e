import concurrent.futures
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grassdex.exactalg import (RatMatrix, det, int_rref, inverse, primitive_int_row,
                               rref, trace_pow)
from grassdex import grassmann
from grassdex.grassmann import (Configuration, Subspace,
                                _count_rows, _cross_rows, _packed_counts,
                                average_sigma_power, certified_orbits,
                                eval_zonal, intdata_from_coords, pair_stats,
                                principal_power_sums, sigma, verify_design,
                                zonal_positivity)
from grassdex.zonal import P0, P1, Partition


def w_loop(data, rows):
    """`_pair_key` counts of the row specs (i, start, weight), pairs (i, j)
    with j >= start counted weight times, each pair from its W
    (`_pair_w`): the reference of every count site."""
    counts = Counter()
    rng = range(len(data[0][0]))
    for i, start, weight in rows:
        for j in range(start, len(data)):
            w, den = grassmann._pair_w(data[i], data[j])
            counts[grassmann._pair_key(
                sum(w[a][a] for a in rng),
                sum(w[a][b] * w[b][a] for a in rng for b in rng), den)] += weight
    return counts


def pair_loop(data):
    """`_pair_key` counts over pairs i < j from the per-pair W loop."""
    return w_loop(data, [(i, i + 1, 1) for i in range(len(data))])


def cross_sweep(orth):
    """The same counts from the packed cross engine, over the records
    `orth` (`_orthogonal`): the full sweep of `pair_stats` at m >= 3."""
    return _cross_rows(orth, [(i, i + 1, 1) for i in range(len(orth))])


def naive_sigma(p: Subspace, q: Subspace):
    """Independent oracle: sigma via explicit projector matrices and
    Fraction Gauss-Jordan inversion (no integer fast path)."""
    def proj(s):
        b = s.basis
        return b.transpose() @ inverse(b @ b.transpose()) @ b
    return trace_pow(proj(p) @ proj(q), 1)


def d4_line_vectors():
    vecs = []
    for i in range(4):
        for j in range(i + 1, 4):
            for s in (1, -1):
                v = [0] * 4
                v[i], v[j] = 1, s
                vecs.append(v)
    return vecs


def lines_config(n, vectors):
    """The configuration of the lines through the integer `vectors`."""
    return Configuration(n, [Subspace.line(v) for v in vectors])


def random_subspace(rng, n, m):
    while True:
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(m)]
        try:
            return Subspace(n, rows)
        except ValueError:
            continue


def test_subspace_canonical_equality():
    a = Subspace(3, [[1, 1, 0], [0, 0, 2]])
    b = Subspace(3, [[2, 2, 2], [0, 0, -5]])
    assert a == b and hash(a) == hash(b)
    assert a.m == 2
    with pytest.raises(ValueError):
        Subspace(3, [[1, 1, 0], [2, 2, 0]])
    assert Subspace.span(3, [[1, 1, 0], [2, 2, 0]]).m == 1


def test_projector_examples():
    assert Subspace.line([1, 0]).projector() == RatMatrix([[1, 0], [0, 0]])
    half = F(1, 2)
    assert Subspace.line([1, 1]).projector() == RatMatrix([[half, half], [half, half]])
    p = Subspace(4, [[1, 0, 1, 0], [0, 1, 0, -1]])
    pr = p.projector()
    assert pr @ pr == pr
    assert pr.trace() == p.m
    assert pr == pr.transpose()


def test_power_sums_examples():
    p = Subspace.line([1, 0, 0, 0])
    q = Subspace.line([1, 1, 0, 0])
    assert principal_power_sums(p, q, 3) == [F(1, 2), F(1, 4), F(1, 8)]
    assert principal_power_sums(p, p, 3) == [1, 1, 1]
    r = Subspace.line([0, 0, 1, 0])
    assert principal_power_sums(p, r, 2) == [0, 0]


def test_power_sums_match_naive_oracle():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([3, 4, 5])
        m = rng.choice([1, 2])
        p = random_subspace(rng, n, m)
        q = random_subspace(rng, n, m)
        assert sigma(p, q) == naive_sigma(p, q)


def test_power_sums_symmetry_and_monotonicity():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.choice([4, 5, 6])
        m = rng.choice([1, 2, 3])
        if 2 * m > n:
            continue
        p = random_subspace(rng, n, m)
        q = random_subspace(rng, n, m)
        sp = principal_power_sums(p, q, 4)
        sq = principal_power_sums(q, p, 4)
        assert sp == sq
        for t in range(4):
            val = sp[t]
            assert 0 <= val <= m
            if t:
                assert val <= sp[t - 1]


def test_invariance_under_signed_permutation():
    q = RatMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    rng = random.Random(23)
    for _ in range(10):
        p1 = random_subspace(rng, 4, 2)
        p2 = random_subspace(rng, 4, 2)
        t1 = p1.transform(q)
        t2 = p2.transform(q)
        assert principal_power_sums(p1, p2, 3) == principal_power_sums(t1, t2, 3)


def test_eval_zonal_examples():
    p = Subspace.line([1, 0, 0, 0])
    q = Subspace.line([0, 1, 0, 0])
    assert eval_zonal(P0, p, q) == 1
    assert eval_zonal(P1, p, p) == 1
    assert eval_zonal(P1, p, q) == F(-1, 3)


def test_verify_design_d4_lines():
    cfg = lines_config(4, d4_line_vectors())
    rep = verify_design(cfg, tmax=3)
    assert rep.is_design(1) and rep.is_design(2) and not rep.is_design(3)
    assert rep.strength() == 2
    assert rep.zonal_sums["(1)"] == 0 and rep.zonal_sums["(2)"] == 0


def test_verify_design_single_point():
    rep = verify_design(Configuration(4, [Subspace.line([1, 2, 0, 0])]), tmax=1)
    assert not rep.is_design(1)
    assert rep.t_stats[1].average == 1  # sigma(p, p) = m


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_verify_design_cross_polytope(n):
    axes = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rep = verify_design(lines_config(n, axes), tmax=2)
    assert rep.is_design(1)
    assert not rep.is_design(2)
    assert rep.t_stats[2].average == F(1, n)
    assert rep.t_stats[2].expected == F(3, n * (n + 2))


def test_multiset_orbit_consistency():
    # A duplicated multiset must average identically to the plain set.
    cfg = lines_config(4, d4_line_vectors())
    doubled = Configuration(4, list(cfg.points) * 3)
    r1 = verify_design(cfg, tmax=2)
    r2 = verify_design(doubled, tmax=2)
    assert r1.t_stats[2].average == r2.t_stats[2].average
    assert doubled.deduplicated().points == cfg.deduplicated().points


def test_signed_permutation_orbit_multiset_consistency():
    # Applying every element of a signed-permutation group to a seed (with
    # repeats kept) averages exactly like the deduplicated orbit.
    import itertools
    group = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            rows = [[F(signs[i]) if j == perm[i] else F(0) for j in range(3)]
                    for i in range(3)]
            group.append(RatMatrix(rows))
    seed = Subspace.line([1, 1, 0])
    with_mult = Configuration(3, [seed.transform(g) for g in group])
    dedup = with_mult.deduplicated()
    assert len(dedup) < len(with_mult)
    r1 = verify_design(with_mult, tmax=1)
    r2 = verify_design(dedup, tmax=1)
    assert r1.t_stats[1] == r2.t_stats[1]
    assert r1.zonal_sums["(1)"] / len(with_mult) ** 2 == \
        r2.zonal_sums["(1)"] / len(dedup) ** 2


def test_zonal_positivity():
    cfg = lines_config(4, d4_line_vectors())
    assert zonal_positivity(cfg, P0) == len(cfg) ** 2
    assert zonal_positivity(cfg, P1) == 0
    rng = random.Random(5)
    for _ in range(20):
        pts = [random_subspace(rng, 4, 1) for _ in range(3)]
        val = zonal_positivity(Configuration(4, pts), P1)
        assert val >= 0


def test_zonal_degree_past_two_is_refused_before_any_pair(monkeypatch):
    cfg = lines_config(4, d4_line_vectors())
    monkeypatch.setattr(grassmann, "pair_stats", None)    # never reached
    for mu in (Partition(3), Partition(2, 1)):
        with pytest.raises(ValueError, match="degree <= 2"):
            zonal_positivity(cfg, mu)
        with pytest.raises(ValueError, match="degree <= 2"):
            eval_zonal(mu, cfg.points[0], cfg.points[1])


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def canonical_form_cases(draw):
    """Independent rational rows B, an invertible rational T and a
    rational combination c of the rows of B."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 6))
    row = st.lists(small_rationals, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    assume(rref(RatMatrix(rows))[2] == m)
    t = draw(st.lists(st.lists(small_rationals, min_size=m, max_size=m),
                      min_size=m, max_size=m))
    assume(det(RatMatrix(t)) != 0)
    comb = draw(st.lists(small_rationals, min_size=m, max_size=m))
    return n, rows, t, comb


@settings(max_examples=80, deadline=None)
@example((3, [[F(1, 2), 0, F(-3, 4)], [0, 0, 2]], [[0, 1], [1, 0]], [0, 0]))
@given(canonical_form_cases())
def test_subspace_integer_canonical_form(case):
    n, rows, t, comb = case
    p = Subspace(n, rows)
    q = Subspace(n, RatMatrix(t) @ RatMatrix(rows))
    # The integer rows are the RREF rows scaled to primitive integers with
    # positive pivots, invariant under invertible row operations.
    red, piv, rk = rref(RatMatrix(rows))
    assert p.basis == RatMatrix([red.row(i) for i in range(rk)])
    assert p.rows == q.rows
    for row, prow, c in zip(p.rows, p.basis.entries, piv):
        assert gcd(*row) == 1 and row[c] > 0
        assert all(F(x, row[c]) == y for x, y in zip(row, prow))
    assert p == q and hash(p) == hash(q)
    assert p.to_json() == q.to_json() == RatMatrix(
        [red.row(i) for i in range(rk)]).to_json()
    # A dependent row is refused unless the caller asks for the span.
    extra = [sum(c * r[j] for c, r in zip(comb, rows)) for j in range(n)]
    with pytest.raises(ValueError):
        Subspace(n, rows + [extra])
    assert Subspace.span(n, rows + [extra]) == p


def test_subspace_rejects_irrational_rows():
    with pytest.raises(TypeError):
        Subspace(2, [[0.5, 1]])
    assert Subspace(2, [[F(1, 2), 1]]) == Subspace.line([1, 2])
    with pytest.raises(ValueError):
        Subspace(3, [[1, 0]])


def test_average_sigma_power_high_t():
    cfg = lines_config(2, [[1, 0], [0, 1], [1, 1], [1, -1]])
    # 4 lines at 45 degrees: sigma values 1 or 1/2.
    avg4 = average_sigma_power(cfg, 4)
    assert avg4 == (4 * 1 + 8 * F(1, 16)) / 16


def test_verify_design_requires_small_m():
    p = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        verify_design(Configuration(3, [p]), tmax=1)


def test_configuration_json_round_trip():
    cfg = lines_config(4, d4_line_vectors())
    data = json.loads(json.dumps(cfg.to_json_dict()))
    back = Configuration.from_json_dict(data)
    assert back.n == cfg.n and back.m == cfg.m
    assert [p.basis for p in back.points] == [p.basis for p in cfg.points]
    r1 = verify_design(cfg, tmax=2)
    r2 = verify_design(back, tmax=2)
    assert r1.to_json_dict() == r2.to_json_dict()


def test_configuration_json_rejects_mismatched_m():
    data = {"n": 3, "m": 2, "points": [[["1", "0", "0"]]]}
    with pytest.raises(ValueError):
        Configuration.from_json_dict(data)


def projector_reference(points, tmax):
    """Sums of sigma^t (t <= tmax) and of tr((P_p P_q)^2) over ordered
    pairs, from explicit projector matrices."""
    projs = [p.projector() for p in points]
    sums = {t: F(0) for t in range(1, tmax + 1)}
    power2 = F(0)
    for a in projs:
        for b in projs:
            prod = a @ b
            s = prod.trace()
            for t in sums:
                sums[t] += s ** t
            power2 += trace_pow(prod, 2)
    return sums, power2


# Small entries give repeated angles; entries near 2^40 give canonical
# integer bases whose Gram adjugates exceed 2^63, and packed slots wider
# than 64 bits.
entries = st.one_of(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40))


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def configurations(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(max(m, 2), 6))
    bases = [draw(matrices(m, n)) for _ in range(draw(st.integers(1, 4)))]
    # Repeated points: their pairs count like any other.
    bases += draw(st.lists(st.sampled_from(bases), max_size=2))
    return m, n, bases


@settings(max_examples=60, deadline=None)
@example((2, 4, [[[2 ** 40 + 1, 3, 0, 7], [5, -2 ** 41, 1, 0]],
                 [[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 1, 0, 0], [0, 0, 1, 3]]]))
@example((1, 2, [[[1, 2]], [[-3, 1]]]))
@example((2, 4, [[[1, 0, 2, 0], [0, 1, 0, -1]], [[1, 0, 2, 0], [0, 1, 0, -1]]]))
@given(configurations())
def test_pair_engine_matches_projector_reference(data):
    m, n, bases = data
    try:
        cfg = Configuration(n, [Subspace(n, rows) for rows in bases])
    except ValueError:
        assume(False)
    if m <= 2:
        # The packed engine against the per-pair loop.
        points = [p.int_data() for p in cfg.points]
        assert _packed_counts(points) == pair_loop(points)
    sums, power2 = projector_reference(cfg.points, 5)
    stats = pair_stats(cfg.points, tmax=5)
    assert {t: stats.sigma_pow[t] for t in sums} == sums
    assert stats.power2 == power2
    assert sum(stats.distribution.values()) == len(cfg) ** 2
    assert average_sigma_power(cfg, 4) == sums[4] / len(cfg) ** 2
    assert average_sigma_power(cfg, 5) == sums[5] / len(cfg) ** 2


def test_pair_engine_reference_reaches_large_adjugates():
    # The explicit example above does leave the int64 range.
    p = Subspace(4, [[2 ** 40 + 1, 3, 0, 7], [5, -2 ** 41, 1, 0]])
    _, _, adj, _ = p.int_data()
    assert max(abs(x) for row in adj for x in row) > 2 ** 63


@st.composite
def metric_configurations(draw):
    """Lattice-coordinate data: coordinate rows and the integer Gram
    A A^T + I of a random basis A, which is positive definite."""
    m = draw(st.integers(1, 2))
    n = draw(st.integers(max(m, 2), 5))
    a = draw(matrices(n, n))
    gram = [[sum(x * y for x, y in zip(r, c)) + (i == j) for j, c in enumerate(a)]
            for i, r in enumerate(a)]
    coords = [draw(matrices(m, n)) for _ in range(draw(st.integers(2, 5)))]
    coords += draw(st.lists(st.sampled_from(coords), max_size=2))
    return gram, coords


@settings(max_examples=60, deadline=None)
@example(([[2, 1], [1, 2]], [[[1, 0]], [[1, -1]]]))
@example(([[3, 1, 0, 0], [1, 3, 1, 0], [0, 1, 3, 1], [0, 0, 1, 3]],
          [[[2 ** 40, -1, 3, 0], [0, 1, -2 ** 39, 5]],
           [[1, 0, 0, 0], [0, 0, 1, 0]], [[1, 1, 1, 1], [0, 1, -1, 0]]]))
@given(metric_configurations())
def test_packed_engine_matches_pair_loop_on_metric_data(data):
    gram, coords = data
    points = [intdata_from_coords(c, gram) for c in coords]
    assume(all(d for _, _, _, d in points))
    assert _packed_counts(points) == pair_loop(points)


@st.composite
def wide_plane_rows(draw):
    """(records, row specs): planes in lattice coordinates under the Gram
    A A^T + I, with coordinates s 2^200 + t (0 < |s| <= 3, |t| < 2^60), so
    entries of 200 bits and more of both signs, and rows (i, start, weight)
    at random starts and weights."""
    n = draw(st.integers(2, 5))
    a = draw(matrices(n, n))
    gram = [[sum(x * y for x, y in zip(r, c)) + (i == j) for j, c in enumerate(a)]
            for i, r in enumerate(a)]
    wide = st.builds(lambda s, t: (s << 200) + t,
                     st.sampled_from([-3, -2, -1, 1, 2, 3]),
                     st.integers(-(1 << 60), 1 << 60))
    coords = draw(st.lists(st.lists(st.lists(wide, min_size=n, max_size=n),
                                    min_size=2, max_size=2),
                           min_size=1, max_size=6))
    size = len(coords)
    rows = draw(st.lists(st.tuples(st.integers(0, size - 1),
                                   st.integers(0, size),
                                   st.integers(1, 10 ** 6)), min_size=1,
                         max_size=4))
    return [intdata_from_coords(c, gram) for c in coords], rows


@settings(max_examples=60, deadline=None)
@given(wide_plane_rows())
def test_plane_row_kernel_matches_the_w_loop(case):
    data, rows = case
    assume(all(d > 0 for _, _, _, d in data))
    assume(any(adj[0][1] for _, _, adj, _ in data))
    assert _count_rows(data, rows) == w_loop(data, rows)


def test_plane_row_kernel_on_sections_and_eigenspaces():
    from grassdex.binquad import enumerate_isotropic
    from grassdex.clifford import build_design
    from grassdex.lattice import catalog, minimal_sections
    # The E8 minimal 2-sections, as the section report hands them over,
    # and the Subspace planes of `clifford --k 3 --w 2`.
    e8 = minimal_sections(catalog("E8"), 2).records
    planes = [p.int_data()
              for p in build_design(enumerate_isotropic(3, 2)).config.points]
    for data in (e8, planes):
        n = len(data)
        rows = [(0, 0, n), (5, 0, 1), (n // 2, n // 3, 7), (n - 1, n - 1, 2)]
        assert _count_rows(data, rows) == w_loop(data, rows)


def test_packed_slots_pass_64_bits(monkeypatch):
    # The explicit examples above do reach the byte-by-byte slot reader.
    widths = []

    class Recording(grassmann._PackedColumns):
        def __init__(self, fields, classes):
            super().__init__(fields, classes)
            widths.append(8 * self.nbytes)

    monkeypatch.setattr(grassmann, "_PackedColumns", Recording)
    big = [[2 ** 40 + 1, 3, 0, 7], [5, -2 ** 41, 1, 0]]
    small = [[1, 0, 0, 1], [0, 1, 1, 0]]
    for m in (1, 2):
        pair_stats([Subspace(4, big[:m]), Subspace(4, small[:m])])
    assert len(widths) == 2 and min(widths) > 64


@st.composite
def rotated_packed_inputs(draw):
    """Lines or planes in R^4 from two square classes of Gram determinants
    (1 and 2 before rotation) and random bases with entries up to 2^41, each
    point turned by one of two integer Householder products."""
    m = draw(st.integers(1, 2))
    bases = [[[1, 0, 0, 0], [0, 1, 0, 0]][:m], [[1, 0, 0, 0], [0, 1, 1, 0]][:m]]
    bases += [draw(matrices(m, 4)) for _ in range(draw(st.integers(0, 2)))]
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    rots = [RatMatrix(householder_rotation(rng, 4, draw(st.integers(1, 3))))
            for _ in range(2)]
    picks = draw(st.lists(st.tuples(st.sampled_from(range(len(bases))),
                                    st.sampled_from((0, 1))),
                          min_size=2, max_size=8))
    return bases, rots, picks


@settings(max_examples=60, deadline=None)
@given(rotated_packed_inputs())
def test_packed_engine_matches_pair_loop_on_rotations(data):
    bases, rots, picks = data
    try:
        points = [Subspace(4, bases[b]).transform(rots[r]) for b, r in picks]
    except ValueError:
        assume(False)
    data = [p.int_data() for p in points]
    assert _packed_counts(data) == pair_loop(data)


def test_equal_angles_share_one_slot(monkeypatch):
    from grassdex.binquad import enumerate_isotropic
    from grassdex.clifford import build_design
    # k = 3, w = 2 eigenspace planes (Gram determinants 1, 4 and 16: one
    # square class), rotated so that the determinants differ; 200 columns
    # span two packed blocks.
    points = build_design(enumerate_isotropic(3, 2)).config.points[:200]
    rot = RatMatrix(householder_rotation(random.Random(3), 8, factors=4))
    data = [p.transform(rot).int_data() for p in points]
    assert len({d for _, _, _, d in data}) > 20
    decoded, blocks = [], set()
    decode = grassmann._PackedColumns.decode

    def counting(self, slot):
        decoded.append(slot)
        blocks.add(len(self.blocks))
        return decode(self, slot)

    monkeypatch.setattr(grassmann._PackedColumns, "decode", counting)
    counts = _packed_counts(data)
    assert counts == pair_loop(data)
    assert blocks == {2}
    # Equal angles give one slot up to the sign of det C.
    assert len(decoded) <= 2 * len(counts)


def test_shared_scale_never_widens_the_slot(monkeypatch):
    # Square norms 5^2, 7^2, 13^2, 17^2: one square class, but a shared
    # scale multiplies the vectors by 1547, 1105, 595 and 455.  Per point
    # the slot holds |x . y| <= 289 in 10 bits and 4 classes in 2 bits.
    widths = []

    class Recording(grassmann._PackedColumns):
        def __init__(self, fields, classes):
            super().__init__(fields, classes)
            widths.append(8 * self.nbytes)

    monkeypatch.setattr(grassmann, "_PackedColumns", Recording)
    data = [Subspace.line(v).int_data()
            for v in ([3, 4, 0], [2, 3, 6], [5, 0, 12], [8, 9, 12])]
    assert _packed_counts(data) == pair_loop(data)
    assert widths == [16]


def test_one_scale_decision_for_two_square_classes(monkeypatch):
    # The four lines above, whose shared scale would widen the slot, and
    # three lines of norm 2, a second square class that shares without a
    # multiplier.  One decision covers both classes: per point the slot
    # holds |x . y| <= 289 in 10 bits and 5 classes in 3 bits.
    widths = []

    class Recording(grassmann._PackedColumns):
        def __init__(self, fields, classes):
            super().__init__(fields, classes)
            widths.append(8 * self.nbytes)

    monkeypatch.setattr(grassmann, "_PackedColumns", Recording)
    data = [Subspace.line(v).int_data()
            for v in ([3, 4, 0], [1, 1, 0], [2, 3, 6], [5, 0, 12], [1, 0, -1],
                      [8, 9, 12], [0, 1, 1])]
    assert len(grassmann._square_classes([d for *_, d in data])) == 2
    assert _packed_counts(data) == pair_loop(data)
    assert widths == [16]


def assert_cross_matches_loop(data, rows):
    """The packed cross engine against the per-pair W loop, key for key:
    the full sweep and `rows`."""
    orth = [grassmann._orthogonal(rec) for rec in data]
    assert cross_sweep(orth) == pair_loop(data)
    assert _cross_rows(orth, rows) == _count_rows(data, rows)


@st.composite
def row_specs(draw, size):
    """Row specs (i, start, weight) of the engine, starts anywhere."""
    return draw(st.lists(st.tuples(st.integers(0, size - 1),
                                   st.integers(0, size),
                                   st.integers(1, 3)), max_size=4))


@st.composite
def solid_configurations(draw):
    """Bases of m = 3..6 dimensional subspaces of R^n, n = 2m..12, some of
    them repeated; packed blocks of 1 byte (one point each), 100 bytes or
    the default, so rows start at and inside blocks."""
    m = draw(st.integers(3, 6))
    n = draw(st.integers(2 * m, 12))
    bases = [draw(matrices(m, n)) for _ in range(draw(st.integers(2, 5)))]
    bases += draw(st.lists(st.sampled_from(bases), max_size=2))
    rows = draw(row_specs(len(bases)))
    return n, bases, rows, draw(st.sampled_from((1, 100, 2048)))


@settings(max_examples=40, deadline=None)
@example((6, [[[2 ** 40 + 1, 3, 0, 7, 0, 1], [5, -2 ** 41, 1, 0, 2, 0],
               [0, 1, 2 ** 39, 0, 0, -3]],
              [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
              [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]],
              [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]]],
          [(0, 0, 1), (2, 1, 2), (3, 3, 1)], 100))
@given(solid_configurations())
def test_cross_engine_matches_pair_loop(case):
    n, bases, rows, block_bytes = case
    try:
        data = [Subspace(n, b).int_data() for b in bases]
    except ValueError:
        assume(False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grassmann, "_BLOCK_BYTES", block_bytes)
        assert_cross_matches_loop(data, rows)


@st.composite
def rotated_solids(draw):
    """m = 3 or 4 subspaces of R^8 with small entries, each turned by one
    of two integer Householder products."""
    m = draw(st.integers(3, 4))
    small = st.lists(st.lists(st.integers(-2, 2), min_size=8, max_size=8),
                     min_size=m, max_size=m)
    bases = [draw(small) for _ in range(draw(st.integers(2, 4)))]
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    rots = [RatMatrix(householder_rotation(rng, 8, draw(st.integers(1, 3))))
            for _ in range(2)]
    picks = draw(st.lists(st.tuples(st.sampled_from(range(len(bases))),
                                    st.sampled_from((0, 1))),
                          min_size=2, max_size=6))
    return bases, rots, picks, draw(row_specs(len(picks)))


@settings(max_examples=30, deadline=None)
@given(rotated_solids())
def test_cross_engine_matches_pair_loop_on_rotations(case):
    bases, rots, picks, rows = case
    try:
        data = [Subspace(8, bases[b]).transform(rots[r]).int_data()
                for b, r in picks]
    except ValueError:
        assume(False)
    assert_cross_matches_loop(data, rows)


@st.composite
def metric_solids(draw):
    """Lattice-coordinate data for m = 3 or 4: coordinate rows and the
    integer Gram A A^T + T of a random A, T the tridiagonal (2, 1) matrix,
    which is positive definite."""
    m = draw(st.integers(3, 4))
    n = draw(st.integers(2 * m, 8))
    a = draw(matrices(n, n))
    gram = [[sum(x * y for x, y in zip(r, c)) + {0: 2, 1: 1}.get(abs(i - j), 0)
             for j, c in enumerate(a)] for i, r in enumerate(a)]
    coords = [draw(matrices(m, n)) for _ in range(draw(st.integers(2, 4)))]
    coords += draw(st.lists(st.sampled_from(coords), max_size=2))
    return gram, coords, draw(row_specs(len(coords)))


@settings(max_examples=30, deadline=None)
@example(([[2, 1, 0, 0, 0, 0], [1, 2, 1, 0, 0, 0], [0, 1, 2, 1, 0, 0],
           [0, 0, 1, 2, 1, 0], [0, 0, 0, 1, 2, 1], [0, 0, 0, 0, 1, 2]],
          [[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
           [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]],
           [[2 ** 40, -1, 3, 0, 0, 1], [0, 1, -2 ** 39, 5, 0, 0],
            [0, 0, 1, 0, 7, 0]]],
          [(0, 0, 1), (1, 2, 3)]))
@given(metric_solids())
def test_cross_engine_matches_pair_loop_on_metric_data(case):
    gram, coords, rows = case
    assume(any(gram[i][j] for i in range(len(gram)) for j in range(i)))
    data = [intdata_from_coords(c, gram) for c in coords]
    assume(all(d for _, _, _, d in data))
    assert_cross_matches_loop(data, rows)


def test_cross_engine_slots_pass_64_bits(monkeypatch):
    widths = []

    class Recording(grassmann._PackedColumns):
        def __init__(self, fields, classes, group=1):
            super().__init__(fields, classes, group)
            widths.append(8 * self.nbytes)

    monkeypatch.setattr(grassmann, "_PackedColumns", Recording)
    big = [[2 ** 40 + 1, 3, 0, 7, 0, 1], [5, -2 ** 41, 1, 0, 2, 0],
           [0, 1, 2 ** 39, 0, 0, -3]]
    small = [[1, 0, 0, 1, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 0, 0, 1, 1]]
    data = [Subspace(6, big).int_data(), Subspace(6, small).int_data()]
    assert_cross_matches_loop(data, [(0, 0, 1)])
    assert min(widths) > 64


def test_cross_engine_pool_matches_pair_loop(monkeypatch):
    # 70 m = 4 points, three of them repeated: the cross engine sweeps them
    # in this process, and starting a process pool fails the test.
    def refuse(*args, **kwargs):
        raise AssertionError("pair_stats started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    rng = random.Random(5)
    points = [random_subspace(rng, 8, 4) for _ in range(67)]
    points += points[:3]
    stats = pair_stats(points, tmax=3)
    dist, sums = triple_reference(points, 3)
    assert stats.distribution == dist and stats.sigma_pow == sums


def test_pair_stats_refuses_no_points():
    with pytest.raises(ValueError, match="at least one point"):
        pair_stats([])


def turned(rows, rot):
    """The rows times the matrix rot, as they are: not canonicalized."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*rot)]
            for row in rows]


@st.composite
def given_bases(draw):
    """(n, bases) for m = 3..5 subspaces of R^n, n up to 12, each written in
    a basis other than its canonical rows: a unimodular mix of small rows,
    scaled rows of an integer Householder product (an orthogonal basis), or
    small rows turned by one."""
    m = draw(st.integers(3, 5))
    n = draw(st.integers(m + 1, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    small = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                     min_size=m, max_size=m)
    bases = []
    kinds = st.sampled_from(("mix", "orthogonal", "turned"))
    for kind in draw(st.lists(kinds, min_size=2, max_size=6)):
        if kind == "mix":
            rows = draw(small)
            for _ in range(draw(st.integers(1, 6))):
                a, b = rng.sample(range(m), 2)
                c = rng.choice((-3, -2, -1, 1, 2, 3))
                rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
        elif kind == "orthogonal":
            rot = householder_rotation(rng, n, draw(st.integers(1, 3)))
            rows = [[rng.randint(1, 5) * x for x in rot[i]]
                    for i in rng.sample(range(n), m)]
        else:
            rows = turned(draw(small), householder_rotation(rng, n, 2))
        bases.append(rows)
    bases += draw(st.lists(st.sampled_from(bases), max_size=2))
    return n, bases


@settings(max_examples=40, deadline=None)
@given(given_bases())
def test_given_rows_leave_every_pair_key(case):
    # The m >= 3 engine orthogonalizes the rows a point was given in; the
    # same points rebuilt from their canonical rows, and the _pair_w loop,
    # give the same keys.
    n, bases = case
    try:
        points = [Subspace(n, b) for b in bases]
    except ValueError:
        assume(False)
    assume(any(p._given is not None for p in points))
    canonical = [Subspace(n, p.rows) for p in points]
    assert all(p == q and hash(p) == hash(q) and q._given is None
               for p, q in zip(points, canonical))
    stats = pair_stats(points, tmax=4)
    rebuilt = pair_stats(canonical, tmax=4)
    dist, sums = triple_reference(points, 4)
    assert stats.distribution == rebuilt.distribution == dist
    assert stats.sigma_pow == rebuilt.sigma_pow == sums
    orth = [grassmann._orthogonal((p._given or p.rows,) * 2) for p in points]
    assert cross_sweep(orth) == pair_loop([p.int_data() for p in points])


def test_given_rows_serve_the_orbit_rows():
    # A turned basis and its images under the cyclic shift of R^8, each
    # point kept in its shifted basis: one certified orbit row.
    rng = random.Random(3)
    rows = turned([[1, 2, 0, -1, 0, 0, 1, 0], [0, 1, 1, 0, 2, 0, 0, -1],
                   [1, 0, 0, 0, 1, 1, 0, 2]], householder_rotation(rng, 8, 2))
    shift = [[int(j == (i + 1) % 8) for j in range(8)] for i in range(8)]
    points = []
    for _ in range(8):
        points.append(Subspace(8, rows))
        rows = turned(rows, shift)
    assert all(p._given is not None for p in points)
    stats = pair_stats(points, tmax=3,
                       orbits=certified_orbits(points, [shift])[0])
    assert stats.orbits == 1
    rebuilt = pair_stats([Subspace(8, p.rows) for p in points], tmax=3)
    assert stats.distribution == rebuilt.distribution
    assert stats.sigma_pow == rebuilt.sigma_pow


def test_only_independent_given_rows_are_kept():
    rows = [[1, 2, 0, 0, 1, 0], [0, 1, 3, 0, 0, 0], [2, 0, 0, 1, 0, 1]]
    assert Subspace.span(6, rows)._given == tuple(map(tuple, rows))
    # A dependent span, a canonical basis and lines or planes keep none.
    extra = [sum(col) for col in zip(*rows)]
    span = Subspace.span(6, rows + [extra])
    assert span._given is None and span == Subspace(6, rows)
    assert Subspace(6, Subspace(6, rows).rows)._given is None
    assert Subspace(6, rows[:2])._given is None
    # Primitive rows: scaling a given row changes nothing.
    halves = [[F(x, 2) for x in rows[0]]] + rows[1:]
    assert Subspace(6, halves)._given == Subspace(6, rows)._given


JSON_ENTRIES = st.one_of(
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.tuples(st.integers(-99, 99), st.integers(1, 99)).map("{0[0]}/{0[1]}".format),
    st.decimals(-1000, 1000, places=3, allow_nan=False, allow_infinity=False)
    .map(str))


@settings(max_examples=100, deadline=None)
@example((3, [["-12", "0", "1/2"], ["0.25", "-0", "7"]]))
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(JSON_ENTRIES, min_size=n, max_size=n),
                         min_size=1, max_size=3))))
def test_string_rows_parse_as_their_rationals(data):
    # Integer strings become ints without a Fraction; 'p/q' and decimal
    # strings go through `rat`; the subspace is the same either way.
    n, rows = data
    try:
        expected = Subspace(n, RatMatrix(rows)).rows
    except ValueError:
        with pytest.raises(ValueError):
            Subspace(n, rows)
        return
    assert Subspace(n, rows).rows == expected
    cfg = Configuration.from_json_dict({"n": n, "m": len(expected),
                                        "points": [rows]})
    assert cfg.points[0].rows == expected


@settings(max_examples=100, deadline=None)
@example([0, -3, 6, 0])
@example([0, 0, 0, -2 ** 70])
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=6)
       .filter(any))
def test_one_integer_row_is_its_line_key(vec):
    n = len(vec)
    line = Subspace(n, [vec])
    assert line.rows == (grassmann.line_key(vec),)
    # The elimination path, taken by Fraction and string entries.
    assert line.rows == int_rref([primitive_int_row(vec)], n)
    assert Subspace(n, [[F(x) for x in vec]]) == line
    assert Subspace(n, [[str(x) for x in vec]]) == line


def triple_reference(points, tmax):
    """(distribution, sigma-power sums) from one exact (tr W, tr W^2, den)
    triple per pair i < j, each turned into a pair of Fractions."""
    data = [p.int_data() for p in points]
    m = len(data[0][0])
    rng = range(m)
    triples = Counter()
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            w, den = grassmann._pair_w(data[i], data[j])
            triples[sum(w[a][a] for a in rng),
                    sum(w[a][b] * w[b][a] for a in rng for b in rng), den] += 1
    dist = Counter({(F(m), F(m)): len(data)})
    for (trw, trw2, den), count in triples.items():
        dist[F(trw, den), F(trw2, den * den)] += 2 * count
    sums = {t: sum(c * s ** t for (s, _), c in dist.items())
            for t in range(1, max(tmax, 3) + 1)}
    return dict(dist), sums


def householder_rotation(rng, n, factors=2):
    """A product of integer Householder matrices (v.v) I - 2 v v^T, a
    rational rotation up to the scale of its rows."""
    rot = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(factors):
        v = [rng.randint(-3, 3) for _ in range(n)]
        if not any(v):
            v[0] = 1
        vv = sum(x * x for x in v)
        h = [[vv * (i == j) - 2 * v[i] * v[j] for j in range(n)]
             for i in range(n)]
        rot = [[sum(a * b for a, b in zip(row, col)) for col in zip(*h)]
               for row in rot]
    return rot


def signed_permutation_generators(n):
    """A transposition, an n-cycle and one sign change: they generate the
    signed permutations of R^n."""
    swap = [[int(j == (1 - i if i < 2 else i)) for j in range(n)] for i in range(n)]
    cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    flip = [[(-1 if i == 0 else 1) * (i == j) for j in range(n)] for i in range(n)]
    return [swap, cycle, flip]


def group_closure(seeds, generators):
    """The distinct images of the seed subspaces under the generated group."""
    mats = [RatMatrix(g) for g in generators]
    seen = list(dict.fromkeys(seeds))
    known = set(seen)
    for p in seen:
        for g in mats:
            q = p.transform(g)
            if q not in known:
                known.add(q)
                seen.append(q)
    return seen


def _rotated_cases():
    """(unrotated points, rotation, generators or None)."""
    rng = random.Random(11)
    gens = signed_permutation_generators(4)
    lines = group_closure([Subspace.line(v) for v in
                           ([1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 1, 1], [2, 1, 0, 0])],
                          gens)
    planes = group_closure([Subspace(4, [[1, 0, 0, 0], [0, 1, 1, 0]]),
                            Subspace(4, [[1, 1, 0, 0], [0, 0, 1, 1]])], gens)
    solids = [random_subspace(rng, 6, 3) for _ in range(70)]
    return [pytest.param(lines, householder_rotation(rng, 4), None, id="lines"),
            pytest.param(planes, householder_rotation(rng, 4), None, id="planes"),
            pytest.param(lines, householder_rotation(rng, 4), gens, id="orbit-lines"),
            pytest.param(planes, householder_rotation(rng, 4), gens, id="orbit-planes"),
            pytest.param(solids, householder_rotation(rng, 6), None, id="solids")]


@pytest.mark.parametrize("points, rot, gens", _rotated_cases())
def test_reduced_keys_match_triple_reference_on_rotations(points, rot, gens):
    rotated = [p.transform(RatMatrix(rot)) for p in points]
    orbits = None
    if gens is not None:
        # The rotated points are permuted by the conjugates R g R^T.
        n = range(len(rot))
        orbits, _ = certified_orbits(rotated, [
            [[sum(ri[a] * g[a][b] * rj[b] for a in n for b in n) for rj in rot]
             for ri in rot] for g in gens])
    stats = pair_stats(rotated, tmax=4, orbits=orbits)
    dist, sums = triple_reference(rotated, 4)
    assert stats.distribution == dist
    assert stats.sigma_pow == sums
    assert (stats.orbits is not None) == (gens is not None)
    # Rotations leave every principal angle in place.
    assert pair_stats(points, tmax=4).distribution == dist
    # The count sites key each angle class once, in lowest terms, however
    # the rotated Gram determinants differ.
    data = [p.int_data() for p in rotated]
    counts = (_packed_counts(data) if rotated[0].m <= 2 else
              cross_sweep([grassmann._orthogonal(r) for r in data]))
    assert len(counts) <= len(dist)
    assert all(gcd(a, b) == gcd(c, d) == 1 and b > 0 and d > 0
               for a, b, c, d in counts)


# Pair statistics of the 12 D4 lines changed so that one consistency check
# of `design_report` fails: (message, change of sum sigma, of power2).
_INCONSISTENT_STATS = [("zonal positivity", -36, 0),
                       ("monotone", 1, 5),
                       ("must vanish", 0, 1)]


def _raise_on_inconsistent_stats(d_sigma, d_power2):
    """Runs verify_design on the D4 lines with altered pair statistics and
    returns the AssertionError it raises (None if none)."""
    from dataclasses import replace
    cfg = lines_config(4, d4_line_vectors())
    real = grassmann.pair_stats(cfg.points, tmax=2)
    # The zonal sums read the distribution: move one pair of a real class.
    dist = dict(real.distribution)
    sigma, power2 = max(dist)
    dist[(sigma, power2)] -= 1
    moved = (sigma + d_sigma, power2 + d_power2)
    dist[moved] = dist.get(moved, 0) + 1
    fake = replace(real, distribution=dist,
                   sigma_pow={**real.sigma_pow, 1: real.sigma_pow[1] + d_sigma})
    saved = grassmann.pair_stats
    grassmann.pair_stats = lambda *args, **kwargs: fake
    try:
        verify_design(cfg, tmax=2)
    except AssertionError as exc:
        return exc
    finally:
        grassmann.pair_stats = saved
    return None


@pytest.mark.parametrize("message, d_sigma, d_power2", _INCONSISTENT_STATS)
def test_design_checks_raise_on_inconsistent_stats(message, d_sigma, d_power2):
    exc = _raise_on_inconsistent_stats(d_sigma, d_power2)
    assert exc is not None and message in str(exc)


def _run_python(code, *flags, path=None):
    """Runs code in a fresh interpreter that imports grassdex from this
    checkout (and modules from `path`)."""
    import grassdex
    src = os.path.dirname(os.path.dirname(grassdex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [p for p in [src, path, os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_design_checks_raise_under_optimize():
    here = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import sys\n"
        "if __debug__: sys.exit(4)\n"
        "from test_grassmann import _INCONSISTENT_STATS, "
        "_raise_on_inconsistent_stats\n"
        "for message, d_sigma, d_power2 in _INCONSISTENT_STATS:\n"
        "    exc = _raise_on_inconsistent_stats(d_sigma, d_power2)\n"
        "    if exc is None or message not in str(exc):\n"
        "        sys.exit(3)\n")
    proc = _run_python(code, "-O", path=here)
    assert proc.returncode == 0, proc.stderr


def test_cli_and_pair_engine_leave_numpy_unimported():
    # numpy alone adds about 11 MB of resident memory to a CLI run.
    code = (
        "import sys\n"
        "import grassdex.cli\n"
        "from grassdex.grassmann import Subspace, pair_stats\n"
        "lines = [Subspace.line(v) for v in ([1, 0, 0], [1, 1, 0], [1, 1, 1])]\n"
        "planes = [Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]]),\n"
        "          Subspace(4, [[1, 0, 1, 0], [0, 1, 0, 1]])]\n"
        "pair_stats(lines)\n"
        "pair_stats(planes)\n"
        "sys.exit(3 if 'numpy' in sys.modules else 0)\n")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
