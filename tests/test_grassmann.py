import concurrent.futures
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from math import gcd
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grassdex.clifford import clifford_generators
from grassdex.exactalg import (RatMatrix, det, int_rref, inverse, primitive_int_row,
                               rref, trace_pow)
from grassdex import grassmann
from grassdex.grassmann import (Configuration, Subspace,
                                _cross_rows, _diagonal, _frame_data,
                                _orbit_rows, average_sigma_power,
                                certified_orbits, design_report,
                                eval_zonal, intdata, metric_rows, pair_stats,
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


def orbit_loop(data, orbits):
    """`_pair_key` counts of the orbit rows {i: weight} from the per-pair W
    loop: the pairs (i, j) for every j, each counted weight times."""
    return w_loop(data, [(i, 0, w) for i, w in orbits.items()])


def full_sweep(data):
    """The packed cross engine over pair-engine records, each made
    orthogonal first, as `pair_stats` sweeps them."""
    return _cross_rows([grassmann._orthogonal(rec) for rec in data])


def sigma_sums(stats, tmax=3):
    """{t: sum of sigma^t} of a `PairStats` for t = 1..tmax."""
    return {t: stats.sigma_sum(t) for t in range(1, tmax + 1)}


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


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sigma_sum_matches_the_principal_power_sums_loop(m):
    # Every sigma^t sum, read from the distribution on demand, against the
    # loop over ordered pairs; one point repeated.
    rng = random.Random(17)
    points = [random_subspace(rng, 6, m) for _ in range(4)]
    points.append(points[0])
    stats = pair_stats(points)
    for t in range(1, 7):
        assert stats.sigma_sum(t) == sum(principal_power_sums(p, q, 1)[0] ** t
                                         for p in points for q in points)


def test_verify_design_requires_small_m():
    p = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        verify_design(Configuration(3, [p]), tmax=1)


def test_bad_design_ranges_are_refused_before_the_pair_engine(monkeypatch):
    # A tmax outside 1..MAX_T or 2m > n ends in ValueError before any pair
    # distribution (or `verify`'s frame) is computed.
    from grassdex import clifford, lattice
    from grassdex.binquad import enumerate_isotropic

    def refuse(*args, **kwargs):
        raise AssertionError("the pair engine ran on a refused range")

    for mod, name in ((grassmann, "pair_stats"), (grassmann, "_frame_data"),
                      (lattice, "pair_stats"), (clifford, "pair_stats"),
                      (clifford, "build_design")):
        monkeypatch.setattr(mod, name, refuse)
    d4 = lattice.catalog("D4")
    # `minimal_sections` itself refuses 2m > rank.
    lines = lattice.minimal_sections(d4, 1)
    cases = [
        lambda: verify_design(lines_config(4, d4_line_vectors()), tmax=0),
        lambda: verify_design(lines_config(4, d4_line_vectors()), tmax=4),
        lambda: verify_design(Configuration(
            3, [Subspace(3, [[1, 0, 0], [0, 1, 0]])]), tmax=1),
        lambda: lattice.section_design_report(d4, lines, tmax=0),
        lambda: lattice.section_design_report(d4, lines, tmax=4),
        lambda: clifford.verify_tt(enumerate_isotropic(2, 1), tmax=0),
        lambda: clifford.verify_tt(enumerate_isotropic(2, 1), tmax=4),
    ]
    for case in cases:
        with pytest.raises(ValueError, match="tmax must be|m <= n/2"):
            case()
    assert "stats" not in vars(lines)


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
    # The full sweep against the per-pair loop.
    points = [p.int_data() for p in cfg.points]
    assert full_sweep(points) == pair_loop(points)
    sums, power2 = projector_reference(cfg.points, 5)
    stats = pair_stats(cfg.points)
    assert {t: stats.sigma_sum(t) for t in sums} == sums
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
    points = [intdata(*metric_rows(c, gram)) for c in coords]
    assume(all(d for _, _, _, d in points))
    assert full_sweep(points) == pair_loop(points)


@st.composite
def wide_plane_rows(draw):
    """(coords, gram, orbits): m-sections, m = 1..4, in lattice coordinates
    under the Gram A A^T + I, with coordinates s 2^200 + t (0 < |s| <= 3,
    |t| < 2^60), so entries of 200 bits and more of both signs, and orbit
    rows {i: weight} at random points with random weights."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(max(m, 2), 5))
    a = draw(matrices(n, n))
    gram = [[sum(x * y for x, y in zip(r, c)) + (i == j) for j, c in enumerate(a)]
            for i, r in enumerate(a)]
    wide = st.builds(lambda s, t: (s << 200) + t,
                     st.sampled_from([-3, -2, -1, 1, 2, 3]),
                     st.integers(-(1 << 60), 1 << 60))
    coords = draw(st.lists(st.lists(st.lists(wide, min_size=n, max_size=n),
                                    min_size=m, max_size=m),
                           min_size=1, max_size=6))
    orbits = draw(st.dictionaries(st.integers(0, len(coords) - 1),
                                  st.integers(1, 10 ** 6), min_size=1,
                                  max_size=4))
    return coords, gram, orbits


@settings(max_examples=60, deadline=None)
@given(wide_plane_rows())
def test_orbit_row_kernel_matches_the_w_loop(case):
    # Both record kinds: Gram adjugate records of lattice coordinates, and
    # the diagonal records of the same rows as Subspaces of R^n.
    coords, gram, orbits = case
    data = [intdata(*metric_rows(c, gram)) for c in coords]
    assume(all(d > 0 for _, _, _, d in data))
    assume(len(data[0][2]) == 1 or any(adj[0][1] for _, _, adj, _ in data))
    assert _orbit_rows(data, orbits) == orbit_loop(data, orbits)
    try:
        points = [Subspace(len(gram), c) for c in coords]
    except ValueError:
        return
    rows = [(p._given or p.rows,) * 2 for p in points]
    ints = [p.int_data() for p in points]
    assert _orbit_rows(_diagonal(rows), orbits) == orbit_loop(ints, orbits)


def test_orbit_row_kernel_on_sections_and_eigenspaces():
    from grassdex.binquad import enumerate_isotropic
    from grassdex.clifford import build_design
    from grassdex.lattice import catalog, minimal_sections
    # The E8 minimal 2- and 3-sections, as the section report hands them
    # over, and the Subspaces of `clifford --k 3 --w 2` (planes) and
    # `--k 3 --w 1` (m = 4), as their adjugate and their diagonal records.
    cases = []
    for m in (2, 3):
        records = minimal_sections(catalog("E8"), m).records
        cases.append((records, records))
    for w in (2, 1):
        points = build_design(enumerate_isotropic(3, w)).config.points
        ints = [p.int_data() for p in points]
        rows = [(p._given or p.rows,) * 2 for p in points]
        cases += [(ints, ints), (ints, _diagonal(rows))]
    for data, records in cases:
        n = len(data)
        orbits = {0: n, 5: 1, n // 2: 7, n - 1: 2}
        assert _orbit_rows(records, orbits) == orbit_loop(data, orbits)


def test_line_row_kernel_matches_the_w_loop():
    # Lines of several norms, and the BW16 minimal lines as the section
    # report hands them over: each row counts its distinct (c, det G_q)
    # once.
    from grassdex.lattice import catalog, minimal_sections
    rng = random.Random(5)
    vecs = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(40)]
    mixed = [Subspace.line(v).int_data() for v in vecs if any(v)]
    bw16 = minimal_sections(catalog("BW16"), 1).records
    for data in (mixed, bw16):
        n = len(data)
        orbits = {0: n, 5: 1, n // 2: 7, n - 1: 2}
        assert _orbit_rows(data, orbits) == orbit_loop(data, orbits)


def test_packed_slots_pass_64_bits(monkeypatch):
    # The explicit examples above do reach the byte-by-byte slot reader.
    widths = []

    class Recording(grassmann._PackedColumns):
        def __init__(self, xs, ys, classes, group=1):
            super().__init__(xs, ys, classes, group)
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
    assert full_sweep(data) == pair_loop(data)


def test_rotated_planes_sweep_across_blocks(monkeypatch):
    from grassdex.binquad import enumerate_isotropic
    from grassdex.clifford import build_design
    # k = 3, w = 2 eigenspace planes (Gram determinants 1, 4 and 16: one
    # square class), rotated so that the determinants differ; their 400
    # columns span two packed blocks.
    points = build_design(enumerate_isotropic(3, 2)).config.points[:200]
    rot = RatMatrix(householder_rotation(random.Random(3), 8, factors=4))
    data = [p.transform(rot).int_data() for p in points]
    assert len({d for _, _, _, d in data}) > 20
    blocks = []

    class Recording(grassmann._PackedColumns):
        def __init__(self, xs, ys, classes, group=1):
            super().__init__(xs, ys, classes, group)
            blocks.append(len(self.blocks))

    monkeypatch.setattr(grassmann, "_PackedColumns", Recording)
    assert full_sweep(data) == pair_loop(data)
    assert blocks == [2]


def test_lines_of_one_square_class_match_the_pair_loop():
    # Square norms 5^2, 7^2, 13^2, 17^2: one square class of Gram
    # determinants, four weight classes.
    data = [Subspace.line(v).int_data()
            for v in ([3, 4, 0], [2, 3, 6], [5, 0, 12], [8, 9, 12])]
    assert len(grassmann._square_classes([d for *_, d in data])) == 1
    assert full_sweep(data) == pair_loop(data)


def test_lines_of_two_square_classes_match_the_pair_loop():
    # The four lines above and three lines of norm 2, a second square class.
    data = [Subspace.line(v).int_data()
            for v in ([3, 4, 0], [1, 1, 0], [2, 3, 6], [5, 0, 12], [1, 0, -1],
                      [8, 9, 12], [0, 1, 1])]
    assert len(grassmann._square_classes([d for *_, d in data])) == 2
    assert full_sweep(data) == pair_loop(data)


def assert_cross_matches_loop(data, orbits):
    """The packed cross engine (the full sweep) and the orbit-row kernel on
    the diagonal records of the same rows (the `orbits` rows) against the
    per-pair W loop, key for key.  Returns the weight classes (w, l) of
    the points and the slot widths in bits of the engine's packed columns:
    a native width (8, 16, 32 or 64) is decoded in place, a wider one
    slot by slot."""
    widths = []

    class Recording(grassmann._PackedColumns):
        def __init__(self, xs, ys, classes, group=1):
            super().__init__(xs, ys, classes, group)
            widths.append(8 * self.nbytes)
            assert (self.fmt is None) == (widths[-1] > 64)

    orth = [grassmann._orthogonal(rec) for rec in data]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grassmann, "_PackedColumns", Recording)
        assert _cross_rows(orth) == pair_loop(data)
        assert (_orbit_rows(_diagonal([rec[:2] for rec in data]), orbits)
                == orbit_loop(data, orbits))
    return {(tuple(w), l) for _, _, w, l in orth}, widths


def orbit_weights(size):
    """Orbit rows {i: weight} of the orbit-row kernel: up to four row
    points, weights 1 to 10^6."""
    return st.dictionaries(st.integers(0, size - 1), st.integers(1, 10 ** 6),
                           max_size=4)


@st.composite
def sweep_configurations(draw):
    """Bases of m = 1..6 dimensional subspaces of R^n, n = max(2, 2m)..12,
    some of them repeated; packed blocks of 1 byte (one point each), 100
    bytes or the default, so rows start at and inside blocks."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(max(2, 2 * m), 12))
    bases = [draw(matrices(m, n)) for _ in range(draw(st.integers(2, 5)))]
    bases += draw(st.lists(st.sampled_from(bases), max_size=2))
    orbits = draw(orbit_weights(len(bases)))
    return n, bases, orbits, draw(st.sampled_from((1, 100, 2048)))


@settings(max_examples=40, deadline=None)
@example((6, [[[2 ** 40 + 1, 3, 0, 7, 0, 1], [5, -2 ** 41, 1, 0, 2, 0],
               [0, 1, 2 ** 39, 0, 0, -3]],
              [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
              [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]],
              [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]]],
          {0: 1, 2: 2, 3: 1}, 100))
@given(sweep_configurations())
def test_cross_engine_matches_pair_loop(case):
    n, bases, orbits, block_bytes = case
    try:
        data = [Subspace(n, b).int_data() for b in bases]
    except ValueError:
        assume(False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grassmann, "_BLOCK_BYTES", block_bytes)
        assert_cross_matches_loop(data, orbits)


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
    return bases, rots, picks, draw(orbit_weights(len(picks)))


@settings(max_examples=30, deadline=None)
@given(rotated_solids())
def test_cross_engine_matches_pair_loop_on_rotations(case):
    bases, rots, picks, orbits = case
    try:
        data = [Subspace(8, bases[b]).transform(rots[r]).int_data()
                for b, r in picks]
    except ValueError:
        assume(False)
    assert_cross_matches_loop(data, orbits)


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
    return gram, coords, draw(orbit_weights(len(coords)))


@settings(max_examples=30, deadline=None)
@example(([[2, 1, 0, 0, 0, 0], [1, 2, 1, 0, 0, 0], [0, 1, 2, 1, 0, 0],
           [0, 0, 1, 2, 1, 0], [0, 0, 0, 1, 2, 1], [0, 0, 0, 0, 1, 2]],
          [[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
           [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]],
           [[2 ** 40, -1, 3, 0, 0, 1], [0, 1, -2 ** 39, 5, 0, 0],
            [0, 0, 1, 0, 7, 0]]],
          {0: 1, 1: 3}))
@given(metric_solids())
def test_cross_engine_matches_pair_loop_on_metric_data(case):
    gram, coords, orbits = case
    assume(any(gram[i][j] for i in range(len(gram)) for j in range(i)))
    data = [intdata(*metric_rows(c, gram)) for c in coords]
    assume(all(d for _, _, _, d in data))
    assert_cross_matches_loop(data, orbits)


@st.composite
def sparse_solids(draw):
    """m = 3 or 4 subspaces of R^n, n = m + 1..7, of sparse rows with
    entries up to 4000: Gram-Schmidt leaves sparse rows nearly as they
    are, so points fall into a few weight classes (w, l), while the wide
    entries push the packed slots past 64 bits.  Some points are repeated."""
    m = draw(st.integers(3, 4))
    n = draw(st.integers(m + 1, 7))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      st.integers(-4000, 4000))
    sparse = st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=m, max_size=m)
    bases = [draw(sparse) for _ in range(draw(st.integers(2, 5)))]
    bases += draw(st.lists(st.sampled_from(bases), max_size=3))
    return n, bases, draw(orbit_weights(len(bases)))


# Slots wider than 64 bits, with no native format: rows found by Hypothesis
# when the engine decoded records only by `memoryview.cast`.
WIDE_ROWS = [[0, 0, 1, 1], [0, 568, 0, 3], [3311, 0, 0, 477]]


@settings(max_examples=40, deadline=None)
@example((4, [WIDE_ROWS, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
              [[0, 0, 1, 1], [0, 1, 0, 0], [1, 0, 0, 0]], WIDE_ROWS],
          {0: 2, 1: 1, 3: 3}))
@given(sparse_solids())
def test_cross_engine_matches_pair_loop_on_sparse_rows(case):
    n, bases, orbits = case
    try:
        data = [Subspace(n, b).int_data() for b in bases]
    except ValueError:
        assume(False)
    assert_cross_matches_loop(data, orbits)


def test_cross_engine_slots_pass_64_bits():
    # Wide slots are decoded slot by slot, narrow ones in place; both sides
    # of each pair span several weight classes, a point is repeated and the
    # orbit rows weigh their points 1 to 3.
    big = [[2 ** 40 + 1, 3, 0, 7, 0, 1], [5, -2 ** 41, 1, 0, 2, 0],
           [0, 1, 2 ** 39, 0, 0, -3]]
    small = [[1, 0, 0, 1, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 0, 0, 1, 1]]
    skew = [[1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]
    narrow = [[1, 2, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0]]
    orbits = {0: 1, 1: 3, 3: 2}
    for first, wide in ((big, True), (narrow, False)):
        data = [Subspace(6, b).int_data() for b in (first, small, skew, first)]
        classes, widths = assert_cross_matches_loop(data, orbits)
        assert len(classes) == 3
        assert {w > 64 for w in widths} == {wide}
    data = [Subspace(4, b).int_data()
            for b in (WIDE_ROWS, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])]
    classes, widths = assert_cross_matches_loop(data, {0: 2, 1: 1})
    assert len(classes) == 2 and min(widths) > 64


def test_cross_engine_keys_each_distinct_record_once(monkeypatch):
    # The 180 eigenspaces of the (4, 2) spread: 16,110 pairs i < j, but
    # pairs at one angle share their cross matrix, so the sweep keys
    # far fewer records than pairs, with the per-pair loop's counts.
    from grassdex import binquad, clifford
    config = clifford.build_design(binquad.spread(4, 2)).config
    assert (len(config), config.m) == (180, 4)
    calls = []
    key = grassmann._pair_key
    monkeypatch.setattr(grassmann, "_pair_key",
                        lambda *args: calls.append(args) or key(*args))
    orth = [grassmann._orthogonal((p._given or p.rows,) * 2) for p in config]
    counts = _cross_rows(orth)
    monkeypatch.undo()
    assert sum(counts.values()) == 16110
    assert len(calls) < 16110 // 10
    assert counts == pair_loop([p.int_data() for p in config])


def test_cross_engine_pool_matches_pair_loop(monkeypatch):
    # 70 m = 4 points, three of them repeated: the cross engine sweeps them
    # in this process, and starting a process pool fails the test.
    def refuse(*args, **kwargs):
        raise AssertionError("pair_stats started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    rng = random.Random(5)
    points = [random_subspace(rng, 8, 4) for _ in range(67)]
    points += points[:3]
    stats = pair_stats(points)
    dist, sums = triple_reference(points, 3)
    assert stats.distribution == dist and sigma_sums(stats) == sums


def test_pair_stats_refuses_no_points():
    with pytest.raises(ValueError, match="at least one point"):
        pair_stats([])


def turned(rows, rot):
    """The rows times the matrix rot, as they are: not canonicalized."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*rot)]
            for row in rows]


@st.composite
def given_bases(draw):
    """(n, bases) for m = 1..5 subspaces of R^n, n up to 12, each written in
    a basis other than its canonical rows: a unimodular mix of small rows,
    scaled rows of an integer Householder product (an orthogonal basis), or
    small rows turned by one.  A line's integer row is read as its line
    key, so lines come as Fractions, which keep a negative pivot."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(m + 1, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    small = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                     min_size=m, max_size=m)
    bases = []
    kinds = st.sampled_from(("mix", "orthogonal", "turned"))
    for kind in draw(st.lists(kinds, min_size=2, max_size=6)):
        if kind == "mix":
            rows = draw(small)
            for _ in range(draw(st.integers(1, 6)) if m > 1 else 0):
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
    if m == 1:
        bases = [[[F(x) for x in row] for row in rows] for rows in bases]
    return n, bases


@settings(max_examples=40, deadline=None)
@given(given_bases())
def test_given_rows_leave_every_pair_key(case):
    # Every engine reads the rows a point was given in (the m >= 3 one
    # orthogonalizes them); the same points rebuilt from their canonical
    # rows, and the _pair_w loop, give the same keys.
    n, bases = case
    try:
        points = [Subspace(n, b) for b in bases]
    except ValueError:
        assume(False)
    assume(any(p._given is not None for p in points))
    assert all(p.int_data()[0] == (p._given or p.rows) for p in points)
    canonical = [Subspace(n, p.rows) for p in points]
    assert all(p == q and hash(p) == hash(q) and q._given is None
               for p, q in zip(points, canonical))
    stats = pair_stats(points)
    rebuilt = pair_stats(canonical)
    dist, sums = triple_reference(points, 4)
    assert stats.distribution == rebuilt.distribution == dist
    assert sigma_sums(stats, 4) == sigma_sums(rebuilt, 4) == sums
    orth = [grassmann._orthogonal((p._given or p.rows,) * 2) for p in points]
    assert _cross_rows(orth) == pair_loop([p.int_data() for p in points])


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
    stats = pair_stats(points, orbits=certified_orbits(points, [shift])[0])
    assert stats.orbits == 1
    rebuilt = pair_stats([Subspace(8, p.rows) for p in points])
    assert stats.distribution == rebuilt.distribution
    assert sigma_sums(stats) == sigma_sums(rebuilt)


def test_only_independent_given_rows_are_kept():
    rows = [[1, 2, 0, 0, 1, 0], [0, 1, 3, 0, 0, 0], [2, 0, 0, 1, 0, 1]]
    assert Subspace.span(6, rows)._given == tuple(map(tuple, rows))
    # A dependent span and a canonical basis keep none; planes keep theirs.
    extra = [sum(col) for col in zip(*rows)]
    span = Subspace.span(6, rows + [extra])
    assert span._given is None and span == Subspace(6, rows)
    assert Subspace(6, Subspace(6, rows).rows)._given is None
    assert Subspace(6, rows[:2])._given == tuple(map(tuple, rows[:2]))
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


@st.composite
def disjoint_support_rows(draw, n=None):
    """(n, rows): integer rows whose supports are pairwise disjoint, as
    `clifford.eigenspaces` builds them.  Each column belongs to one row or
    to none; entries take either sign, so pivots may be negative, and a row
    that owns no column is zero."""
    if n is None:
        n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 4))
    owner = draw(st.lists(st.integers(-1, m - 1), min_size=n, max_size=n))
    entry = st.integers(-2 ** 70, 2 ** 70).filter(bool)
    rows = [[draw(entry) if owner[j] == i else 0 for j in range(n)]
            for i in range(m)]
    return n, rows


def _subspace_or_error(n, rows, **kwargs):
    try:
        return Subspace(n, rows, **kwargs).rows
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@example((3, [[0, 0, -4], [-6, 0, 0]]), random.Random(0))
@example((4, [[0, 2, 0, -2], [0, 0, 0, 0], [1, 0, 0, 0]]), random.Random(0))
@given(disjoint_support_rows(), st.randoms(use_true_random=False))
def test_disjoint_support_rows_take_sorted_line_keys(case, rng):
    n, rows = case
    ref = int_rref([primitive_int_row(r) for r in rows], n)
    zero = not all(map(any, rows))
    assert grassmann.disjoint_keys(rows, n) == (None if zero else ref)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    for order in (rows, shuffled):
        with mock.patch.object(grassmann, "int_rref", wraps=int_rref) as spy:
            # Zero rows take elimination, which drops them for a span and
            # refuses them otherwise.
            if ref:
                assert Subspace.span(n, order).rows == ref
            else:
                with pytest.raises(ValueError, match="positive dimension"):
                    Subspace.span(n, order)
            if zero:
                with pytest.raises(ValueError):
                    Subspace(n, order)
            else:
                point = Subspace(n, order)
                assert point.rows == ref and point._given is None
        assert spy.called == zero
    # Fraction and string entries pay nothing for the fast path: they
    # take elimination and give the same rows or the same refusal.
    for conv in (F, str):
        converted = [[conv(x) for x in r] for r in rows]
        with mock.patch.object(grassmann, "int_rref", wraps=int_rref) as spy:
            assert (_subspace_or_error(n, converted, allow_dependent=True)
                    == _subspace_or_error(n, rows, allow_dependent=True))
        assert spy.called
    # Rows of the wrong length are refused as before.
    with pytest.raises(ValueError, match="columns"):
        Subspace(n + 1, rows)
    if n > 1:
        with pytest.raises(ValueError, match="columns"):
            Subspace(n, rows[:-1] + [rows[-1][:-1]])


@settings(max_examples=100, deadline=None)
@example((3, [[1, 0, 0], [0, 0, 0], [-2, 3, 0]]), 0, 0)
@given(disjoint_support_rows().filter(lambda c: len(c[1]) > 1),
       st.integers(0, 7), st.integers(0, 3))
def test_overlapping_supports_take_elimination(case, col, other):
    # One more nonzero entry in another row's column makes two supports
    # meet; elimination then gives the canonical rows.
    n, rows = case
    col %= n
    owner = next((i for i, r in enumerate(rows) if r[col]), 0)
    other = (owner + 1 + other % (len(rows) - 1)) % len(rows)
    rows[owner][col] = rows[owner][col] or 1
    rows[other][col] = -3
    assert grassmann.disjoint_keys(rows, n) is None
    ref = int_rref([primitive_int_row(r) for r in rows], n)
    with mock.patch.object(grassmann, "int_rref", wraps=int_rref) as spy:
        assert Subspace.span(n, rows).rows == ref
        assert _subspace_or_error(n, rows) == (
            ref if len(ref) == len(rows) else "basis rows are linearly dependent")
    assert spy.call_count == 2


def _h_first(k):
    """`h_first` of `clifford_generators(k)`: S (x) I with S = [[1, 1],
    [1, -1]], a two-layer butterfly."""
    return next(g.matrix for g in clifford_generators(k)
                if g.name == "h_first")


@settings(max_examples=100, deadline=None)
@given(disjoint_support_rows(n=8).filter(lambda c: any(map(any, c[1]))),
       st.permutations(range(8)),
       st.lists(st.sampled_from((1, -1)), min_size=8, max_size=8))
def test_int_action_key_takes_line_keys_of_disjoint_images(case, perm, signs):
    n, rows = case
    rows = Subspace.span(n, rows).rows
    signed = RatMatrix([[signs[i] if j == perm[i] else 0 for j in range(n)]
                        for i in range(n)])
    for g in (signed, _h_first(3)):
        act = grassmann.IntAction(g)
        images = [act.image(r) for r in rows]
        expect = int_rref(images, n)
        assert expect == Subspace(n, rows).transform(g).rows
        keys = grassmann.disjoint_keys(images, n)
        # A signed permutation keeps supports disjoint; the butterfly may
        # not, and then the key falls back to elimination.
        if g is signed:
            assert keys == expect
        else:
            assert keys in (None, expect)
        with mock.patch.object(grassmann, "int_rref", wraps=int_rref) as spy:
            assert act.keys([rows])[0] == expect
        assert spy.called == (keys is None and len(rows) > 1)
        # An image that is zero falls back too.
        if len(rows) > 1:
            with mock.patch.object(grassmann, "int_rref",
                                   wraps=int_rref) as spy:
                assert act.keys([rows + ((0,) * n,)])[0] == expect
            assert spy.called


def test_int_action_key_overlapping_butterfly_image():
    # h_first maps e_0 and e_4 to e_0 + e_4 and e_0 - e_4, which overlap.
    act = grassmann.IntAction(_h_first(3))
    rows = ((1,) + (0,) * 7, (0,) * 4 + (1,) + (0,) * 3)
    assert grassmann.disjoint_keys([act.image(r) for r in rows], 8) is None
    assert act.keys([rows])[0] == rows


# Kernel entries: mostly zero, often +-1, sometimes small or big.
KERNEL_ENTRY = st.one_of(st.just(0), st.sampled_from((1, -1)),
                         st.integers(-5, 5), st.integers(-2 ** 80, 2 ** 80))


@st.composite
def kernel_cases(draw):
    """(g, rows): an integer matrix, one of its rows and one of its columns
    often zeroed, and 0 to 40 integer rows of its width."""
    n_out, n_in = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    g = draw(st.lists(st.lists(KERNEL_ENTRY, min_size=n_in, max_size=n_in),
                      min_size=n_out, max_size=n_out))
    zero_row = draw(st.none() | st.integers(0, n_out - 1))
    zero_col = draw(st.none() | st.integers(0, n_in - 1))
    g = [[0 if zero_row == i or zero_col == j else x
          for j, x in enumerate(r)] for i, r in enumerate(g)]
    rows = draw(st.lists(st.tuples(*[KERNEL_ENTRY] * n_in), max_size=40))
    return g, rows


def _dense_images(g, rows):
    """g row for each row by plain dot products: the kernel's reference."""
    return [tuple(sum(map(mul, gi, row)) for gi in g) for row in rows]


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
@example(([[0, 0], [0, 0]], [(1, 2)]))
@example(([[1, 0], [0, -1]], []))
@example(([[2 ** 90, -1], [0, 1]], [(3, -2 ** 70)] * 3))
def test_index_map_images_equal_dense_products(case):
    g, rows = case
    im = grassmann.IndexMap(g)
    got = im.images(rows)
    assert got == _dense_images(g, rows)
    assert all(type(v) is tuple for v in got)
    # A one-row call is the kernel on a list of one row.
    assert [im.image(r) for r in rows] == got


def test_index_map_images_many_rows():
    rng = random.Random(11)
    g = [[rng.choice((0, 0, 1, -1, 3, -2 ** 75)) for _ in range(16)]
         for _ in range(16)]
    g[5] = [0] * 16
    rows = [tuple(rng.randint(-2 ** 40, 2 ** 40) for _ in range(16))
            for _ in range(3000)]
    assert grassmann.IndexMap(g).images(rows) == _dense_images(g, rows)


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
    stats = pair_stats(rotated, orbits=orbits)
    dist, sums = triple_reference(rotated, 4)
    assert stats.distribution == dist
    assert sigma_sums(stats, 4) == sums
    assert (stats.orbits is not None) == (gens is not None)
    # Rotations leave every principal angle in place.
    assert pair_stats(points).distribution == dist
    # The count sites key each angle class once, in lowest terms, however
    # the rotated Gram determinants differ.
    counts = full_sweep([p.int_data() for p in rotated])
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
    real = grassmann.pair_stats(cfg.points)
    # The zonal sums read the distribution: move one pair of a real class.
    dist = dict(real.distribution)
    sigma, power2 = max(dist)
    dist[(sigma, power2)] -= 1
    moved = (sigma + d_sigma, power2 + d_power2)
    dist[moved] = dist.get(moved, 0) + 1
    fake = replace(real, distribution=dist)
    fake.sigma_sum = lambda t: real.sigma_sum(t) + (d_sigma if t == 1 else 0)
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


@st.composite
def frame_configurations(draw):
    """(n, bases, rotation): bases of points of G(m, n), m = 1..4, with small
    entries in their first r coordinates, m <= r <= n, so that the span can
    have rank below n, some of them repeated; the rotation, an integer
    Householder product or None, turns every point."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2 * m, 8))
    r = draw(st.integers(m, n))
    rows = st.lists(st.integers(-2, 2), min_size=r, max_size=r)
    bases = [[row + [0] * (n - r) for row in
              draw(st.lists(rows, min_size=m, max_size=m))]
             for _ in range(draw(st.integers(1, 4)))]
    bases += draw(st.lists(st.sampled_from(bases), max_size=2))
    rotation = None
    if draw(st.booleans()):
        rotation = householder_rotation(random.Random(draw(st.integers(0, 2 ** 16))),
                                        n, draw(st.integers(1, 3)))
    return n, bases, rotation


def frame_taken(config, tmax=3) -> bool:
    """Asserts that the frame data give the points' pair statistics and that
    `verify_design` and `average_sigma_power` give their design report and
    averages; True when the frame was taken."""
    data, frame = _frame_data(config)
    ours, theirs = pair_stats(data), pair_stats(config.points)
    assert ours.distribution == theirs.distribution
    assert sigma_sums(ours, max(tmax, 3)) == sigma_sums(theirs, max(tmax, 3))
    assert (average_sigma_power(config, tmax)
            == theirs.sigma_sum(tmax) / len(config) ** 2)
    report = verify_design(config, tmax)
    assert report.frame == frame
    assert report.to_json_dict() == design_report(
        pair_stats(config.points), config.n, tmax).to_json_dict()
    return frame is not None


def test_frame_keeps_every_pair_statistic():
    taken = set()

    @settings(max_examples=80, deadline=None)
    @given(frame_configurations())
    def check(case):
        n, bases, rotation = case
        try:
            points = [Subspace(n, b) for b in bases]
        except ValueError:
            assume(False)
        if rotation:
            points = [p.transform(RatMatrix(rotation)) for p in points]
        taken.add(frame_taken(Configuration(n, points)))

    check()
    assert taken == {False, True}


def test_frame_declines_two_square_classes(monkeypatch):
    # Gram-Schmidt turns the lines' rows into frame norms 3, 6 and 1, three
    # square classes; the metric diag(3, 6, 1) / 1 is wider than the rows'
    # single bit, so the points stay as they are.
    found = []
    classes = grassmann._square_classes
    monkeypatch.setattr(grassmann, "_square_classes",
                        lambda dets: found.append(classes(dets)) or found[-1])
    cfg = lines_config(6, [[1, 1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0],
                           [0, 0, 0, 1, 0, 0], [1, 0, 0, 1, 0, 0]] * 2)
    assert not frame_taken(cfg)
    assert len(found[0]) == 3


def test_frame_ties_keep_the_points():
    # The axes are their own frame: coordinates and metric as narrow as
    # the rows, so the points stay as they are.
    cfg = lines_config(4, [[int(i == j) for j in range(4)] for i in range(4)])
    data, frame = _frame_data(cfg)
    assert frame is None and data is cfg.points


def _corrupted_frame_raises() -> bool:
    """True when `verify_design` raises ArithmeticError on a frame whose
    coordinate rows are each one off in their first entry."""
    coords = grassmann._frame_coords

    def corrupted(u, frame, mults):
        y, h = coords(u, frame, mults)
        return [y[0] + 1] + y[1:], h

    rot = RatMatrix(householder_rotation(random.Random(5), 4, factors=3))
    cfg = lines_config(4, d4_line_vectors())
    rotated = Configuration(4, [p.transform(rot) for p in cfg.points])
    assert verify_design(rotated).frame
    with mock.patch.object(grassmann, "_frame_coords", corrupted):
        try:
            verify_design(rotated)
        except ArithmeticError:
            return True
    return False


def test_frame_certificate_raises():
    assert _corrupted_frame_raises()


def test_frame_certificate_raises_under_optimize():
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys\n"
            "if __debug__: sys.exit(4)\n"
            "from test_grassmann import _corrupted_frame_raises\n"
            "sys.exit(0 if _corrupted_frame_raises() else 3)\n")
    proc = _run_python(code, "-O", path=here)
    assert proc.returncode == 0, proc.stderr
