import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction as F
from math import isqrt, lcm, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grassdex import lattice as lattice_mod
from grassdex.exactalg import (RatMatrix, det, hnf, inverse, saturate_rows,
                               verify_combination)
from grassdex.grassmann import (Configuration, Subspace, adj_product, intdata,
                                metric_rows, verify_design)
from grassdex.lattice import (Lattice, barnes_wall, catalog, check_eutaxy,
                              check_perfection, minimal_line_configuration,
                              minimal_line_keys, minimal_sections, rankin, section_design_report,
                              section_subspaces, short_vectors,
                              short_vectors_with_norms, similar_to, theta_shells)
from grassdex.zonal import constant_c

from test_section_search import _in_line_key_order, _searched


def coord_norm(lat, coords):
    """x^T G x for the coordinate vector x, from the rational Gram matrix."""
    g = lat.gram.entries
    return sum(a * g[i][j] * b for i, a in enumerate(coords)
               for j, b in enumerate(coords))


@pytest.fixture(scope="module")
def d4():
    return catalog("D4")


@pytest.fixture(scope="module")
def e8():
    return catalog("E8")


def test_catalog_invariants(d4, e8):
    z4 = catalog("Z4")
    assert z4.det() == 1 and z4.minimum() == 1
    assert d4.det() == 4 and d4.minimum() == 2
    assert e8.det() == 1 and e8.minimum() == 2
    e6, e7 = catalog("E6"), catalog("E7")
    assert (e6.rank, e6.det(), e6.minimum()) == (6, 3, 2)
    assert (e7.rank, e7.det(), e7.minimum()) == (7, 2, 2)
    with pytest.raises(ValueError):
        catalog("K12")


GRAM_CASES = {
    **{name: (lambda name=name: catalog(name))
       for name in ("Z1", "Z5", "D4", "E6", "E7", "E8", "BW16")},
    "BW8-raw": lambda: barnes_wall(3),
    "BW8": lambda: barnes_wall(3, normalized=True),
    "BW16-raw": lambda: barnes_wall(4),
    "rational": lambda: Lattice([[F(1, 2), F(1, 3), 0], [0, F(2, 3), F(1, 6)],
                                 [1, 0, F(5, 4)]]),
}


@pytest.mark.parametrize("name", list(GRAM_CASES))
def test_gram_from_the_integer_basis(name):
    # B_int B_int^T / den^2, reduced by gcd(content, den^2), against the
    # Gram multiplied out in Fractions and scaled by its denominators' lcm.
    lat = GRAM_CASES[name]()
    gram = lat.basis @ lat.basis.transpose()
    scale = lcm(*(x.denominator for row in gram.entries for x in row))
    assert lat.gram == gram
    assert lat._gram_scale == scale
    assert lat._gram_int == [[int(x * scale) for x in row] for row in gram.entries]


def test_lattice_requires_positive_definite():
    with pytest.raises(ValueError):
        Lattice([[1, 0], [1, 0]])


def test_short_vectors_counts(d4, e8):
    assert len(short_vectors(catalog("Z2"), 1)) == 4
    assert len(short_vectors(d4, 2)) == 24
    assert len(short_vectors(e8, 2)) == 240
    assert len(short_vectors(e8, 2, half=True)) == 120


def test_short_vectors_sign_symmetry(d4):
    vs = set(short_vectors(d4, 4))
    assert all(tuple(-x for x in v) in vs for v in vs)


def test_short_vectors_exactness_against_exhaustive_box():
    # Independent oracle: exhaustive coefficient box for a small skew basis.
    lat = Lattice([[2, 1], [1, 3]])
    got = sorted(short_vectors(lat, 12))
    box = []
    for a in range(-6, 7):
        for b in range(-6, 7):
            if (a, b) == (0, 0):
                continue
            if coord_norm(lat, (a, b)) <= 12:
                box.append((a, b))
    assert got == sorted(box)


def test_short_vectors_random_bases_against_certified_box():
    # Oracle with a certified radius: if G - l*I stays positive definite
    # then Q(x) >= l |x|^2, so every vector of norm <= bound lies in the
    # integer box of radius sqrt(bound / l).
    import itertools
    import random
    from fractions import Fraction
    from math import isqrt
    from grassdex.lattice import _int_scaled, _ldl

    rng = random.Random(55)
    trials = 0
    while trials < 6:
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        try:
            lat = Lattice(rows)
        except ValueError:
            continue
        lower = None
        for cand in (Fraction(1, 4), Fraction(1, 2), 1, 2):
            shifted = RatMatrix([[lat.gram[i, j] - (cand if i == j else 0)
                                  for j in range(3)] for i in range(3)])
            try:
                _ldl(_int_scaled(shifted)[0])
                lower = cand
            except ValueError:
                break
        if lower is None:
            continue
        trials += 1
        bound = lat.minimum() * 3
        radius = isqrt(int(bound / lower)) + 1
        box = [c for c in itertools.product(range(-radius, radius + 1), repeat=3)
               if any(c) and coord_norm(lat, c) <= bound]
        assert sorted(short_vectors(lat, bound)) == sorted(box)


@st.composite
def skewed_bases(draw):
    """Rational bases (rank 1-4, denominators up to 6), possibly dependent,
    then skewed by a few elementary unimodular row operations."""
    rank = draw(st.integers(1, 4))
    n = draw(st.integers(rank, rank + 1))
    entry = st.builds(F, st.integers(-3, 3), st.integers(1, 6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=rank, max_size=rank))
    ops = st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1),
                    st.integers(-2, 2))
    for i, j, c in draw(st.lists(ops, max_size=4)):
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=80, deadline=None)
@given(rows=skewed_bases(), factor=st.fractions(1, 3, max_denominator=5),
       half=st.booleans(), off_grid=st.booleans())
def test_enumerator_matches_certified_box(rows, factor, half, off_grid):
    basis = RatMatrix(rows)
    gram = basis @ basis.transpose()
    if det(gram) == 0:
        with pytest.raises(ValueError):
            Lattice(rows)
        return
    lat = Lattice(rows)
    s = lat._gram_scale
    bound = lat.minimum() * factor
    if off_grid:
        # s * bound = k + 1/2, so the integer cap floor(s * bound) is strict.
        bound = F(2 * (bound.numerator * s // bound.denominator) + 1, 2 * s)
    # Certified box: x_i^2 <= (x^T G x) (G^-1)_ii (Cauchy-Schwarz).
    ginv = inverse(gram)
    radii = [isqrt(int(bound * ginv[i, i])) for i in range(lat.rank)]
    assume(prod(2 * r + 1 for r in radii) <= 3000)

    def norm(c):
        # Independent of the integer Gram: the ambient vector in Fractions.
        v = [sum(ci * basis[i, j] for i, ci in enumerate(c)) for j in range(lat.n)]
        return sum(x * x for x in v)

    box = []
    for c in itertools.product(*(range(-r, r + 1) for r in radii)):
        nz = [x for x in c if x]
        if nz and (not half or nz[-1] > 0) and norm(c) <= bound:
            box.append((c, norm(c)))
    got = short_vectors_with_norms(lat, bound, half=half)
    assert sorted(got) == sorted(box)
    assert [c for c, _ in got] == short_vectors(lat, bound, half=half)
    assert all(nrm == coord_norm(lat, c) for c, nrm in got)


def test_one_enumeration_per_lattice(monkeypatch):
    calls = []
    real = lattice_mod._enumerate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(lattice_mod, "_enumerate", counting)
    bw16 = catalog("BW16")
    assert bw16.minimum() == 4
    lines = minimal_sections(bw16, 1)
    assert len(lines) == 2160 and len(calls) == 1
    kept = [c for c, in lines.coords]
    assert kept == short_vectors(bw16, 4, half=True)
    calls.clear()
    raw_lat = barnes_wall(4)
    raw = minimal_sections(raw_lat, 1)
    assert len(calls) == 1
    assert section_subspaces(raw_lat, raw) == section_subspaces(bw16, lines)
    assert raw.coords == lines.coords


@pytest.mark.parametrize("name", ["D4", "E6", "E8", "Z3"])
def test_minimum_query_matches_fresh_enumeration(name):
    lat = catalog(name)
    lam = lat.minimum()
    kept = short_vectors_with_norms(lat, lam, half=True)
    assert kept == short_vectors_with_norms(catalog(name), lam, half=True)
    assert short_vectors_with_norms(lat, lam) == short_vectors_with_norms(
        catalog(name), lam)


_NONUNIFORM_EUTAXY = [[1, -1, 0, 0, 0], [0, 1, -1, 0, 0], [0, 0, 0, 1, 1]]


def test_certificate_rechecks_raise(monkeypatch):
    # A2 plus an orthogonal root: eutactic with weights 2/3, 2/3, 2/3, 1.
    lat = Lattice(_NONUNIFORM_EUTAXY)
    eu = check_eutaxy(lat, 1)
    assert eu.is_eutactic and not eu.uniform
    monkeypatch.setattr(lattice_mod, "verify_combination", lambda *a: False)
    with pytest.raises(AssertionError):
        check_eutaxy(lat, 1)
    monkeypatch.setattr(lattice_mod, "hnf", lambda rows: [])
    with pytest.raises(AssertionError):
        barnes_wall(3)


def test_eutaxy_recheck_raises_under_optimize():
    import grassdex
    code = (
        "import sys\n"
        "from grassdex import lattice\n"
        "if __debug__: sys.exit(4)\n"
        "lattice.verify_combination = lambda *a: False\n"
        f"lat = lattice.Lattice({_NONUNIFORM_EUTAXY!r})\n"
        "try:\n"
        "    lattice.check_eutaxy(lat, 1)\n"
        "except AssertionError:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n")
    src = os.path.dirname(os.path.dirname(grassdex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_enumeration_cap_is_exact(monkeypatch):
    # D4's minimum enumeration keeps its 12 root lines, so a cap of 12
    # passes and a cap of 11 ends it.
    monkeypatch.setattr(lattice_mod, "ENUM_CAP", 12)
    assert catalog("D4").minimum() == 2
    assert len(short_vectors(catalog("D4"), 2, half=True)) == 12
    monkeypatch.setattr(lattice_mod, "ENUM_CAP", 11)
    with pytest.raises(ValueError, match="cap of 11 vectors"):
        catalog("D4").minimum()
    with pytest.raises(ValueError, match="cap of 11 vectors"):
        short_vectors(catalog("D4"), 2, half=True)


def test_minimal_sections_lines(e8):
    s = minimal_sections(e8, 1)
    assert s.delta == 2 and len(s) == 120 and s.complete


def test_minimal_sections_d4_planes(d4):
    s = minimal_sections(d4, 2)
    assert s.delta == 3
    assert len(s) == 16
    for *_, d in s.records:
        assert d == 3 * d4._gram_scale ** 2
    assert s.complete


@pytest.mark.parametrize("name, wide", [("D4", True), ("E6", True),
                                         ("E7", False), ("E8", False)])
def test_hermite_index_one_candidates_are_saturated(name, wide):
    # minimal_sections skips saturate_rows for a candidate pair when the
    # Hermite bound on its index, rr, is below 2.  Every such pair of
    # vectors up to the section search's norm cap (and, when wide, up to
    # its default bound 2 min) must already span its saturation.
    lat = catalog(name)
    secs = minimal_sections(lat, 2)
    hermite = lattice_mod._HERMITE_POW[2]
    scale = lat._gram_scale
    lam_q = int(lat.minimum() * scale)
    vecs = short_vectors(lat, 2 * lat.minimum() if wide else secs.norm_cap, half=True)
    gvecs = [[sum(map(mul, row, c)) for row in lat._gram_int] for c in vecs]
    norms = [sum(map(mul, g, c)) for g, c in zip(gvecs, vecs)]
    skipped = 0
    for i, (u, gu) in enumerate(zip(vecs, gvecs)):
        for j in range(i + 1, len(vecs)):
            c = sum(map(mul, gu, vecs[j]))
            raw = norms[i] * norms[j] - c * c
            rr = isqrt(raw * hermite.numerator // (lam_q ** 2 * hermite.denominator))
            if raw and rr < 2:
                pair = [u, vecs[j]]
                assert hnf(pair) == hnf(saturate_rows(pair, lat.rank))
                skipped += 1
    assert skipped
    # The kept coordinates may be any basis of the saturated section: compare
    # them by HNF, their Grams by determinant, and their spans by projector.
    for sub, (gy, coords, _, d) in zip(section_subspaces(lat, secs), secs.records):
        assert hnf(coords) == hnf(saturate_rows(coords, lat.rank))
        gys = [[sum(map(mul, row, c)) for row in lat._gram_int] for c in coords]
        assert [list(row) for row in gy] == gys
        assert d == det(RatMatrix([[sum(map(mul, g, c)) for c in coords] for g in gys]))
        assert d == secs.delta * scale ** 2
        ambient = RatMatrix([list(c) for c in coords]) @ lat.basis
        assert Subspace.span(lat.n, ambient).projector() == sub.projector()


def test_minimal_sections_zn():
    for n, m in [(4, 2), (6, 3)]:
        s = minimal_sections(catalog(f"Z{n}"), m)
        assert s.delta == 1
        from math import comb
        assert len(s) == comb(n, m)


def test_minimal_sections_saturation():
    # span(e1+e2, e1-e2) must saturate to the full coordinate plane.
    z2 = catalog("Z4")
    s = minimal_sections(z2, 2)
    coord_plane = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert coord_plane in section_subspaces(z2, s)


def _counting_records(monkeypatch):
    """(seeds, formed): the `intdata` calls that take a seed's adj and det,
    and the coordinates whose rows G Y^T `SectionSet.metric_rows` formed."""
    seeds, formed = [], []
    real = lattice_mod.SectionSet.metric_rows

    def counting(*args):
        seeds.append(args)
        return intdata(*args)

    def rows(self, coords):
        formed.append(coords)
        return real(self, coords)

    monkeypatch.setattr(lattice_mod, "intdata", counting)
    monkeypatch.setattr(lattice_mod.SectionSet, "metric_rows", rows)
    return seeds, formed


@pytest.mark.parametrize("name", ["D4", "E6", "E7", "E8", "Z4"])
@pytest.mark.parametrize("m", [1, 2])
def test_section_records_and_spans(monkeypatch, name, m):
    # One integer record per section, built once when first read, with its
    # adj and det taken once per orbit seed and its rows G Y^T formed only
    # when an engine reads them, once; ambient spans only from
    # section_subspaces, checked against spans built from the saturated
    # coordinates and the rational basis.
    lat = catalog(name)
    seeds, formed = _counting_records(monkeypatch)
    secs, line_key, _ = _searched(lat, m)
    rankin(lat, m, secs)
    assert not seeds and not formed and "records" not in vars(secs)
    reference = {Subspace.span(lat.n, RatMatrix([list(r) for r in saturate_rows(c, lat.rank)])
                               @ lat.basis) for c in secs.coords}
    assert set(section_subspaces(lat, secs)) == reference and len(reference) == len(secs)
    report = section_design_report(lat, secs, tmax=1)
    records = secs.records
    assert len(seeds) == len(secs.orbits)
    # An orbit row reads the rows of its row points, the orbit seeds, alone.
    assert len(formed) == (len(secs) if report.orbits is None
                           else len(secs.orbits))
    check_perfection(lat, m, secs)
    check_eutaxy(lat, m, secs)
    assert secs.records is records and len(seeds) == len(secs.orbits)
    # Perfection stops at full rank, and uniform eutaxy reads an orbit row.
    assert len(set(formed)) == len(formed)
    for coords, rec in zip(secs.coords, secs.records):
        assert rec == intdata(*metric_rows(coords, lat._gram_int))
        assert rec[3] == secs.delta * lat._gram_scale ** m
    assert sorted(formed) == sorted(secs.coords)
    assert _in_line_key_order(secs, line_key)


@pytest.mark.parametrize("name,m", [(name, m) for name in
                                    ("D4", "E6", "E7", "E8", "Z4")
                                    for m in (1, 2)] + [("BW16", 1)])
def test_records_share_their_seed_gram(monkeypatch, name, m):
    # Each record equals the one built from its own coordinates, whether
    # it shares its orbit seed's adj and det or, with no certified orbits,
    # takes its own.
    lat = catalog(name)
    secs = minimal_sections(lat, m)
    seeds, formed = _counting_records(monkeypatch)
    section_design_report(lat, secs, tmax=1)
    if name == "BW16":
        # One orbit: its one row forms G y^T for its row point alone.
        assert secs.orbits == {0: 2160} and len(seeds) == len(formed) == 1
    alone = replace(secs, orbits=None)
    for s in (secs, alone):
        for coords, rec in zip(s.coords, s.records):
            assert rec == intdata(*metric_rows(coords, lat._gram_int))
    assert len(seeds) == len(secs.orbits) + len(secs)


def test_rejected_orbit_rows_form_no_adjugate(monkeypatch):
    # Z16's 120 minimal planes are 120 singleton orbits, too many rows, so
    # the full sweep runs on the rows G Y^T alone: no `intdata` call, and
    # no records, until perfection reads them.
    lat = catalog("Z16")
    secs = minimal_sections(lat, 2)
    assert len(secs) == len(secs.orbits) == 120
    seeds, formed = _counting_records(monkeypatch)
    report = section_design_report(lat, secs, tmax=2)
    assert report.orbits is None and not seeds and "records" not in vars(secs)
    assert sorted(formed) == sorted(secs.coords)
    check_perfection(lat, 2, secs)
    assert len(seeds) == 120 and len(formed) == 120


def test_delta_invariant_under_unimodular_change(d4):
    rng = random.Random(31)
    base = [list(d4.basis.row(i)) for i in range(4)]
    delta0 = minimal_sections(d4, 2).delta
    for _ in range(3):
        rows = [row[:] for row in base]
        for _ in range(6):
            i, j = rng.sample(range(4), 2)
            c = rng.choice([-1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        lat = Lattice(rows)
        assert lat.det() == d4.det()
        assert minimal_sections(lat, 2).delta == delta0


def test_rankin_values(d4, e8):
    assert rankin(catalog("Z4"), 1).gamma_exact == 1
    rv = rankin(d4, 2)
    assert rv.gamma_exact == F(3, 2)
    assert rv.delta_m == 3 and rv.det_l == 4
    assert rankin(e8, 1).gamma_exact == 2
    r7 = rankin(catalog("E7"), 1)
    assert r7.gamma_exact is None  # 2^(1/7) is irrational
    assert abs(r7.gamma_decimal - 2 / 2 ** (1 / 7)) < 1e-12


def test_perfection(d4, e8):
    rank2, perf2 = check_perfection(catalog("Z2"), 1)
    assert rank2 == 2 and not perf2
    rank4, perf4 = check_perfection(d4, 1)
    assert perf4 and rank4 == 10
    rank8, perf8 = check_perfection(e8, 1)
    assert perf8 and rank8 == 36


def test_eutaxy(d4):
    eu = check_eutaxy(catalog("Z3"), 1)
    assert eu.is_eutactic and eu.uniform and eu.weights == [1, 1, 1]
    eu4 = check_eutaxy(d4, 1)
    assert eu4.is_eutactic and eu4.weights == [F(1, 3)] * 12


def _e7_plus_a1():
    e7 = catalog("E7")
    return Lattice([list(e7.basis.row(i)) + [0, 0] for i in range(7)]
                   + [[0] * 8 + [1, 1]])


def test_eutaxy_non_uniform_e7_plus_a1(monkeypatch):
    # E7 + A1: 63 + 1 minimal lines in rank 8.  Each summand is eutactic on
    # its own span (weights 1/9 and 1), so no uniform witness exists and the
    # solver decides; its weights go through the exact re-check.
    lat = _e7_plus_a1()
    checks = []

    def counting(*args):
        checks.append(args)
        return verify_combination(*args)

    monkeypatch.setattr(lattice_mod, "verify_combination", counting)
    start = time.perf_counter()
    eu = check_eutaxy(lat, 1)
    assert time.perf_counter() - start < 10
    assert eu.is_eutactic and not eu.uniform and len(eu.weights) == 64
    assert all(w > 0 for w in eu.weights) and len(checks) == 1


def _uniform_projector_sum(lat, secs) -> bool:
    """The direct uniform test on the integer projector multiples P_int =
    det * P of trace tr = m * det: r * sum P_int == nsec * tr * I."""
    r, nsec = lat.rank, len(secs)
    ints = [adj_product(gy, adj, y) for gy, y, adj, _ in secs.records]
    tr = secs.m * secs.records[0][3]
    return all(r * sum(p[i][j] for p in ints) == (nsec * tr if i == j else 0)
               for i in range(r) for j in range(r))


def _assert_uniform_verdicts_agree(lat, secs, orbit_free: bool = True) -> bool:
    """check_eutaxy's uniform verdict, which it reads from the pair sum,
    equals the direct projector-sum test, with the search's certified
    orbits and, when `orbit_free`, with none; returns that verdict."""
    expected = _uniform_projector_sum(lat, secs)
    givens = [secs, replace(secs, orbits=None)] if orbit_free else [secs]
    for given in givens:
        eu = check_eutaxy(lat, secs.m, given)
        assert eu.uniform == expected
        if expected:
            assert eu.weights == [F(lat.rank, secs.m * len(secs))] * len(secs)
    return expected


@pytest.mark.parametrize("name, m, uniform", [
    *((name, m, True) for name in ("D4", "E6", "E7", "E8") for m in (1, 2)),
    ("Z3", 1, True), ("E8", 3, True), ("BW16", 1, True),
    ("E7+A1", 1, False)])
def test_uniform_eutaxy_from_the_pair_sum(name, m, uniform):
    lat = _e7_plus_a1() if name == "E7+A1" else catalog(name)
    secs = minimal_sections(lat, m)
    # With no orbits, E8's 7560 3-sections would take the full engine's
    # 28.6M pairs.
    orbit_free = len(secs) < 5000
    assert _assert_uniform_verdicts_agree(lat, secs, orbit_free) is uniform


@settings(max_examples=60, deadline=None)
@given(rank=st.integers(2, 4), extra=st.integers(0, 1), data=st.data())
def test_uniform_eutaxy_matches_projector_sum(rank, extra, data):
    # Small integer bases of rank 2-4, in R^rank or R^(rank + 1): the pair
    # sum and the projector sum give one uniform verdict, orbits or not.
    n = rank + extra
    m = data.draw(st.integers(1, rank // 2))
    rows = data.draw(st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                              min_size=rank, max_size=rank))
    gram = RatMatrix(rows) @ RatMatrix(rows).transpose()
    assume(det(gram) != 0)
    lat = Lattice(rows)
    try:
        secs = minimal_sections(lat, m)
    except ValueError:
        # The vectors up to the default bound m * min span fewer than m
        # dimensions.
        assume(False)
    _assert_uniform_verdicts_agree(lat, secs)


def test_section_analyses_reject_mismatched_sections(d4, e8):
    # A section set carries its m and its lattice's Gram; rankin, perfection
    # and eutaxy refuse one of another m or another lattice.
    planes = minimal_sections(e8, 2)
    with pytest.raises(ValueError, match="3-sections"):
        rankin(e8, 3, planes)
    lines = minimal_sections(d4, 1)
    with pytest.raises(ValueError, match="2-sections"):
        check_eutaxy(d4, 2, lines)
    with pytest.raises(ValueError, match="2-sections"):
        check_perfection(d4, 2, lines)
    z4_lines = minimal_sections(catalog("Z4"), 1)
    for check in (rankin, check_perfection, check_eutaxy):
        with pytest.raises(ValueError, match="this lattice"):
            check(d4, 1, z4_lines)
    assert check_eutaxy(d4, 2).weights == [F(1, 8)] * 16
    assert check_eutaxy(d4, 1, lines).weights == [F(1, 3)] * 12


def test_huge_search_bound_keeps_the_sections(d4, e8):
    # The enumeration stops at the Hadamard cap, so a huge bound returns the
    # default search's sections and delta, reported against the bound given.
    for lat in (d4, e8):
        base = minimal_sections(lat, 2)
        huge = minimal_sections(lat, 2, search_bound=F(10) ** 400)
        assert huge.coords == base.coords and huge.delta == base.delta
        assert huge.complete and huge.search_bound == F(10) ** 400


def test_eutaxy_rank_deficient_sections_fail():
    # An artificial section set spanning too little cannot reach the identity.
    from grassdex.exactalg import solve_nonneg_combination
    p = Subspace.line([1, 0]).projector()
    assert solve_nonneg_combination([p], RatMatrix.identity(2)) is None


def test_design_implies_uniform_projector_sum(d4):
    # Whenever the sections certify t = 1, projectors sum to (m N / n) Id.
    for m in (1, 2):
        secs = minimal_sections(d4, m)
        rep = section_design_report(d4, secs, tmax=1)
        assert rep.is_design(1)
        total = RatMatrix.zeros(4, 4)
        for sub in section_subspaces(d4, secs):
            total = total + sub.projector()
        assert total == RatMatrix.identity(4).scale(F(m * len(secs), 4))


def test_strong_perfection_chain(d4):
    # 4-design sections force both perfection and eutaxy.
    for m in (1, 2):
        secs = minimal_sections(d4, m)
        rep = section_design_report(d4, secs, tmax=2)
        assert rep.is_design(2)
        _, perfect = check_perfection(d4, m, secs)
        assert perfect
        assert check_eutaxy(d4, m, secs).is_eutactic


def test_section_design_matches_ambient_path(d4):
    # Intrinsic (coordinate) design reports equal the ambient-subspace
    # reports for a full-rank lattice.
    for m in (1, 2):
        secs = minimal_sections(d4, m)
        rep_coord = section_design_report(d4, secs, tmax=2)
        rep_amb = verify_design(Configuration(4, section_subspaces(d4, secs)), tmax=2)
        assert rep_coord.t_stats == rep_amb.t_stats
        assert rep_coord.to_json_dict() == rep_amb.to_json_dict()


def test_barnes_wall_k2_similar_to_d4(d4):
    bw4 = barnes_wall(2)
    assert bw4.minimum() == 4 and bw4.det() == 64
    assert similar_to(bw4, d4)
    with pytest.raises(ValueError):
        barnes_wall(2, normalized=True)  # sqrt(2) similarity is irrational


def test_barnes_wall_k3_is_even_unimodular():
    bw8 = barnes_wall(3, normalized=True)
    assert bw8.det() == 1
    shells = theta_shells(bw8, 4)
    assert shells[F(2)] == 240
    assert all(n.denominator == 1 and int(n) % 2 == 0 for n in shells)
    g = bw8.gram
    assert all(g[i, j].denominator == 1 for i in range(8) for j in range(8))


def test_barnes_wall_raw_minimum_scaling():
    for k in (2, 3):
        raw = barnes_wall(k)
        assert raw.minimum() == 2 ** k


# SHA-256 of repr(sorted(minimal_line_keys(barnes_wall(k)))), recorded with
# the basis rows in decreasing norm; the row order must not move a line.
_BW_LINE_DIGESTS = {
    3: (120, "7078b9fef8534b08826e2558eabb8bfdd001fac46756aba3c9232f03c3f04791"),
    4: (2160, "690be739a9506e5edbbc7b5e48b77c68a81267f6433395faf049ece865d53810"),
}


@pytest.mark.parametrize("k", sorted(_BW_LINE_DIGESTS))
def test_barnes_wall_minimal_lines_are_pinned(k):
    lat = barnes_wall(k)
    keys = sorted(minimal_line_keys(lat))
    count, digest = _BW_LINE_DIGESTS[k]
    assert len(keys) == count
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest


@pytest.mark.parametrize("k", [2, 3, 4])
def test_barnes_wall_basis_norms_are_nondecreasing(k):
    norms = [sum(x * x for x in row) for row in barnes_wall(k).basis.entries]
    assert norms == sorted(norms)


def test_minimal_line_configuration(e8):
    cfg = minimal_line_configuration(e8)
    assert len(cfg) == 120 and cfg.m == 1 and cfg.n == 8


def test_minimal_line_keys_are_the_minimal_line_rows(d4, e8):
    # E8's basis has halves, so the integer rows scale its vectors by 2.
    for lat in (d4, e8, barnes_wall(3), catalog("E7")):
        keys = minimal_line_keys(lat)
        lines = section_subspaces(lat, minimal_sections(lat, 1))
        assert keys == {s.rows for s in lines}
        assert len(keys) == len(minimal_sections(lat, 1))


def test_e7_sections_intrinsic_design():
    # E7 minimal vectors: 126 vectors, 63 lines; a 4-design in dimension 7.
    e7 = catalog("E7")
    secs = minimal_sections(e7, 1)
    assert len(secs) == 63
    rep = section_design_report(e7, secs, tmax=2)
    assert rep.n == 7
    assert rep.is_design(2)


@pytest.mark.parametrize("name, m, strength, gap", [
    ("D4", 1, 2, F(1, 64)), ("D4", 2, 2, F(4, 81)),
    ("E6", 1, 2, F(1, 192)), ("E6", 2, 2, F(16, 675)),
    ("E7", 1, 2, F(1, 462)), ("E7", 2, 2, F(200, 18711)),
    ("E8", 1, 3, F(3, 1280)), ("E8", 2, 3, F(64, 6615)),
    ("E8", 3, 3, F(15, 1024)), ("BW16", 1, 3, F(5, 33792)),
    ("BW16", 2, 3, F(66256, 71569575)),
])
def test_minimal_sections_stop_at_their_strength(name, m, strength, gap):
    # The sigma^t pair average minus E[sigma^t] in G(m, rank), t <= 6: zero
    # up to the certified strength, then the exact gap, and never negative
    # (a positive combination of zonal sums).  E8 is BW8: the Barnes-Wall
    # lines stop at 6-designs.
    lat = catalog(name)
    secs = minimal_sections(lat, m)
    size2 = F(len(secs)) ** 2
    gaps = [secs.stats.sigma_sum(t) / size2 - constant_c(m, lat.rank, t)
            for t in range(1, 7)]
    assert section_design_report(lat, secs, tmax=3).strength() == strength
    assert gaps[:strength] == [0] * strength
    assert gaps[strength] == gap
    assert all(g > 0 for g in gaps[strength:])


# A rank-4 basis whose shortest vectors up to 4 * min all lie on one line.
SPARSE_SHELL_BASIS = [["0", "1/2", "-2", "1/2"], ["2/5", "4/3", "1/4", "0"],
                      ["2/3", "-1", "-1", "-4/5"], ["0", "-1/4", "1/5", "0"]]


def test_minimal_sections_bound_without_m_independent_vectors():
    lat = Lattice(RatMatrix.from_json(SPARSE_SHELL_BASIS))
    lam = lat.minimum()
    assert lam == F(41, 400)
    assert short_vectors(lat, 4 * lam, half=True) == [(0, 0, 0, 1), (0, 0, 0, 2)]
    for bound in (None, 4 * lam):
        with pytest.raises(ValueError) as exc:
            minimal_sections(lat, 2, search_bound=bound)
        msg = str(exc.value)
        assert "2-section" in msg and "search_bound" in msg
        assert str(bound or 2 * lam) in msg
    s = minimal_sections(lat, 2, search_bound=6 * lam)
    assert s.delta == F(67741, 1440000) and len(s) == 1 and s.complete


def test_search_bound_reported():
    s = minimal_sections(catalog("Z4"), 2, search_bound=3)
    assert s.search_bound == 3
    assert s.delta == 1
