"""The orbit-reduced trace path: the certificate that a group permutes a
configuration, and the pair distribution summed over its orbits."""

import json
import os
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from grassdex.binquad import enumerate_isotropic, spread
from grassdex.clifford import build_design, clifford_generators
from grassdex.exactalg import RatMatrix
from grassdex.grassmann import (IntAction, Subspace, certified_orbits,
                                design_report, line_key, pair_stats)
from grassdex import grassmann, lattice as lattice_mod
from grassdex.cli import main
from grassdex.lattice import (_ambient_rows, _simple_roots, catalog,
                              coordinate_automorphisms, minimal_sections,
                              section_design_report, section_subspaces)

from test_grassmann import _run_python, sigma_sums, w_loop


def _all_points(k, w):
    return build_design(enumerate_isotropic(k, w)).config.points


def _generators(k):
    return [g.matrix for g in clifford_generators(k)]


def _index_swap(n, a, b):
    """The permutation matrix exchanging coordinates a and b of R^n."""
    perm = list(range(n))
    perm[a], perm[b] = b, a
    return RatMatrix([[int(j == perm[i]) for j in range(n)] for i in range(n)])


ALL_SETS = [(k, w) for k in (1, 2, 3) for w in range(1, k + 1)] + [(4, 4)]


def _tt_order(k):
    """`verify_tt`'s order: `cycle`, `transvect_01` and `h_first` first, the
    other generators after them in their `clifford_generators` order."""
    first = ("cycle", "transvect_01", "h_first")
    return [g.matrix for g in clifford_generators(k) if g.name in first] + [
        g.matrix for g in clifford_generators(k) if g.name not in first]


@pytest.mark.parametrize("k,w", ALL_SETS)
def test_orbit_reduced_distribution_equals_full_engine(k, w):
    points = _all_points(k, w)
    full = pair_stats(points)
    assert full.orbits is None
    for gens in (_generators(k), _tt_order(k)):
        orbits, examined = certified_orbits(points, gens)
        reduced = pair_stats(points, orbits=orbits)
        assert reduced.orbits is not None
        assert reduced.distribution == full.distribution
        assert sigma_sums(reduced) == sigma_sums(full)
        assert reduced.size == full.size == len(points)
    # In `verify_tt`'s order three generators leave one orbit; the
    # certificate examines nothing after them.
    assert (reduced.orbits, examined) == (1, 3)


def test_all_sets_are_single_orbits():
    # The real Clifford group is transitive on each "all" configuration.
    for k, w in [(2, 1), (3, 2), (3, 3)]:
        points = _all_points(k, w)
        assert certified_orbits(points, _generators(k))[0] == {0: len(points)}


def test_multiplicities_enter_the_orbit_weights():
    # Every point twice: still invariant, each orbit weighs twice its size,
    # and duplicate pairs are counted as the full engine counts them.
    points = _all_points(2, 1)
    doubled = points + points
    orbits, _ = certified_orbits(doubled, _generators(2))
    assert orbits == {0: 2 * len(points)}
    reduced = pair_stats(doubled, orbits=orbits)
    full = pair_stats(doubled)
    assert reduced.orbits == 1
    assert reduced.distribution == full.distribution


def test_several_orbits_are_summed():
    # Under the diagonal sign maps alone the 240 lines split into 51
    # orbits, more rows than `_SERIAL_ROWS`, so the full engine runs; with
    # translate_0 and h2_first added they split into 6 unequal orbits,
    # whose rows are summed.
    points = _all_points(3, 3)
    full = pair_stats(points).distribution
    diag = [g for g in clifford_generators(3)
            if g.name.startswith(("neg", "diag"))]
    more = [g for g in clifford_generators(3)
            if g.name in ("translate_0", "h2_first")]
    for gens, count, route in ((diag, 51, None), (diag + more, 6, 6)):
        gens = [g.matrix for g in gens]
        orbits, examined = certified_orbits(points, gens)
        assert len(orbits) == count and sum(orbits.values()) == len(points)
        reduced = pair_stats(points, orbits=orbits)
        assert (reduced.orbits, examined) == (route, len(gens))
        assert reduced.distribution == full


def _row(points, i):
    """The pair distribution of point i against every point, counted
    len(points) times: the full engine's distribution when a transitive
    group permutes the points."""
    data = [p.int_data() for p in points]
    return {(Fraction(a, b), Fraction(c, d)): count
            for (a, b, c, d), count in w_loop(data, [(i, 0, len(points))]).items()}


def test_early_stop_on_k4_w2_planes_matches_sampled_rows():
    # 6300 points at m = 4 are 19.8M pairs, too many for the full engine
    # here (the README run's recorded digest pins its totals).  Every row of
    # a transitive configuration has the same distribution, so the one
    # orbit row must equal the rows of points the certificate never chose.
    points = _all_points(4, 2)
    orbits, examined = certified_orbits(points, _tt_order(4))
    reduced = pair_stats(points, orbits=orbits)
    assert (reduced.orbits, examined) == (1, 3)
    for i in random.Random(7).sample(range(1, len(points)), 2):
        assert reduced.distribution == _row(points, i)


def test_generator_after_one_orbit_is_not_examined():
    # The swap does not permute the lines, but the triple before it already
    # leaves one orbit, so the certificate never looks at it.
    points = _all_points(3, 3)
    gens = _tt_order(3)
    gens[3:3] = [_index_swap(8, 0, 1)]
    orbits, examined = certified_orbits(points, gens)
    assert (orbits, examined) == ({0: len(points)}, 3)
    stats = pair_stats(points, orbits=orbits)
    assert stats.orbits == 1
    assert stats.distribution == pair_stats(points).distribution


def test_same_generator_first_is_refused():
    points = _all_points(3, 3)
    gens = [_index_swap(8, 0, 1)] + _tt_order(3)
    assert certified_orbits(points, gens) == (None, 0)


def test_two_orbits_examine_every_generator():
    # Without H the 240 lines at (3, 3) fall into two orbits of 120.
    points = _all_points(3, 3)
    gens = [g.matrix for g in clifford_generators(3) if g.in_gk]
    orbits, examined = certified_orbits(points, gens)
    assert (orbits, examined) == ({0: 120, 8: 120}, len(gens))
    stats = pair_stats(points, orbits=orbits)
    assert stats.orbits == 2
    assert stats.distribution == pair_stats(points).distribution


def _refusals():
    """(name, points, generators) that the certificate must refuse."""
    k = 3
    points = _all_points(k, 3)
    n = 1 << k
    gens = _generators(k)
    bent = [[int(i == j) for j in range(n)] for i in range(n)]
    bent[0][1] = 1
    return [
        ("point dropped", points[1:], gens),
        ("point duplicated", points + points[:1], gens),
        ("index swap 0<->1", points, [_index_swap(n, 0, 1)]),
        ("not orthogonal", points, gens + [RatMatrix(bent)]),
        ("wrong ambient", points, [_index_swap(2 * n, 0, 1)]),
        ("spread", build_design(spread(4, 2)).config.points, _generators(4)),
        ("raw int data", [p.int_data() for p in points], gens),
    ]


def _unrefused():
    """Names of the refusal cases whose certificate passed, or whose
    fallback differs from the full engine; empty when all hold."""
    bad = []
    for name, points, gens in _refusals():
        orbits, examined = certified_orbits(points, gens)
        stats = pair_stats(points, orbits=orbits)
        full = pair_stats(points)
        if (orbits is not None or examined or stats.orbits is not None
                or stats.distribution != full.distribution
                or sigma_sums(stats) != sigma_sums(full)):
            bad.append(name)
    return bad


def test_refused_certificates_fall_back_to_the_full_engine():
    assert _unrefused() == []


def test_refusals_hold_under_optimize():
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys\n"
            "if __debug__: sys.exit(4)\n"
            "from test_orbits import _unrefused\n"
            "bad = _unrefused()\n"
            "print(bad)\n"
            "sys.exit(3 if bad else 0)\n")
    proc = _run_python(code, "-O", path=here)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_index_swap_is_orthogonal_but_moves_the_lines():
    # The swap is a valid generator; it fails only at the image check.
    points = _all_points(3, 3)
    swap = IntAction(_index_swap(8, 0, 1))
    assert swap.scale == 1
    keys = {p.rows for p in points}
    assert any(swap.key(p.rows) not in keys for p in points)


def test_int_action_rejects_non_orthogonal_matrices():
    with pytest.raises(ValueError, match="orthogonal"):
        IntAction([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="orthogonal"):
        IntAction([[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="square"):
        IntAction([[1, 0, 0], [0, 1, 0]])


def test_int_action_matches_transform():
    # The compiled action gives the canonical rows of Subspace.transform,
    # for signed permutations and both butterflies, lines and planes.
    rng = random.Random(5)
    gens = clifford_generators(3)
    for _ in range(40):
        m = rng.choice((1, 2, 3))
        rows = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(m)]
        try:
            sub = Subspace(8, rows)
        except ValueError:
            continue
        g = rng.choice(gens.elements)
        assert IntAction(g.matrix).key(sub.rows) == sub.transform(g.matrix).rows


def test_int_action_scales():
    scales = {g.name: IntAction(g.matrix).scale for g in clifford_generators(4)}
    assert scales.pop("h_first") == 2
    assert scales.pop("h2_first") == 4
    assert set(scales.values()) == {1}


def test_line_key_is_subspace_line_rows():
    for vec in ([0, -2, 4, 6], [3, 0, -3], [0, 0, 5], [-1, 2]):
        assert (line_key(vec),) == Subspace.line(vec).rows


# -- lattice sections --------------------------------------------------------

LATTICE_SECTIONS = [("D4", 1), ("D4", 2), ("E6", 2), ("E6", 3), ("E7", 1),
                    ("E7", 2), ("E8", 1), ("E8", 2), ("BW16", 1)]


@pytest.mark.parametrize("name,m", LATTICE_SECTIONS)
def test_lattice_orbit_route_equals_full_engine(name, m):
    # The search's certified orbits against the full engine on the
    # coordinate records: one orbit, the same distribution.
    lat = catalog(name)
    secs = minimal_sections(lat, m)
    reduced = pair_stats(secs.records, orbits=secs.orbits)
    full = pair_stats(secs.records)
    assert reduced.orbits == 1 and full.orbits is None
    assert reduced.distribution == full.distribution
    assert sigma_sums(reduced) == sigma_sums(full)
    report = section_design_report(lat, secs, tmax=3)
    assert report.orbits == 1
    assert report.to_json_dict() == design_report(
        pair_stats(secs.records), lat.rank, 3).to_json_dict()


@pytest.mark.parametrize("name,m", [("D4", 2), ("E6", 3)])
def test_section_stats_follow_the_orbits_they_were_given(name, m):
    # The cached distribution belongs to one section set: the same sections
    # with no orbits compute theirs again, on the full engine.
    secs = minimal_sections(catalog(name), m)
    full = replace(secs, orbits=None)
    assert secs.stats.orbits == 1 and "stats" not in vars(full)
    assert full.stats.orbits is None
    assert full.stats.distribution == secs.stats.distribution


@pytest.mark.parametrize("name,count", [("D4", 4), ("E6", 6), ("E7", 7),
                                        ("E8", 8), ("Z3", 3), ("BW16", 0)])
def test_simple_roots(name, count):
    # A root system of rank r has r simple roots; Z^n has the n orthogonal
    # A1 roots, and BW16's minimal vectors (norm 4) are no roots.  The
    # candidates are their reflections and the product of these.
    lat = catalog(name)
    lat.minimum()
    roots = _simple_roots(lat)
    assert len(roots) == count
    gi, q = lat._gram_int, int(lat.minimum() * lat._gram_scale)
    for r in roots:
        assert sum(a * gi[i][j] * b for i, a in enumerate(r)
                   for j, b in enumerate(r)) == q
    if count:
        assert coordinate_automorphisms(lat)[0] == count + 1


def test_barnes_wall_attaches_clifford_generators():
    # Not h_first, and cycle, transvect_01 and h2_first first; the
    # normalized lattice keeps them.
    gens = {g.name: g.matrix for g in clifford_generators(4)}
    want = [gens.pop(name) for name in ("cycle", "transvect_01", "h2_first")]
    del gens["h_first"]
    want += list(gens.values())
    assert catalog("BW16")._automorphisms == want
    assert lattice_mod.barnes_wall(4)._automorphisms == want


@pytest.mark.parametrize("m", [1, 2, 3])
def test_costly_orbit_rows_take_the_full_engine(m):
    # The sign changes of Z^8 fix every coordinate m-space: one orbit per
    # point, so orbit rows would count more pairs than the full engine,
    # which runs instead.  The search takes the 8 reflections and their
    # product, -I, and examines all 9.
    lat = catalog("Z8")
    secs = minimal_sections(lat, m)
    report = section_design_report(lat, secs, tmax=3)
    assert (report.generators, report.orbits, report.examined) == (
        9, None, 9)
    assert report.to_json_dict() == design_report(
        pair_stats(secs.records), 8, 3).to_json_dict()


def test_orbit_rows_of_lines_stop_past_the_serial_limit():
    # On the 120 minimal lines of E8 the first six simple reflections leave
    # 7 orbits, fewer pairs than the full engine but past `_SERIAL_ROWS`,
    # so the packed full engine runs; the first seven leave 3 orbit rows.
    lat = catalog("E8")
    lines = minimal_sections(lat, 1)
    spans = section_subspaces(lat, lines)
    gens = _ambient_reflections(lat)
    assert len(certified_orbits(spans, gens[:6])[0]) == 7 > grassmann._SERIAL_ROWS
    full = pair_stats(lines.records)
    for count, orbits in ((6, None), (7, 3)):
        certified, examined = certified_orbits(spans, gens[:count])
        stats = pair_stats(spans, orbits=certified)
        assert (stats.orbits, examined) == (orbits, count)
        assert stats.distribution == full.distribution
        assert sigma_sums(stats) == sigma_sums(full)


def test_generator_free_lattice_keeps_the_records():
    # Gram [[3, 1], [1, 3]]: 2 * 1 / 3 is no integer, so neither minimal
    # vector is a root, and the report runs the full engine.
    lat = lattice_mod.Lattice([[1, 1, 1, 0, 0], [1, 0, 0, 1, 1]])
    secs = minimal_sections(lat, 1)
    assert coordinate_automorphisms(lat) == (0, [])
    report = section_design_report(lat, secs, tmax=2)
    assert (report.generators, report.orbits, report.examined) == (0, None, 0)


def test_generator_free_sections_at_m3_read_only_rows(monkeypatch, tmp_path,
                                                    capsys):
    # The lattice of the Fano plane's lines in Z^7: norm 3, inner products
    # 1, so no minimal vector is a root.  Its 35 minimal 3-sections go to
    # the cross engine as (G Y^T, Y) rows, with no adjugate formed; the
    # verdicts are the ones read from the coordinate records.
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6),
            (2, 4, 5)]
    rows = [[int(j in line) for j in range(7)] for line in fano]
    lat = lattice_mod.Lattice(rows)
    secs = minimal_sections(lat, 3)
    assert coordinate_automorphisms(lat) == (0, []) and len(secs) == 35
    monkeypatch.setattr(grassmann, "adjugate", None)
    report = section_design_report(lat, secs, tmax=2)
    assert "records" not in vars(secs)
    monkeypatch.undo()
    assert report.to_json_dict() == design_report(
        pair_stats(secs.records), 7, 2).to_json_dict()
    # The command line on a basis file, against the verdicts recorded from
    # the records path.
    path = tmp_path / "fano.json"
    path.write_text(json.dumps({"basis": rows}), encoding="utf-8")
    assert main(["lattice", str(path), "--m", "3", "--sections",
                 "--t", "2"]) == 0
    design = json.loads(capsys.readouterr().out)["results"]["section_design"]
    assert design == {
        "n": 7, "m": 3, "size": 35, "tmax": 2,
        "t": {"1": {"average": "249/175", "c": "9/7", "is_design": False},
              "2": {"average": "52299/21875", "c": "37/21",
                    "is_design": False}},
        "zonal_sums": {"(1)": "98", "(1,1)": "0", "(2)": "173593/625"}}


def _reflection(v):
    q = sum(x * x for x in v)
    return [[(q if i == j else 0) - 2 * a * b for j, b in enumerate(v)]
            for i, a in enumerate(v)]


def _ambient_reflections(lat):
    """The reflections (v.v) I - 2 v v^T in the simple roots v of `lat`, as
    integer ambient rows."""
    lat.minimum()
    return [_reflection(v) for v in _ambient_rows(lat, _simple_roots(lat))]


def _lattice_refusals():
    """(name, spans, generators, records) whose certificate must fail: a
    reflection that is no automorphism of D4, and H = S (x) I on the BW16
    lines, each placed first so that it is examined, before the root
    reflections of D4 and the generators BW16 attaches."""
    d4 = catalog("D4")
    planes = minimal_sections(d4, 2)
    bw16 = catalog("BW16")
    lines = minimal_sections(bw16, 1)
    h_first = next(g.matrix for g in clifford_generators(4)
                   if g.name == "h_first")
    return [
        ("non-root reflection", section_subspaces(d4, planes),
         [_reflection([1, 1, 1, 0])] + _ambient_reflections(d4),
         planes.records),
        ("h_first", section_subspaces(bw16, lines),
         [h_first] + bw16._automorphisms, lines.records),
    ]


def _lattice_unrefused():
    """Names of the lattice refusal cases whose certificate passed, or
    whose fallback differs from the full engine; empty when all hold."""
    bad = []
    for name, spans, gens, records in _lattice_refusals():
        orbits, examined = certified_orbits(spans, gens)
        stats = pair_stats(spans, orbits=orbits)
        full = pair_stats(records)
        if (orbits is not None or examined
                or stats.distribution != full.distribution
                or sigma_sums(stats) != sigma_sums(full)):
            bad.append(name)
    return bad


def test_lattice_refusals_fall_back_to_the_full_engine():
    assert _lattice_unrefused() == []


def test_lattice_refusals_hold_under_optimize():
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys\n"
            "if __debug__: sys.exit(4)\n"
            "from test_orbits import _lattice_unrefused\n"
            "bad = _lattice_unrefused()\n"
            "print(bad)\n"
            "sys.exit(3 if bad else 0)\n")
    proc = _run_python(code, "-O", path=here)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_section_report_falls_back_on_a_refused_generator():
    # The search certifies the candidates, so the reflection in (1, 1, 1,
    # 0), no automorphism of D4, is attached before it: it refuses them
    # all, with the product, and the full engine runs.
    d4 = catalog("D4")
    real, _ = coordinate_automorphisms(d4)
    d4._automorphisms = [_reflection([1, 1, 1, 0])]
    secs = minimal_sections(d4, 2)
    report = section_design_report(d4, secs, tmax=3)
    assert (report.generators, report.orbits, report.examined) == (
        real + 1, None, 0)
    assert report.to_json_dict() == design_report(
        pair_stats(secs.records), 4, 3).to_json_dict()
