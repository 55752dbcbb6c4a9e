"""The orbit-reduced minimal-section search: candidate automorphisms as
certified integer coordinate matrices, one tuple search per orbit of
candidate lines, and the closure that returns every section with its orbit.
Each reduced search is checked against the exhaustive one."""

import hashlib
import json
import os
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassdex import lattice as lattice_mod
from grassdex.cli import main
from grassdex.exactalg import RatMatrix, hnf, inverse
from grassdex.grassmann import design_report
from grassdex.lattice import (Lattice, catalog, coordinate_automorphisms,
                              minimal_sections, section_design_report)

from test_grassmann import _run_python
from test_tooling import _load_run


def _keys(secs):
    return [tuple(hnf(c)) for c in secs.coords]


def _exhaustive(lat, m, bound=None):
    """The search with no candidate: every vector its own orbit."""
    real = lattice_mod.coordinate_automorphisms
    lattice_mod.coordinate_automorphisms = lambda lat: (0, None)
    try:
        return minimal_sections(lat, m, search_bound=bound)
    finally:
        lattice_mod.coordinate_automorphisms = real


def _unimodular(rows, seed):
    """rows under a seeded product of elementary integer row operations."""
    rng = random.Random(seed)
    rows = [list(r) for r in rows]
    for _ in range(8):
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.choice([-1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def _basis(name):
    lat = catalog(name)
    return [list(lat.basis.row(i)) for i in range(lat.rank)]


# A basis with a single simple root, found by a seeded search over small
# integer bases: its reflection, the one candidate (no product), merges 10
# candidate lines into 7 orbits and two of the 5 minimal 2-sections into
# one orbit.
ONE_ROOT = [[0, 1, 2, 0, 0], [1, 0, 1, 0, 2], [-1, 1, 1, -1, 1],
            [0, 2, 0, 0, 0], [2, -1, 0, -1, 0]]

CASES = [
    ("D4", lambda: catalog("D4"), 2, None),
    ("E6", lambda: catalog("E6"), 2, None),
    ("E6", lambda: catalog("E6"), 3, None),
    ("E7", lambda: catalog("E7"), 2, None),
    ("E7", lambda: catalog("E7"), 3, None),
    ("E8", lambda: catalog("E8"), 2, None),
    ("E8 bound 4", lambda: catalog("E8"), 2, 4),
    ("Z6", lambda: catalog("Z6"), 3, None),
    ("one root", lambda: Lattice(ONE_ROOT), 2, None),
    ("D4 unimodular", lambda: Lattice(_unimodular(_basis("D4"), 5)), 2, None),
    ("E6 unimodular", lambda: Lattice(_unimodular(_basis("E6"), 7)), 2, None),
    ("E6 unimodular", lambda: Lattice(_unimodular(_basis("E6"), 7)), 3, None),
]


@pytest.mark.parametrize("name,build,m,bound", CASES,
                         ids=[f"{c[0]}-m{c[2]}" for c in CASES])
def test_reduced_search_equals_exhaustive(name, build, m, bound):
    lat = build()
    reduced = minimal_sections(lat, m, search_bound=bound)
    full = _exhaustive(build(), m, bound)
    assert reduced.orbits is not None and full.orbits is None
    assert reduced.tuples <= full.tuples
    assert reduced.line_orbits <= full.line_orbits == full.lines
    assert (reduced.delta, reduced.complete, reduced.search_bound) == (
        full.delta, full.complete, full.search_bound)
    assert _keys(reduced) == _keys(full)
    assert sum(reduced.orbits.values()) == len(reduced)
    # The design reference is the full pair engine on the exhaustive
    # sections, which uses no group.
    points = (full.records if m <= 2 else
              [full.metric_rows(c) for c in full.coords])
    ref = design_report(points, m, lat.rank, 3)
    got = section_design_report(lat, reduced, tmax=3)
    assert got.to_json_dict() == ref.to_json_dict()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["D4", "E6"]), st.integers(0, 10 ** 6))
def test_reduced_search_on_random_unimodular_bases(name, seed):
    # Any basis of the lattice gives the same sections, whatever its
    # coordinate automorphisms look like.
    rows = _unimodular(_basis(name), seed)
    reduced = minimal_sections(Lattice(rows), 2)
    full = _exhaustive(Lattice(rows), 2)
    assert reduced.orbits is not None
    assert (reduced.delta, reduced.complete, _keys(reduced)) == (
        full.delta, full.complete, _keys(full))


def test_one_root_basis_has_one_candidate():
    lat = Lattice(ONE_ROOT)
    assert [len(a) for a in coordinate_automorphisms(lat)[1]] == [5]
    secs = minimal_sections(lat, 2)
    assert (secs.generators, secs.examined) == (1, 1)
    assert (secs.lines, secs.line_orbits, len(secs)) == (10, 7, 5)
    assert sorted(secs.orbits.values()) == [1, 1, 1, 2]


def test_rootless_lattice_keeps_the_exhaustive_search():
    # The Fano-plane lattice has no root and nothing attached: every
    # vector is its own orbit, and no closure runs.
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
            (2, 3, 6), (2, 4, 5)]
    lat = Lattice([[int(j in line) for j in range(7)] for line in fano])
    assert coordinate_automorphisms(lat) == (0, [])
    secs = minimal_sections(lat, 2)
    assert (secs.orbits, secs.generators, secs.examined) == (None, 0, 0)
    assert secs.line_orbits == secs.lines


def test_e8_three_sections_match_the_recorded_exhaustive_search():
    # Recorded from the exhaustive search (5 s); the reduced search examines
    # the Coxeter element and one reflection.
    lat = catalog("E8")
    secs = minimal_sections(lat, 3)
    assert (secs.delta, secs.complete, len(secs)) == (4, True, 7560)
    assert hashlib.sha256(repr(_keys(secs)).encode()).hexdigest() == (
        "ab545e91373beb75121e9beab1d7cac328cc612895894acca55d35a03bc36c83")
    report = section_design_report(lat, secs, tmax=3)
    assert report.orbits is not None
    assert report.to_json_dict() == {
        "n": 8, "m": 3, "size": 7560, "tmax": 3,
        "t": {"1": {"average": "9/8", "c": "9/8", "is_design": True},
              "2": {"average": "153/112", "c": "153/112", "is_design": True},
              "3": {"average": "113/64", "c": "113/64", "is_design": True}},
        "zonal_sums": {"(1)": "0", "(1,1)": "0", "(2)": "0"}}


def test_barnes_wall_generators_map_to_coordinate_automorphisms():
    # The 19 attached generators of G_4, all integral on the triangular
    # basis and all preserving the Gram; BW16 has no roots, so no product.
    count, mats = coordinate_automorphisms(catalog("BW16"))
    assert count == 19 and len(mats) == 19


def _reflection(v):
    q = sum(x * x for x in v)
    return [[(q if i == j else 0) - 2 * a * b for j, b in enumerate(v)]
            for i, a in enumerate(v)]


def _search_refusals():
    """(name, whether the exact check A G A^T = G refused as it should,
    the lattice, reduced SectionSet, exhaustive SectionSet) for candidates
    the gates must refuse, on lines and planes."""
    out = []
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6),
            (2, 4, 5)]
    rows = [[int(j in line) for j in range(7)] for line in fano]
    for m in (1, 2):
        # An attached reflection that is no automorphism of D4: its
        # coordinate matrix is not integral.
        d4 = catalog("D4")
        d4._automorphisms = [_reflection([1, 1, 1, 0])]
        out.append((f"attached non-automorphism, m = {m}",
                    coordinate_automorphisms(d4)[1] is None, d4,
                    minimal_sections(d4, m), _exhaustive(catalog("D4"), m)))
        # An integral candidate that does not keep the Gram: the minimal
        # vectors of a rootless lattice taken for roots.  The lattice of
        # the Fano plane's lines has norm 3 and inner products 1, so the
        # integer "reflection" I - (2 (G r^T) // 3) r is no isometry.
        real = lattice_mod._simple_roots
        lattice_mod._simple_roots = lambda lat: list(lat._min_vectors)
        try:
            fano_lat = Lattice(rows)
            out.append((f"integral non-isometry, m = {m}",
                        coordinate_automorphisms(fano_lat)[1] is None, fano_lat,
                        minimal_sections(fano_lat, m),
                        _exhaustive(Lattice(rows), m)))
        finally:
            lattice_mod._simple_roots = real
    # A candidate vector mapped outside the candidates: one D4 minimal line
    # hidden from the search; the exact check passes the candidates.
    real = lattice_mod.short_vectors_with_norms
    lattice_mod.short_vectors_with_norms = lambda *a, **k: real(*a, **k)[:-1]
    try:
        d4 = catalog("D4")
        out.append(("image outside the set",
                    coordinate_automorphisms(catalog("D4"))[1] is not None,
                    d4, minimal_sections(d4, 2), _exhaustive(catalog("D4"), 2)))
    finally:
        lattice_mod.short_vectors_with_norms = real
    return out


def _search_unrefused():
    """Names of the refusal cases that were not refused, or whose search or
    design verdicts differ from the exhaustive search and the full pair
    engine; empty when all hold."""
    bad = []
    for name, gate, lat, secs, full in _search_refusals():
        report = section_design_report(lat, secs, tmax=3)
        ref = design_report(full.records, secs.m, lat.rank, 3)
        if (not gate or secs.orbits is not None or secs.examined
                or not secs.generators or secs.tuples != full.tuples
                or (secs.delta, _keys(secs), secs.coords)
                != (full.delta, _keys(full), full.coords)
                or report.orbits is not None
                or report.to_json_dict() != ref.to_json_dict()):
            bad.append(name)
    return bad


def test_search_refuses_non_automorphisms():
    assert _search_unrefused() == []


def test_search_refusals_hold_under_optimize():
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys\n"
            "if __debug__: sys.exit(4)\n"
            "from test_section_search import _search_unrefused\n"
            "bad = _search_unrefused()\n"
            "print(bad)\n"
            "sys.exit(3 if bad else 0)\n")
    proc = _run_python(code, "-O", path=here)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_search_note_counts_orbits_and_tuples(capsys):
    # The note goes to stderr; `results` holds no search counters.  Lines
    # are the minimal vectors, so their search considers no tuple.
    for m, tuples in ((1, "0 of 12 1-tuples"), (2, "11 of 66 2-tuples")):
        assert main(["lattice", "D4", "--m", str(m), "--sections"]) == 0
        out, err = capsys.readouterr()
        assert ("section search: 1 orbit(s) on 12 candidate lines under 5 "
                f"generators (4 examined), {tuples} considered") in err
        assert set(json.loads(out)["results"]) == {
            "name", "rank", "ambient", "det", "min", "delta_m",
            "section_count", "search_bound", "complete", "section_design"}


def test_lines_ignore_a_bound_below_the_minimum(capsys):
    # delta_1 is the minimum whatever bound is asked for: the lines are
    # complete, with search bound min.
    assert main(["lattice", "D4", "--m", "1", "--sections", "--bound", "1"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert (res["search_bound"], res["complete"], res["section_count"]) == (
        "2", True, 12)


@pytest.mark.parametrize("name", ["D4", "E6", "E7", "E8", "BW16"])
def test_line_orbits_match_the_full_engine(name):
    # One certified orbit of minimal lines under the coordinate
    # automorphisms, and the verdicts of the full engine, which uses none.
    lat = catalog(name)
    secs = minimal_sections(lat, 1)
    assert secs.orbits == {0: len(secs)} and secs.line_orbits == 1
    report = section_design_report(lat, secs, tmax=3)
    assert report.orbits == 1
    assert report.to_json_dict() == design_report(
        secs.records, 1, lat.rank, 3).to_json_dict()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["D4", "E6"]), st.integers(0, 10 ** 6))
def test_line_orbits_on_random_unimodular_bases(name, seed):
    lat = Lattice(_unimodular(_basis(name), seed))
    secs = minimal_sections(lat, 1)
    assert secs.orbits is not None and sum(secs.orbits.values()) == len(secs)
    assert section_design_report(lat, secs, tmax=3).to_json_dict() == (
        design_report(secs.records, 1, lat.rank, 3).to_json_dict())


class _Reached(Exception):
    pass


@pytest.mark.parametrize("name,m,reused", [
    ("D4", 2, True), ("E6", 2, True), ("E7", 2, True), ("E8", 2, True),
    ("BW16", 2, True), ("E8", 3, False)])
def test_minimal_vectors_serve_reaches_below_the_next_norm(monkeypatch, name,
                                                           m, reused):
    # The norms of D4, E6, E7, E8 (min 2) and BW16 (min 4) step by 2.  Each
    # m = 2 reach, the Hadamard cap 4/3 min, lies below min + 2, so the
    # search reads the vectors `Lattice.minimum` kept; the E8 m = 3 reach,
    # 4, is enumerated.  Either way the list is a fresh enumeration's.
    lat = catalog(name)
    lat.minimum()
    real_query, real_enum = (lattice_mod.short_vectors_with_norms,
                             lattice_mod._enumerate)
    seen, enumerated = [], []

    def query(*args, **kwargs):
        seen.append((args[1], real_query(*args, **kwargs)))
        raise _Reached   # no search is needed past the query

    def enum(table, *args, **kwargs):
        enumerated.append(table is lat._table)
        return real_enum(table, *args, **kwargs)

    monkeypatch.setattr(lattice_mod, "short_vectors_with_norms", query)
    monkeypatch.setattr(lattice_mod, "_enumerate", enum)
    with pytest.raises(_Reached):
        minimal_sections(lat, m)
    monkeypatch.undo()
    (reach, got), = seen
    assert enumerated == ([] if reused else [True])
    s = lat._gram_scale
    assert got == [(c, Fraction(q, s)) for c, q in lattice_mod._enumerate(
        lat._table, lattice_mod._limit(lat, reach), half=True)]


@pytest.mark.parametrize("name,t,digest", [
    ("E7", 2, "2fafeb9e8e41f146d2a77b0828f4fcf6273198b4a7a03c3356a323285e894654"),
    ("E6", 3, "16baf5b82d8a988d86e3c409fd1fe288d0ed5ac293b212635c2b93b96f18b3a1"),
])
def test_readme_three_section_runs_keep_their_digests(capsys, name, t, digest):
    # Recorded from the exhaustive search and the ambient certificate.
    run = _load_run()
    assert main(["lattice", name, "--m", "3", "--sections", "--rankin",
                 "--perfection", "--t", str(t)]) == 0
    out = capsys.readouterr().out
    assert run.results_digest(json.loads(out)["results"]) == digest


def _hnf_closure(seeds, moves, lines_of):
    """The closure with every image keyed by its HNF: the reference for
    `lattice._closure`, which keys images by their candidate lines."""
    seen = {}
    for sat in seeds:
        key = tuple(hnf(sat))
        if key in seen:
            continue
        seen[key] = (sat, key)
        stack = [sat]
        while stack:
            y = stack.pop()
            for a, table, _ in moves:
                img = [table.get(row) or tuple(lattice_mod._rows_times([row], a)[0])
                       for row in y]
                k = tuple(hnf(img))
                if k not in seen:
                    seen[k] = (img, key)
                    stack.append(img)
    keys = sorted(seen)
    orbits, first = {}, {}
    for i, k in enumerate(keys):
        head = first.setdefault(seen[k][1], i)
        orbits[head] = orbits.get(head, 0) + 1
    return [tuple(map(tuple, seen[k][0])) for k in keys], orbits


def _hnf_keyed(lat, m):
    """The search with the HNF-keyed reference closure."""
    real = lattice_mod._closure
    lattice_mod._closure = _hnf_closure
    try:
        return minimal_sections(lat, m)
    finally:
        lattice_mod._closure = real


def _assert_closures_agree(build, m):
    got, ref = minimal_sections(build(), m), _hnf_keyed(build(), m)
    assert got.orbits is not None
    assert _keys(got) == _keys(ref) and got.coords == ref.coords
    assert (got.orbits, got.examined) == (ref.orbits, ref.examined)


@pytest.mark.parametrize("name,m", [("D4", 2), ("E6", 2), ("E7", 2),
                                    ("E8", 2), ("E6", 3), ("E7", 3),
                                    ("one root", 2)])
def test_line_key_closure_matches_the_hnf_closure(name, m):
    # The one-root basis has candidate lines of several norms, so its keys
    # need the seed's lines up to the largest candidate norm.
    _assert_closures_agree(
        lambda: Lattice(ONE_ROOT) if name == "one root" else catalog(name), m)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["D4", "E6"]), st.integers(0, 10 ** 6))
def test_line_key_closure_on_random_unimodular_bases(name, seed):
    rows = _unimodular(_basis(name), seed)
    _assert_closures_agree(lambda: Lattice(rows), 2)


def test_image_outside_the_candidates_runs_no_closure(monkeypatch):
    # One D4 minimal line hidden from the search: a candidate maps a line
    # onto it, so all candidates are refused and no closure runs.
    calls = []
    real_closure = lattice_mod._closure
    monkeypatch.setattr(lattice_mod, "_closure",
                        lambda *a: calls.append(a) or real_closure(*a))
    real = lattice_mod.short_vectors_with_norms
    monkeypatch.setattr(lattice_mod, "short_vectors_with_norms",
                        lambda *a, **k: real(*a, **k)[:-1])
    secs = minimal_sections(catalog("D4"), 2)
    full = _exhaustive(catalog("D4"), 2)
    assert not calls
    assert (secs.orbits, secs.examined, secs.generators) == (None, 0, 5)
    assert (secs.delta, secs.coords, secs.tuples) == (
        full.delta, full.coords, full.tuples)


def _fraction_right_inverse(basis_int):
    """B^T (B B^T)^-1 over Fractions, as the columns and the denominator of
    its lowest integer multiple: the reference for `_right_inverse`."""
    bbt = RatMatrix([[sum(map(mul, a, b)) for b in basis_int] for a in basis_int])
    pinv, pden = lattice_mod._int_scaled(RatMatrix(list(zip(*basis_int)))
                                         @ inverse(bbt))
    return [list(col) for col in zip(*pinv)], pden


def _reflections_attached(name):
    # The ambient root reflections attached, so that they go through the
    # right inverse as well.
    lat = catalog(name)
    lat.minimum()
    lat._automorphisms = [_reflection(v) for v in lattice_mod._ambient_rows(
        lat, lattice_mod._simple_roots(lat))]
    return lat


def _bw16_unimodular():
    lat = Lattice(_unimodular(_basis("BW16"), 3))
    lat._automorphisms = catalog("BW16")._automorphisms
    return lat


@pytest.mark.parametrize("build", [
    lambda: _reflections_attached("D4"), lambda: _reflections_attached("E6"),
    lambda: _reflections_attached("E7"), lambda: _reflections_attached("E8"),
    lambda: catalog("BW16"), _bw16_unimodular,
], ids=["D4", "E6", "E7", "E8", "BW16", "BW16-unimodular"])
def test_integer_right_inverse_keeps_the_coordinate_matrices(monkeypatch, build):
    lat = build()
    bi = lat._basis_int
    assert lattice_mod._right_inverse(bi) == _fraction_right_inverse(bi)
    got = coordinate_automorphisms(lat)
    assert got[1] is not None and len(got[1]) == got[0] >= len(lat._automorphisms)
    monkeypatch.setattr(lattice_mod, "_right_inverse", _fraction_right_inverse)
    assert coordinate_automorphisms(lat) == got
