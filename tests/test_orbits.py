"""The orbit-reduced trace path: the certificate that a group permutes a
configuration, and the pair distribution summed over its orbits."""

import os
import random
from fractions import Fraction

import pytest

from grassdex.binquad import enumerate_isotropic, spread
from grassdex.clifford import build_design, clifford_generators
from grassdex.exactalg import RatMatrix
from grassdex.grassmann import (IntAction, Subspace, _count_rows,
                                certified_orbits, line_key, pair_stats)

from test_grassmann import _run_python


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
    full = pair_stats(points, tmax=3)
    assert full.orbits is None
    for gens in (_generators(k), _tt_order(k)):
        reduced = pair_stats(points, tmax=3, generators=gens)
        assert reduced.orbits is not None
        assert reduced.distribution == full.distribution
        assert reduced.sigma_pow == full.sigma_pow
        assert reduced.size == full.size == len(points)
    # In `verify_tt`'s order three generators leave one orbit; the
    # certificate examines nothing after them.
    assert (reduced.orbits, reduced.examined) == (1, 3)


def test_all_sets_are_single_orbits():
    # The real Clifford group is transitive on each "all" configuration.
    for k, w in [(2, 1), (3, 2), (3, 3)]:
        points = _all_points(k, w)
        assert certified_orbits(points, _generators(k)) == {0: len(points)}


def test_multiplicities_enter_the_orbit_weights():
    # Every point twice: still invariant, each orbit weighs twice its size,
    # and duplicate pairs are counted as the full engine counts them.
    points = _all_points(2, 1)
    doubled = points + points
    assert certified_orbits(doubled, _generators(2)) == {0: 2 * len(points)}
    reduced = pair_stats(doubled, tmax=3, generators=_generators(2))
    full = pair_stats(doubled, tmax=3)
    assert reduced.orbits == 1
    assert reduced.distribution == full.distribution


def test_several_orbits_are_summed():
    # Under the diagonal sign maps alone the 240 lines split into orbits.
    gens = [g.matrix for g in clifford_generators(3)
            if g.name.startswith(("neg", "diag"))]
    points = _all_points(3, 3)
    orbits = certified_orbits(points, gens)
    assert orbits is not None and len(orbits) > 1
    assert sum(orbits.values()) == len(points)
    reduced = pair_stats(points, tmax=3, generators=gens)
    assert reduced.orbits == len(orbits)
    assert reduced.distribution == pair_stats(points, tmax=3).distribution


def _row(points, i):
    """The pair distribution of point i against every point, counted
    len(points) times: the full engine's distribution when a transitive
    group permutes the points."""
    data = [p.int_data() for p in points]
    return {(Fraction(a, b), Fraction(c, d)): count
            for (a, b, c, d), count in _count_rows(data, [(i, 0, len(points))]).items()}


def test_early_stop_on_k4_w2_planes_matches_sampled_rows():
    # 6300 points at m = 4 are 19.8M pairs, too many for the full engine
    # here (the README run's recorded digest pins its totals).  Every row of
    # a transitive configuration has the same distribution, so the one
    # orbit row must equal the rows of points the certificate never chose.
    points = _all_points(4, 2)
    reduced = pair_stats(points, tmax=3, generators=_tt_order(4))
    assert (reduced.orbits, reduced.examined) == (1, 3)
    for i in random.Random(7).sample(range(1, len(points)), 2):
        assert reduced.distribution == _row(points, i)


def test_generator_after_one_orbit_is_not_examined():
    # The swap does not permute the lines, but the triple before it already
    # leaves one orbit, so the certificate never looks at it.
    points = _all_points(3, 3)
    gens = _tt_order(3)
    gens[3:3] = [_index_swap(8, 0, 1)]
    stats = pair_stats(points, tmax=3, generators=gens)
    assert certified_orbits(points, gens) == {0: len(points)}
    assert (stats.orbits, stats.examined) == (1, 3)
    assert stats.distribution == pair_stats(points, tmax=3).distribution


def test_same_generator_first_is_refused():
    points = _all_points(3, 3)
    gens = [_index_swap(8, 0, 1)] + _tt_order(3)
    stats = pair_stats(points, tmax=3, generators=gens)
    assert certified_orbits(points, gens) is None
    assert (stats.orbits, stats.examined) == (None, 0)
    assert stats.distribution == pair_stats(points, tmax=3).distribution


def test_two_orbits_examine_every_generator():
    # Without H the 240 lines at (3, 3) fall into two orbits of 120.
    points = _all_points(3, 3)
    gens = [g.matrix for g in clifford_generators(3) if g.in_gk]
    stats = pair_stats(points, tmax=3, generators=gens)
    assert certified_orbits(points, gens) == {0: 120, 8: 120}
    assert (stats.orbits, stats.examined) == (2, len(gens))
    assert stats.distribution == pair_stats(points, tmax=3).distribution


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
        stats = pair_stats(points, tmax=3, generators=gens)
        full = pair_stats(points, tmax=3)
        if (certified_orbits(points, gens) is not None
                or stats.orbits is not None
                or stats.distribution != full.distribution
                or stats.sigma_pow != full.sigma_pow):
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
