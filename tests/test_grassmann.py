import json
import random
from fractions import Fraction as F

import os

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grassdex.exactalg import RatMatrix, inverse, trace_pow
from grassdex.grassmann import (Configuration, Subspace, _clamp_workers, _cpus,
                                average_sigma_power, default_workers,
                                eval_zonal, pair_stats, principal_power_sums,
                                sigma, verify_design, zonal_positivity)
from grassdex.zonal import P0, P1


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
    assert pr.is_symmetric()


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
    cfg = Configuration.from_lines(4, d4_line_vectors())
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
    rep = verify_design(Configuration.from_lines(n, axes), tmax=2)
    assert rep.is_design(1)
    assert not rep.is_design(2)
    assert rep.t_stats[2].average == F(1, n)
    assert rep.t_stats[2].expected == F(3, n * (n + 2))


def test_multiset_orbit_consistency():
    # A duplicated multiset must average identically to the plain set.
    cfg = Configuration.from_lines(4, d4_line_vectors())
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
    cfg = Configuration.from_lines(4, d4_line_vectors())
    assert zonal_positivity(cfg, P0) == len(cfg) ** 2
    assert zonal_positivity(cfg, P1) == 0
    rng = random.Random(5)
    for _ in range(20):
        pts = [random_subspace(rng, 4, 1) for _ in range(3)]
        val = zonal_positivity(Configuration(4, pts), P1)
        assert val >= 0


def test_pair_stats_worker_independence():
    rng = random.Random(9)
    pts = [random_subspace(rng, 4, 2) for _ in range(70)]
    s1 = pair_stats(pts, tmax=3, workers=1)
    s2 = pair_stats(pts, tmax=3, workers=3)
    assert s1.sigma_pow == s2.sigma_pow and s1.power2 == s2.power2


def test_average_sigma_power_high_t():
    cfg = Configuration.from_lines(2, [[1, 0], [0, 1], [1, 1], [1, -1]])
    # 4 lines at 45 degrees: sigma values 1 or 1/2.
    avg4 = average_sigma_power(cfg, 4)
    assert avg4 == (4 * 1 + 8 * F(1, 16)) / 16


def test_verify_design_requires_small_m():
    p = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        verify_design(Configuration(3, [p]), tmax=1)


def test_configuration_json_round_trip():
    cfg = Configuration.from_lines(4, d4_line_vectors())
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


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("GRASSDEX_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("GRASSDEX_WORKERS", "junk")
    assert default_workers() >= 1


def test_default_workers_follow_affinity(monkeypatch):
    monkeypatch.delenv("GRASSDEX_WORKERS", raising=False)
    assert default_workers() == _cpus()
    if hasattr(os, "sched_getaffinity"):
        assert _cpus() == len(os.sched_getaffinity(0))


def test_worker_clamp():
    # Exercised on the helper alone: no pool is ever started with these.
    cpus = _cpus()
    assert _clamp_workers(100000, 10 ** 6) == cpus
    assert _clamp_workers(100000, 3) == min(cpus, 3)
    assert _clamp_workers(0, 50) == 1 and _clamp_workers(-4, 50) == 1
    assert _clamp_workers(2, 1) == 1


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
# integer bases whose Gram adjugates exceed 2^63.
entries = st.one_of(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40))


@st.composite
def configurations(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(max(m, 2), 6))
    count = draw(st.integers(1, 4))
    return m, n, [draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                min_size=m, max_size=m)) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@example((2, 4, [[[2 ** 40 + 1, 3, 0, 7], [5, -2 ** 41, 1, 0]],
                 [[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 1, 0, 0], [0, 0, 1, 3]]]))
@given(configurations())
def test_pair_engine_matches_projector_reference(data):
    m, n, bases = data
    try:
        cfg = Configuration(n, [Subspace(n, rows) for rows in bases])
    except ValueError:
        assume(False)
    sums, power2 = projector_reference(cfg.points, 5)
    for workers in (1, 2):
        stats = pair_stats(cfg.points, tmax=5, workers=workers)
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
