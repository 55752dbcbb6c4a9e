"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every verdict below is an exact equality of rationals (tolerance zero); the
only approximate checks are the Monte-Carlo three-sigma windows of criterion
10, which validate the sampling oracle, never a certificate.  Each test
prints a single pass/fail line (visible with `pytest -s`).
"""

import itertools
import random
import sys
import time
from fractions import Fraction as F

from grassdex import binquad
from grassdex.binquad import (SigmaSet, SpreadNotFound, check_iso_design,
                              d_constant, enumerate_isotropic, orbital, spread)
from grassdex.clifford import (build_design, h2_action_coeffs,
                               h2_action_coeffs_from_system, h2_code_matrix,
                               sigma_pair, tensor_coeffs,
                               tensor_coeffs_from_system, verify_tt)
from grassdex.exactalg import RatMatrix, rref
from grassdex.grassmann import (Configuration, Subspace, average_sigma_power,
                                principal_power_sums, verify_design,
                                zonal_positivity)
from grassdex.lattice import (barnes_wall, catalog, check_eutaxy,
                              check_perfection, minimal_line_configuration,
                              minimal_sections, section_design_report,
                              similar_to, theta_shells)
from grassdex.zonal import constant_c

from _moments import exact_line_moment, moment_oracle


def _line(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {status} ({time.time() - t0:5.1f}s) {detail}",
          file=sys.stderr, flush=True)


def test_criterion_01_constants_bridge_identity():
    t0 = time.time()
    checked = 0
    # All 20 pairs (k, s) with 2^(s+1) <= 2^k up to k = 6: the bridge holds
    # exactly through t = 3 and fails at every pair for t = 4, 5 and 6,
    # where the 6-designs stop.
    for k in range(2, 7):
        for s in range(k):
            for t in range(1, 7):
                lhs = F(2) ** (-(2 * s - k) * t) * constant_c(2 ** s, 2 ** k, t)
                rhs = d_constant(k, k - s, t - 1)
                if t <= 3:
                    assert lhs == rhs, (k, s, t, lhs, rhs)
                else:
                    assert lhs != rhs, (k, s, t, lhs, rhs)
                checked += 1
    assert checked == 20 * 6
    elapsed = time.time() - t0
    _line(1, True, f"{checked} (k, s, t), exact: equal for t <= 3 only", t0)
    assert elapsed < 120


def test_criterion_02_d4_minimal_lines():
    t0 = time.time()
    rep = verify_design(minimal_line_configuration(catalog("D4")), tmax=3)
    ok = rep.is_design(2) and not rep.is_design(3) and rep.size == 12
    _line(2, ok, f"12 lines: 4-design={rep.is_design(2)}, "
                 f"6-design={rep.is_design(3)}", t0)
    assert ok
    assert time.time() - t0 < 1


def test_criterion_03_e8_minimal_lines():
    t0 = time.time()
    cfg = minimal_line_configuration(catalog("E8"))
    rep = verify_design(cfg, tmax=3)
    c8 = exact_line_moment(8, 4)
    avg8 = average_sigma_power(cfg, 4)
    ok = (rep.size == 120 and rep.is_design(3)
          and c8 == F(1, 128) and avg8 != c8)
    _line(3, ok, f"120 lines: 6-design={rep.is_design(3)}, "
                 f"sigma^4 avg {avg8} != {c8}", t0)
    assert ok
    assert time.time() - t0 < 10


def test_criterion_04_e8_minimal_2_sections():
    t0 = time.time()
    e8 = catalog("E8")
    secs = minimal_sections(e8, 2)
    rep = section_design_report(e8, secs, tmax=2)
    _, perfect = check_perfection(e8, 2, secs)
    eut = check_eutaxy(e8, 2, secs)
    ok = (secs.delta == 3 and rep.is_design(2) and perfect and eut.is_eutactic)
    _line(4, ok, f"delta_2=3, {len(secs)} sections, 4-design="
                 f"{rep.is_design(2)}, perfect={perfect}, "
                 f"eutactic={eut.is_eutactic}", t0)
    assert ok
    assert time.time() - t0 < 300


def test_criterion_05_bw16_minimal_lines():
    t0 = time.time()
    bw16 = catalog("BW16")
    ok_norm = bw16.minimum() == 4 and bw16.det() == 2 ** 8
    cfg = minimal_line_configuration(bw16)
    rep = verify_design(cfg, tmax=3)
    ok = ok_norm and rep.size == 2160 and rep.is_design(3)
    _line(5, ok, f"min=4 det=2^8: {ok_norm}; 2160 lines 6-design="
                 f"{rep.is_design(3)}", t0)
    assert ok
    assert time.time() - t0 < 600


def test_criterion_06_barnes_wall_sanity():
    t0 = time.time()
    bw4 = barnes_wall(2)
    sim = similar_to(bw4, catalog("D4"))
    bw8 = barnes_wall(3, normalized=True)
    shells = theta_shells(bw8, 2)
    even_uni = (bw8.det() == 1 and shells.get(F(2)) == 240
                and all(x.denominator == 1 for row in bw8.gram.entries
                        for x in row)
                and all(int(bw8.gram[i, i]) % 2 == 0 for i in range(8)))
    ok = sim and even_uni
    _line(6, ok, f"BW4~D4: {sim}; BW8 even unimodular with 240 roots: "
                 f"{even_uni}", t0)
    assert ok
    assert time.time() - t0 < 60


def test_criterion_07_clifford_full_sigma():
    t0 = time.time()
    ok = True
    details = []
    for k, w, size in ((2, 1, 18), (3, 3, 240)):
        sigma = enumerate_isotropic(k, w)
        bd = build_design(sigma)
        rep = verify_tt(sigma, tmax=3, build=bd)
        good = (len(bd.config) == size
                and all(rep.stats[t].is_design for t in (1, 2, 3))
                and all(rep.stats[t].paths_agree for t in (1, 2, 3)))
        # pairwise exact agreement of the fast and trace paths
        pts = bd.config.points
        for i, (mi, ci) in enumerate(bd.labels):
            for j, (mj, cj) in enumerate(bd.labels):
                fast = sigma_pair(sigma.members[mi], ci, sigma.members[mj], cj)
                if fast != principal_power_sums(pts[i], pts[j], 1)[0]:
                    good = False
                    break
            else:
                continue
            break
        ok = ok and good
        details.append(f"k={k},w={w}: {size} pts 6-design={good}")
    _line(7, ok, "; ".join(details), t0)
    assert ok
    assert time.time() - t0 < 120


def test_criterion_08a_spread_design_k2_w1():
    t0 = time.time()
    sigma = spread(2, 1)
    rep = verify_tt(sigma, tmax=2)
    ok = rep.config_size == 18 and rep.stats[2].is_design
    _line("8a", ok, f"spread(2,1): 18 planes 4-design={rep.stats[2].is_design}", t0)
    assert ok


def test_criterion_08b_spread_design_k3_w3():
    t0 = time.time()
    # Exhaustive search over the 30 maximal isotropics of the 6-dimensional
    # hyperbolic space proves that no 5-member spread exists (two members of
    # the same parity class always share a point), so the 40-line target
    # configuration cannot be built.  The assertion records the stated
    # target and fails honestly rather than weakening it.
    try:
        sigma = spread(3, 3)
    except SpreadNotFound as exc:
        _line("8b", False, f"spread(3,3) unavailable: {exc}", t0)
        raise AssertionError(
            "spread(3,3) does not exist (exhaustive proof); the 40-line "
            "4-design cannot be constructed") from exc
    rep = verify_tt(sigma, tmax=2)
    ok = rep.config_size == 40 and rep.stats[2].is_design
    _line("8b", ok, f"spread(3,3): 40 lines 4-design={rep.stats[2].is_design}", t0)
    assert ok


def test_criterion_08c_spread_design_k4_w2():
    t0 = time.time()
    sigma = spread(4, 2)
    assert len(sigma) == 45
    rep = verify_tt(sigma, tmax=2)
    ok = rep.config_size == 180 and rep.stats[2].is_design
    _line("8c", ok, f"spread(4,2): 180 4-spaces in G(4,16), "
                    f"4-design={rep.stats[2].is_design}", t0)
    assert ok
    assert time.time() - t0 < 600


def test_criterion_09_code_coefficients_and_fixed_spaces():
    t0 = time.time()
    for k in (2, 3, 4):
        for r in range(5):
            assert h2_action_coeffs(k, r) == h2_action_coeffs_from_system(k, r)
            assert (h2_action_coeffs(k, r)[0] == 1) == (r in (0, k))
    for d in (2, 4, 6):
        for dim_c in range(1, min(4, d // 2) + 1):
            assert tensor_coeffs(3, d, dim_c) == tensor_coeffs_from_system(3, d, dim_c)
    # k=3, d<=6: fixed space = self-dual rows only
    for d, nsd in ((2, 1), (4, 3), (6, 15)):
        codes, _, fixed = h2_code_matrix(3, d)
        sd = {i for i, c in enumerate(codes) if c.is_self_dual}
        assert len(sd) == nsd and fixed.rows == nsd
        assert all(fixed[i, j] == 0
                   for i in range(fixed.rows) for j in range(fixed.cols)
                   if j not in sd)
    # extra invariants
    v6 = _distinguished(*h2_code_matrix(2, 6)[::2])
    codes6 = h2_code_matrix(2, 6)[0]
    dim2 = [i for i, c in enumerate(codes6) if c.dim == 2 and not c.is_self_dual]
    ok6 = all(v6[j] == F(-1, 12) for j in dim2)
    codes8, _, fixed8 = h2_code_matrix(3, 8)
    v8 = _distinguished(codes8, fixed8)
    ok8 = (all(v8[j] == F(-1, 40) for j, c in enumerate(codes8)
               if c.dim == 2 and not c.is_self_dual)
           and all(v8[j] == F(1, 480) for j, c in enumerate(codes8)
                   if c.dim == 3 and not c.is_self_dual))
    ok = ok6 and ok8
    _line(9, ok, f"coeff identities exact; extra invariants (1,-1/12) and "
                 f"(1,-1/40,1/480): {ok6}, {ok8}", t0)
    assert ok
    assert time.time() - t0 < 60


def _distinguished(codes, fixed):
    sd = [i for i, c in enumerate(codes) if c.is_self_dual]
    one_idx = next(i for i, c in enumerate(codes) if c.dim == 1)
    rows = [[fixed[i, j] for j in range(fixed.cols)] for i in range(fixed.rows)]
    sys_rows = [[r[one_idx] for r in rows]] + [[r[j] for r in rows] for j in sd]
    rhs = [F(1)] + [F(0)] * len(sd)
    aug = RatMatrix([sys_rows[i] + [rhs[i]] for i in range(len(sys_rows))])
    red, piv, _ = rref(aug)
    x = [F(0)] * fixed.rows
    for i, p in enumerate(piv):
        x[p] = red[i, aug.cols - 1]
    return [sum(x[i] * rows[i][j] for i in range(fixed.rows))
            for j in range(fixed.cols)]


def test_criterion_10_property_suites():
    t0 = time.time()
    rng = random.Random(20240809)

    # Zonal positivity on 500 random configurations.
    from grassdex.zonal import supported_partitions
    for _ in range(500):
        n = rng.choice([3, 4, 5, 6])
        m = rng.choice([1, 2])
        if 2 * m > n:
            m = 1
        pts = []
        while len(pts) < rng.randint(2, 4):
            rows = [[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
                    for _ in range(m)]
            try:
                pts.append(Subspace(n, rows))
            except ValueError:
                continue
        cfg = Configuration(n, pts)
        for mu in supported_partitions(m):
            assert zonal_positivity(cfg, mu) >= 0

    # Power-sum symmetry and monotonicity.
    for _ in range(100):
        n = rng.choice([4, 5, 6])
        m = rng.choice([1, 2, 3])
        if 2 * m > n:
            continue
        subs = []
        while len(subs) < 2:
            rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            try:
                subs.append(Subspace(n, rows))
            except ValueError:
                continue
        p, q = subs
        sp = principal_power_sums(p, q, 3)
        assert sp == principal_power_sums(q, p, 3)
        assert all(0 <= sp[t] <= m for t in range(3))
        assert sp[0] >= sp[1] >= sp[2]

    # Spread validity.
    for k, w in ((2, 1), (2, 2), (4, 2), (4, 4)):
        sp_ = spread(k, w)
        masks = [s.span_mask() for s in sp_.members]
        for a, b in itertools.combinations(masks, 2):
            assert a & b == 1
        union = 1
        for mk in masks:
            union |= mk
        assert union.bit_count() == binquad.num_isotropic(k, 1) + 1

    # Orbital symmetry.
    for k, w in ((2, 2), (3, 2), (3, 3)):
        members = enumerate_isotropic(k, w).members
        sample = rng.sample(list(members), min(12, len(members)))
        for s, t2 in itertools.combinations(sample, 2):
            assert orbital(s, t2) == orbital(t2, s)

    # Intersection-average lower bound on 200 random subsets per (k, w).
    for k in (2, 3, 4):
        for w in range(1, k + 1):
            members = list(enumerate_isotropic(k, w).members)
            for _ in range(200):
                size = rng.randint(1, min(len(members), 24))
                sub = SigmaSet(k, w, tuple(rng.sample(members, size)))
                chk = check_iso_design(sub, rng.randint(1, 3))
                assert chk.average >= chk.expected

    # Monte-Carlo oracle within three sigma of the exact constants.
    mc_ok = []
    for m, n in ((2, 4), (2, 8), (3, 8)):
        for t in (1, 2):
            est = moment_oracle(m, n, t, samples=120_000, seed=97 + m + n + t)
            target = float(constant_c(m, n, t))
            mc_ok.append(abs(est.estimate - target) <= 3 * est.stderr)
    ok = all(mc_ok)
    _line(10, ok, f"positivity x500, power sums x100, spreads, orbitals, "
                  f"subset bound x200/(k,w), MC 3-sigma: {mc_ok}", t0)
    assert ok
    assert time.time() - t0 < 300
