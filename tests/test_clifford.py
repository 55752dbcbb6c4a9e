import itertools
import random
from fractions import Fraction as F

import pytest

from grassdex.binquad import (IsoSubspace, SigmaSet, enumerate_isotropic,
                              spread)
from grassdex.clifford import (CliffordGenerator, GeneratorSet,
                               OrbitCapExceeded, PauliOp, StabilizerLift,
                               build_design, clifford_generators, eigenspaces,
                               h2_action_coeffs, h2_action_coeffs_from_system,
                               h2_code_matrix, orbit, sigma_pair,
                               tensor_coeffs, tensor_coeffs_from_system,
                               verify_tt)
from grassdex.exactalg import RatMatrix, rref
from grassdex.grassmann import (Subspace, principal_power_sums,
                                verify_design)


def test_pauli_composition_and_square():
    rng = random.Random(3)
    for _ in range(30):
        k = rng.choice([2, 3])
        g = PauliOp(k, rng.randrange(1 << k), rng.randrange(1 << k),
                    rng.choice([1, -1]))
        h = PauliOp(k, rng.randrange(1 << k), rng.randrange(1 << k),
                    rng.choice([1, -1]))
        assert (g * h).matrix() == g.matrix() @ h.matrix()
    g = PauliOp(2, 0b01, 0b01)
    assert (g * g) == PauliOp(2, 0, 0, -1)  # q(v) = 1: squares to -I


def test_pauli_matrices_signed_permutation_orthogonal():
    for k in (1, 2, 3):
        for _ in range(5):
            rng = random.Random(k)
            g = PauliOp(k, rng.randrange(1 << k), rng.randrange(1 << k))
            m = g.matrix()
            assert m @ m.transpose() == RatMatrix.identity(1 << k)
            for j in range(1 << k):
                col = [m[i, j] for i in range(1 << k)]
                assert sorted(map(abs, col)) == [0] * ((1 << k) - 1) + [1]


def test_stabilizer_lift_requires_commuting_isotropic():
    with pytest.raises(ValueError):
        StabilizerLift(IsoSubspace(2, [0b0001, 0b0110]))  # B = 1 on the pair
    lift = StabilizerLift(IsoSubspace(2, [0b0001, 0b0010]))
    # The section is a homomorphism: lift(c1) lift(c2) = lift(c1 xor c2).
    for c1 in range(4):
        for c2 in range(4):
            assert lift.lift(c1) * lift.lift(c2) == lift.lift(c1 ^ c2)


def reference_lift(s, coeffs):
    """The product of the basis lifts picked by `coeffs`, multiplied in one
    at a time in increasing row order (the loop the lift table replaced)."""
    basis = [PauliOp.from_vector(s.k, v) for v in s.words]
    got = PauliOp(s.k, 0, 0, 1)
    i = 0
    while coeffs:
        if coeffs & 1:
            got = got * basis[i]
        coeffs >>= 1
        i += 1
    return got


def test_stabilizer_lift_table_matches_reference():
    # Every totally isotropic subspace with k <= 4: 4192 of them.
    count = 0
    for k in (1, 2, 3, 4):
        for w in range(1, k + 1):
            for s in enumerate_isotropic(k, w).members:
                lift = StabilizerLift(s)
                assert [lift.lift(c) for c in range(1 << w)] == \
                    [reference_lift(s, c) for c in range(1 << w)]
                count += 1
    assert count == 4192


def reference_eigenspaces(s):
    """Eigenspace bases the slow way: each Fraction projector
    2^-w sum_c chi(c) g_c, reduced by Fraction RREF."""
    lift = StabilizerLift(s)
    n = 1 << s.k
    ops = [lift.lift(c) for c in range(1 << s.w)]
    out = []
    for chi in range(1 << s.w):
        rows = [[F(0)] * n for _ in range(n)]
        for c, g in enumerate(ops):
            coef = -1 if (chi & c).bit_count() & 1 else 1
            for u in range(n):
                v, sgn = g.apply_index(u)
                rows[v][u] += F(coef * sgn, 1 << s.w)
        red, _, rk = rref(RatMatrix(rows))
        out.append(RatMatrix([red.row(i) for i in range(rk)]))
    return out


def _assert_eigenspaces_match_reference(s):
    points = eigenspaces(s).points
    expect = reference_eigenspaces(s)
    assert [p.basis for p in points] == expect
    assert points == [Subspace(1 << s.k, b) for b in expect]


@pytest.mark.parametrize("k,w", [(k, w) for k in (1, 2, 3) for w in range(1, k + 1)])
def test_eigenspaces_match_projector_reference(k, w):
    for s in enumerate_isotropic(k, w).members:
        _assert_eigenspaces_match_reference(s)


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_eigenspaces_match_projector_reference_k4_sample(w):
    members = enumerate_isotropic(4, w).members
    for s in random.Random(70 + w).sample(members, 8):
        _assert_eigenspaces_match_reference(s)


def test_eigenspaces_k1_swap():
    s = IsoSubspace(1, [0b01])
    eigs = eigenspaces(s)
    assert eigs.n == 2 and eigs.m == 1
    assert set(eigs.points) == {Subspace.line([1, 1]), Subspace.line([1, -1])}


def test_eigenspaces_k2_sign_patterns():
    s = IsoSubspace(2, [0b0001, 0b0010])
    eigs = eigenspaces(s)
    expect = {Subspace.line([1, 1, 1, 1]), Subspace.line([1, -1, 1, -1]),
              Subspace.line([1, 1, -1, -1]), Subspace.line([1, -1, -1, 1])}
    assert set(eigs.points) == expect


@pytest.mark.parametrize("k,words", [
    (2, [0b0001]), (2, [0b0001, 0b0010]), (3, [0b000011, 0b000100]),
    (3, [0b001010]),
])
def test_eigenspace_completeness_orthogonality(k, words):
    s = IsoSubspace(k, words)
    eigs = eigenspaces(s).points
    n = 1 << k
    assert len(eigs) == 1 << s.w
    total = RatMatrix.zeros(n, n)
    for e in eigs:
        assert e.m == 1 << (k - s.w)
        total = total + e.projector()
    assert total == RatMatrix.identity(n)
    for a, b in itertools.combinations(eigs, 2):
        assert a.projector() @ b.projector() == RatMatrix.zeros(n, n)
        assert principal_power_sums(a, b, 1)[0] == 0


def test_sigma_pair_examples():
    s = IsoSubspace(2, [0b0001, 0b0010])
    assert sigma_pair(s, 1, s, 1) == 1       # p = p', sigma = 2^s = 1
    assert sigma_pair(s, 0, s, 1) == 0       # same S, different characters
    t = IsoSubspace(2, [0b0100, 0b1000])
    vals = {sigma_pair(s, c1, t, c2) for c1 in range(4) for c2 in range(4)}
    assert vals == {F(1, 4)}                 # s = 0, disjoint: 2^-k


def test_sigma_pair_matches_trace_path():
    for sigma_set in (enumerate_isotropic(2, 1), enumerate_isotropic(2, 2),
                      spread(2, 2)):
        bd = build_design(sigma_set)
        pts = bd.config.points
        for i, (mi, ci) in enumerate(bd.labels):
            for j, (mj, cj) in enumerate(bd.labels):
                fast = sigma_pair(sigma_set.members[mi], ci,
                                  sigma_set.members[mj], cj)
                trace = principal_power_sums(pts[i], pts[j], 1)[0]
                assert fast == trace


def brute_force_agreeing_characters(s, t):
    """Character pairs (chi, chi') that agree on S meet T, counted one by one."""
    from grassdex.clifford import _agreement_data
    _, constraints = _agreement_data(s, t)
    agree = 0
    for chi in range(1 << s.w):
        for chi2 in range(1 << t.w):
            agree += all(((chi & cs).bit_count() + (chi2 & ct).bit_count()) & 1
                         == beta for cs, ct, beta in constraints)
    return agree


@pytest.mark.parametrize("k,w", [(k, w) for k in (1, 2, 3) for w in range(1, k + 1)])
def test_agreeing_characters_closed_form(k, w):
    # The fast path's closed form: 4^w / |S meet T| agreeing pairs.
    members = enumerate_isotropic(k, w).members
    for s in members:
        for t in members:
            meet = (s.span_mask() & t.span_mask()).bit_count()
            assert brute_force_agreeing_characters(s, t) * meet == 4 ** w


def test_build_design_counts():
    bd = build_design(enumerate_isotropic(2, 1))
    assert len(bd.config) == 18 and bd.collisions == 0
    assert bd.config.m == 2 and bd.config.n == 4
    bd33 = build_design(enumerate_isotropic(3, 3))
    assert len(bd33.config) == 240 and bd33.collisions == 0
    assert bd33.config.m == 1


def test_verify_tt_full_sets():
    rep = verify_tt(enumerate_isotropic(2, 1), tmax=3)
    assert all(rep.stats[t].is_design and rep.stats[t].paths_agree
               for t in (1, 2, 3))
    rep22 = verify_tt(enumerate_isotropic(2, 2), tmax=2)
    assert rep22.stats[1].is_design  # always a 2-design
    assert rep22.stats[1].paths_agree and rep22.stats[2].paths_agree


def test_verify_tt_trace_path_runs_design_rechecks(monkeypatch):
    # The trace path is the verify_design core: with sigma^1 sums off by one,
    # t = 1 fails while t = 2, 3 hold, which the monotonicity re-check refuses.
    from dataclasses import replace
    from grassdex import grassmann
    real = grassmann.pair_stats

    def shifted(*args, **kwargs):
        stats = real(*args, **kwargs)
        return replace(stats, sigma_pow={**stats.sigma_pow,
                                         1: stats.sigma_pow[1] + 1})

    monkeypatch.setattr(grassmann, "pair_stats", shifted)
    with pytest.raises(AssertionError, match="monotone"):
        verify_tt(enumerate_isotropic(2, 1), tmax=3)


@pytest.mark.parametrize("tmax", [0, 4])
def test_verify_tt_rejects_tmax_before_building(monkeypatch, tmax):
    from grassdex import clifford

    def no_build(sigma):
        raise AssertionError("build_design was called")

    monkeypatch.setattr(clifford, "build_design", no_build)
    with pytest.raises(ValueError, match="tmax"):
        verify_tt(enumerate_isotropic(2, 1), tmax=tmax)


def test_verify_tt_sums_orbits_of_full_sets_only():
    assert verify_tt(enumerate_isotropic(3, 2), tmax=2).orbits == 1
    rep = verify_tt(spread(2, 2), tmax=2)
    assert rep.orbits is None and rep.generators == 11


def test_verify_tt_spread_is_4_design():
    rep = verify_tt(spread(2, 2), tmax=2)
    assert rep.stats[1].is_design and rep.stats[2].is_design
    single = SigmaSet(2, 2, (enumerate_isotropic(2, 2).members[0],))
    rep1 = verify_tt(single, tmax=2)
    assert rep1.stats[1].is_design and not rep1.stats[2].is_design
    assert rep1.stats[2].paths_agree


def test_verify_tt_matches_iso_design_check():
    # The 2t verdict on the eigenspace configuration coincides with the
    # intersection-average equality of the underlying set at t - 1.
    import random
    from grassdex.binquad import check_iso_design
    rng = random.Random(41)
    members = list(enumerate_isotropic(2, 2).members)
    for _ in range(8):
        subset = tuple(rng.sample(members, rng.randint(1, len(members))))
        sigma_set = SigmaSet(2, 2, subset)
        rep = verify_tt(sigma_set, tmax=3)
        for t in (2, 3):
            iso = check_iso_design(sigma_set, t - 1)
            assert rep.stats[t].is_design == iso.passes


def test_generators_orthogonal_and_flags():
    for k in (1, 2, 3):
        gs = clifford_generators(k)
        n = 1 << k
        # g g^T = c I: h_first is S (x) I = sqrt 2 * H, the others orthogonal.
        for g in gs:
            c = 2 if g.name == "h_first" else 1
            assert g.matrix @ g.matrix.transpose() == RatMatrix.identity(n).scale(c)
        h = next(g for g in gs if g.name == "h_first")
        assert not h.in_gk
        # S (x) I with S = [[1, 1], [1, -1]] on the top index bit.
        s, half = [[1, 1], [1, -1]], n // 2
        assert h.matrix == RatMatrix(
            [[s[i // half][j // half] if i % half == j % half else 0
              for j in range(n)] for i in range(n)])
        if k >= 2:
            h2 = next(g for g in gs if g.name == "h2_first")
            assert h2.in_gk
            nonzero = [x for row in h2.matrix.entries for x in row if x != 0]
            assert all(abs(x) == F(1, 2) for x in nonzero)


def test_generator_diag_pair_example():
    gs = clifford_generators(2)
    dp = next(g for g in gs if g.name == "diag_pair_01")
    assert dp.matrix == RatMatrix.diagonal([1, 1, 1, -1])


def test_orbit_fixed_seed():
    gs = clifford_generators(2)
    perm_only = GeneratorSet(2, tuple(
        g for g in gs if g.name.startswith(("translate", "swap", "cycle",
                                            "transvect"))))
    assert len(orbit(perm_only, Subspace.line([1, 1, 1, 1]), cap=5)) == 1


def test_orbit_k2_minimal_lines():
    from grassdex.lattice import barnes_wall, minimal_sections
    gs = clifford_generators(2)
    o = orbit(gs, Subspace.line([1, 0, 0, 0]), cap=50)
    assert len(o) == 12
    minlines = set(minimal_sections(barnes_wall(2), 1).sections)
    assert set(o.points) == minlines
    assert verify_design(o, tmax=2).is_design(2)


def test_orbit_k3_minimal_lines_6_design():
    gs = clifford_generators(3)
    o = orbit(gs, Subspace.line([1, 1, 0, 0, 0, 0, 0, 0]), cap=120)
    assert len(o) == 120
    assert verify_design(o, tmax=3).is_design(3)


@pytest.mark.parametrize("k,size", [(1, 4), (2, 24), (3, 240)])
def test_orbit_with_h_first_flagged_in(k, size):
    # S (x) I acts on subspaces as H does, so flagging it in gives the orbit
    # under the whole real Clifford group: twice the G_k orbit (2, 12, 120).
    gens = GeneratorSet(k, tuple(CliffordGenerator(g.name, g.matrix, True)
                                 for g in clifford_generators(k)))
    n = 1 << k
    o = orbit(gens, Subspace.line([1] + [0] * (n - 1)), cap=1000)
    assert len(o) == size
    assert verify_design(o, tmax=3).is_design(3)


def test_orbit_cap():
    gs = clifford_generators(2)
    with pytest.raises(OrbitCapExceeded):
        orbit(gs, Subspace.line([1, 0, 0, 0]), cap=3)


def test_coeff_closed_forms_match_system():
    for k in (2, 3, 4):
        for r in range(5):
            assert h2_action_coeffs(k, r) == h2_action_coeffs_from_system(k, r)
            assert (h2_action_coeffs(k, r)[0] == 1) == (r in (0, k))


def test_tensor_coeffs_examples():
    assert tensor_coeffs(3, 6, 1)[0] == F(-1, 14)
    assert tensor_coeffs(2, 6, 1)[0] == 1      # r = 2 = k
    assert tensor_coeffs(3, 8, 4)[0] == 1      # r = 0
    assert tensor_coeffs(3, 8, 4) == tensor_coeffs_from_system(3, 8, 4)
    with pytest.raises(ValueError):
        tensor_coeffs(3, 10, 1)
    with pytest.raises(ValueError):
        tensor_coeffs(3, 6, 5)


def extract_distinguished_vector(codes, fixed):
    """The fixed vector normalized to 1 on the length-stabilizing base code
    and 0 on every self-dual coordinate (None if not in the fixed space)."""
    sd = [i for i, c in enumerate(codes) if c.is_self_dual]
    one_idx = next(i for i, c in enumerate(codes) if c.dim == 1)
    rows = [[fixed[i, j] for j in range(fixed.cols)] for i in range(fixed.rows)]
    sys_rows = [[r[one_idx] for r in rows]] + [[r[j] for r in rows] for j in sd]
    rhs = [F(1)] + [F(0)] * len(sd)
    aug = RatMatrix([sys_rows[i] + [rhs[i]] for i in range(len(sys_rows))])
    red, piv, rk = rref(aug)
    if any(p == fixed.rows for p in piv):
        return None
    x = [F(0)] * fixed.rows
    for i, p in enumerate(piv):
        x[p] = red[i, aug.cols - 1]
    return [sum(x[i] * rows[i][j] for i in range(fixed.rows))
            for j in range(fixed.cols)]


def brute_force_code_count(d, max_dim):
    """Oracle: all subspace codes containing the all-ones word inside their
    dual, by exhaustive span enumeration."""
    ones = (1 << d) - 1
    even = [v for v in range(1, 1 << d) if v.bit_count() % 2 == 0]
    seen = {((ones,),)}
    found = {(ones,)}
    frontier = [(ones,)]
    for _ in range(max_dim - 1):
        nxt = []
        for gens in frontier:
            words = set()
            span = {0}
            for g in gens:
                span |= {s ^ g for s in span}
            for v in even:
                if v in span:
                    continue
                if any((v & w).bit_count() % 2 for w in span):
                    continue
                from grassdex.exactalg import bit_rref
                canon, _ = bit_rref(list(gens) + [v])
                if canon not in found:
                    found.add(canon)
                    nxt.append(canon)
        frontier = nxt
    return found


def test_code_enumeration_counts():
    codes6, _, _ = h2_code_matrix(3, 6)
    assert len(codes6) == 31
    oracle = brute_force_code_count(6, 3)
    assert {c.generators for c in codes6} == oracle
    dims = [c.dim for c in codes6]
    assert dims == sorted(dims)


def test_code_enumeration_matches_filter():
    # Filter every subspace of F_2^d spanned by up to d/2 words.
    from grassdex.clifford import _enumerate_codes
    from grassdex.exactalg import bit_rref, bit_span
    for d in (2, 4, 6):
        ones = (1 << d) - 1
        expected = set()
        for dim in range(1, d // 2 + 1):
            for combo in itertools.combinations(range(1, 1 << d), dim):
                words, _ = bit_rref(combo)
                span = bit_span(words)
                if (len(words) == dim and ones in span
                        and all((u & v).bit_count() % 2 == 0
                                for u in words for v in words)):
                    expected.add(words)
        codes = _enumerate_codes(d, d // 2)
        assert [c.generators for c in codes] == sorted(
            expected, key=lambda words: (len(words), words))
        for c in codes:
            assert c.dim == len(c.generators)
            assert c.words == frozenset(bit_span(c.generators))


def test_code_matrix_upper_triangular_with_a1_diagonal():
    codes, mat, _ = h2_code_matrix(2, 6)
    for i in range(len(codes)):
        for j in range(i):
            assert mat[i, j] == 0
        assert mat[i, i] == h2_action_coeffs(2, 3 - codes[i].dim)[0]


@pytest.mark.parametrize("d,expected_sd", [(2, 1), (4, 3), (6, 15)])
def test_fixed_space_k3_small_degrees(d, expected_sd):
    codes, _, fixed = h2_code_matrix(3, d)
    sd = {i for i, c in enumerate(codes) if c.is_self_dual}
    assert len(sd) == expected_sd
    assert fixed.rows == expected_sd
    for i in range(fixed.rows):
        for j in range(fixed.cols):
            if fixed[i, j] != 0:
                assert j in sd


def test_fixed_space_extra_invariants():
    codes, _, fixed = h2_code_matrix(2, 6)
    sd = [i for i, c in enumerate(codes) if c.is_self_dual]
    assert fixed.rows == len(sd) + 1
    v = extract_distinguished_vector(codes, fixed)
    dim2 = [i for i, c in enumerate(codes) if c.dim == 2 and not c.is_self_dual]
    assert all(v[j] == F(-1, 12) for j in dim2)

    codes8, _, fixed8 = h2_code_matrix(3, 8)
    sd8 = [i for i, c in enumerate(codes8) if c.is_self_dual]
    assert len(sd8) == 135
    assert fixed8.rows == len(sd8) + 1
    v8 = extract_distinguished_vector(codes8, fixed8)
    for dim, coeff in ((2, F(-1, 40)), (3, F(1, 480))):
        idx = [i for i, c in enumerate(codes8)
               if c.dim == dim and not c.is_self_dual]
        assert all(v8[j] == coeff for j in idx)
    assert all(v8[j] == 0 for j in sd8)


def test_code_matrix_unsupported_combination():
    with pytest.raises(ValueError):
        h2_code_matrix(2, 8)  # dim-4 expansions leave the spanning basis
