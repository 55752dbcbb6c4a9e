import hashlib
import itertools
import json
import os
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from grassdex import binquad, clifford
from grassdex.binquad import (IsoSubspace, QuadSpace, SigmaSet, SpreadNotFound,
                              check_iso_design, d_constant, enumerate_isotropic,
                              generator_families, num_isotropic_points, orbital,
                              spread, spread_size)
from grassdex.clifford import PauliOp, _enumerate_codes
from grassdex.exactalg import bit_rref, bit_span, bit_subspaces
from grassdex.zonal import P1, ZonalPolynomial, constant_c, jacobi_p
from test_grassmann import _run_python


def brute_force_isotropic_subspaces(k, w):
    """Independent oracle: filter every w-subspace of F_2^(2k) by canonical
    RREF span, keeping those on which q vanishes."""
    space = QuadSpace(k)
    dim = 2 * k
    found = set()
    vectors = range(1, 1 << dim)
    for combo in itertools.combinations(vectors, w):
        words, _ = bit_rref(combo)
        if len(words) != w or words in found:
            continue
        if all(space.q(v) == 0 for v in bit_span(words)):
            found.add(words)
    return found


def test_quadspace_form():
    sp = QuadSpace(2)
    # q(a, b) = a.b with a in the low bits, b in the high bits.
    assert sp.q(0b0101) == 1
    assert sp.q(0b0100) == 0
    for u in range(16):
        for v in range(16):
            assert sp.bform(u, v) == (sp.q(u ^ v) ^ sp.q(u) ^ sp.q(v))


def test_isotropic_point_counts():
    for k in range(1, 6):
        assert len(QuadSpace(k).isotropic_points()) == num_isotropic_points(k)
        assert len(enumerate_isotropic(k, 1)) == num_isotropic_points(k)


def test_enumeration_against_brute_force():
    assert len(enumerate_isotropic(2, 1)) == 9
    got = {s.words for s in enumerate_isotropic(2, 2).members}
    assert got == brute_force_isotropic_subspaces(2, 2)
    assert len(got) == 6
    got32 = {s.words for s in enumerate_isotropic(3, 2).members}
    assert got32 == brute_force_isotropic_subspaces(3, 2)
    got33 = {s.words for s in enumerate_isotropic(3, 3).members}
    assert len(got33) == 30  # prod (2^i + 1), i = 0..2


def test_isotropic_counts_closed_form():
    for k in range(1, 5):
        for w in range(1, k + 1):
            num = den = 1
            for i in range(w):
                num *= (2 ** (k - i) - 1) * (2 ** (k - i - 1) + 1)
                den *= 2 ** (i + 1) - 1
            words = [s.words for s in enumerate_isotropic(k, w).members]
            assert len(words) == num // den
            assert words == sorted(set(words))


@pytest.mark.parametrize("k,w", [(k, w) for k in range(1, 5)
                                 for w in range(1, k + 1)] + [(5, 1), (5, 2)])
def test_enumeration_tables_match_the_form(k, w):
    # The isotropy test reads tables of q and of half-swapped words; the
    # members and their order are those of the QuadSpace predicate.
    space = QuadSpace(k)

    def isotropic(rows, v):
        return space.q(v) == 0 and not any(space.bform(v, r) for r in rows)

    expect = [IsoSubspace(k, words)
              for words in bit_subspaces(2 * k, w, isotropic)]
    assert list(enumerate_isotropic(k, w).members) == expect


def _digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_enumeration_order_pinned():
    # Digests of the ordered outputs as the earlier per-module enumerators
    # produced them; every downstream result digest depends on this order.
    got = {f"iso4_{w}": _digest([list(s.words)
                                 for s in enumerate_isotropic(4, w).members])
           for w in range(1, 5)}
    got["codes8_4"] = _digest([[c.dim, list(c.generators)]
                               for c in _enumerate_codes(8, 4)])
    got["lin4"] = _digest([list(words) for d in range(5)
                           for words in bit_subspaces(4, d)])
    assert got == {
        "iso4_1": "41138516e4007c2b1a6a63e2e95facc1f784e646e300095a4cfd84aed8ecfd5f",
        "iso4_2": "ea74f4a04fb81302e917305865e6d3cfa8c9753eb400f6433c7fb7cfc397ff64",
        "iso4_3": "49d7a8f5f7e84e8786794e3e0f2b814bd1599815c1a581a39a7a58bc256ba307",
        "iso4_4": "88aa8c5f29d2d90a11b1fd3d2a04dee8b1d87c0a75c5323ab7e772f7757d8518",
        "codes8_4": "64d0131101144fc8a0cb5d2bf906695bea18f380ec2fb70d63a9437478132cfd",
        "lin4": "8fe6402cb7ee06b1ffc8b7d32bfe656df7193957c713d677f9311c47ae8949b3",
    }


def test_iso_subspace_rejects_anisotropic():
    with pytest.raises(ValueError):
        IsoSubspace(2, [0b0101])  # q = 1
    with pytest.raises(ValueError):
        IsoSubspace(2, [0b0001, 0b0100])  # B = 1 on the pair
    for words in ([0b10000], [0b10001], [-1]):
        with pytest.raises(ValueError):
            IsoSubspace(2, words)  # not a vector of F_2^4


def test_iso_subspace_basis_check_matches_span_walk():
    # q on the span is decided from q on the basis words and B on their
    # pairs; every word list at k = 2 (up to three words) and every pair at
    # k = 3 is judged as the walk over the whole span judges it.
    def accepted(k, words):
        try:
            IsoSubspace(k, words)
        except ValueError:
            return False
        return True

    cases = [(2, c) for r in (1, 2, 3)
             for c in itertools.combinations(range(1, 16), r)]
    cases += [(3, c) for c in itertools.combinations(range(1, 64), 2)]
    for k, words in cases:
        space = QuadSpace(k)
        walk = all(space.q(v) == 0 for v in bit_span(bit_rref(words)[0]))
        assert accepted(k, words) == walk, (k, words)
    # Singular words, orthogonal except for the last pair: still refused.
    assert not accepted(3, [0b000001, 0b000010, 0b010000])


def test_every_member_isotropic_exhaustively():
    for k, w in [(2, 2), (3, 2), (3, 3)]:
        space = QuadSpace(k)
        for s in enumerate_isotropic(k, w).members:
            assert all(space.q(v) == 0 for v in bit_span(s.words))


def test_orbital_symmetry_and_self():
    x22 = enumerate_isotropic(2, 2)
    for s in x22.members:
        assert orbital(s, s) == (2, 2)
    for s, t in itertools.combinations(x22.members, 2):
        assert orbital(s, t) == orbital(t, s)


def test_orbital_grid_quadric_rulings():
    # For k = 2 the six maximal isotropics split into two rulings of three:
    # same ruling meets in 0, opposite ruling meets in dimension 1.
    x22 = enumerate_isotropic(2, 2)
    s0 = x22.members[0]
    meets = sorted(orbital(s0, t)[0] for t in x22.members)
    assert meets == [0, 0, 1, 1, 1, 2]


def test_d_constant_examples():
    assert d_constant(2, 1, 0) == 1
    assert d_constant(2, 2, 1) == 2
    assert d_constant(2, 1, 1) == F(10, 9)
    assert d_constant(3, 3, 1) == F(12, 5)


def test_d_constant_direct_recount():
    # Independent recount with explicit span sets.
    x = enumerate_isotropic(2, 2)
    spans = [set(bit_span(s.words)) for s in x.members]
    tot = sum(len(a & b) for a in spans for b in spans)
    assert d_constant(2, 2, 1) == F(tot, len(spans) ** 2)


def test_bridge_identity_spot():
    lhs = F(2) ** 6 * constant_c(1, 8, 2)
    assert lhs == d_constant(3, 3, 1)


def test_check_iso_design_full_set_and_singletons():
    x = enumerate_isotropic(2, 1)
    for t in (0, 1, 2):
        chk = check_iso_design(x, t)
        assert chk.passes
    single = SigmaSet(2, 1, (x.members[0],))
    chk = check_iso_design(single, 1)
    assert not chk.passes
    assert chk.average == 2  # |S meet S| = 2^w on the diagonal


def test_inequality_on_random_subsets():
    rng = random.Random(2024)
    for k, w in [(2, 1), (2, 2), (3, 2), (3, 3)]:
        x = enumerate_isotropic(k, w)
        for _ in range(30):
            size = rng.randint(1, len(x.members))
            members = tuple(rng.sample(list(x.members), size))
            chk = check_iso_design(SigmaSet(k, w, members), rng.randint(1, 3))
            assert chk.average >= chk.expected


def test_spread_sizes_and_validity():
    assert len(spread(2, 1)) == 9
    assert len(spread(2, 2)) == 3
    assert len(spread(3, 1)) == 35
    sp = spread(4, 2)
    assert len(sp) == 45 == spread_size(4, 2)
    masks = [s.span_mask() for s in sp.members]
    for a, b in itertools.combinations(masks, 2):
        assert a & b == 1
    union = 1
    for m in masks:
        union |= m
    assert union.bit_count() == num_isotropic_points(4) + 1


def test_spread_44():
    sp = spread(4, 4)
    assert len(sp) == 9


def test_spread_33_proven_absent():
    # Exhaustive search: no five pairwise-disjoint maximal isotropics exist
    # for k = 3 (two from the same parity class always share a point).
    with pytest.raises(SpreadNotFound) as exc:
        spread(3, 3)
    assert exc.value.exhausted


def test_spread_non_divisible_size():
    # (2^3 - 1)(2^2 + 1) / (2^2 - 1) = 35/3 is not an integer.
    with pytest.raises(SpreadNotFound):
        spread(3, 2)


def test_generator_families_parity():
    for k in (2, 3):
        fam0, fam1 = generator_families(k)
        assert len(fam0) == len(fam1)
        for fam in (fam0, fam1):
            for s, t in itertools.combinations(fam, 2):
                assert (k - orbital(s, t)[0]) % 2 == 0
        for s in fam0:
            for t in fam1:
                assert (k - orbital(s, t)[0]) % 2 == 1


def test_sigma_set_validation():
    x = enumerate_isotropic(2, 1)
    with pytest.raises(ValueError):
        SigmaSet(2, 1, (x.members[0], x.members[0]))
    with pytest.raises(ValueError):
        SigmaSet(2, 2, (x.members[0],))


def test_sigma_set_json_round_trip():
    sp = spread(2, 2)
    back = SigmaSet.from_json_dict(sp.to_json_dict())
    assert back == sp


def _unraised_certificate_checks():
    """Feeds each explicit certificate check an input it must refuse, with
    at most one attribute stubbed, and returns the messages of the checks
    that did not raise."""
    fam0, fam1 = generator_families(2)
    big = F(10 ** 6)
    cases = [
        ("lower bound", binquad, "d_constant", lambda k, w, t: big,
         lambda: check_iso_design(enumerate_isotropic(2, 1), 1)),
        ("meet only in 0", None, None, None,
         lambda: binquad._validate_spread(SigmaSet(2, 2, (fam0[0], fam1[0])))),
        ("cover every", None, None, None,
         lambda: binquad._validate_spread(SigmaSet(2, 2, (fam0[0],)))),
        ("wrong size", binquad, "_cover_backtrack", lambda *args: [0],
         lambda: spread(2, 2)),
        ("w | k", None, None, None, lambda: binquad._linear_spread(3, 2)),
        ("normalization", ZonalPolynomial, "evaluate", lambda self, ys: 2,
         lambda: jacobi_p(P1, 1, 4)),
        # A lift sending every element to the identity: four nonzero coset
        # columns for the trivial character instead of one.
        ("unexpected dimension", clifford, "stabilizer_lift",
         lambda s: SimpleNamespace(lift=lambda c: PauliOp(s.k, 0, 0)),
         lambda: clifford.eigenspaces(IsoSubspace(2, [0b0001, 0b0010]))),
    ]
    missed = []
    for message, owner, name, stub, call in cases:
        saved = owner and getattr(owner, name)
        if owner:
            setattr(owner, name, stub)
        try:
            call()
            missed.append(message)
        except (AssertionError, ValueError) as exc:
            if message not in str(exc):
                missed.append(message)
        finally:
            if owner:
                setattr(owner, name, saved)
    return missed


def test_certificate_checks_raise():
    assert _unraised_certificate_checks() == []


def test_certificate_checks_raise_under_optimize():
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys\n"
            "if __debug__: sys.exit(4)\n"
            "from test_binquad import _unraised_certificate_checks\n"
            "missed = _unraised_certificate_checks()\n"
            "sys.exit(3 if missed else 0)\n")
    proc = _run_python(code, "-O", path=here)
    assert proc.returncode == 0, proc.stderr
