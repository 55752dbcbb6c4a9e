"""Signed-permutation operators indexed by F_2^k x F_2^k, joint-eigenspace
configurations attached to isotropic subspaces, the fast sigma evaluation,
orbits under the generators of the orthogonal normalizer group and its
rational index-2 subgroup (built in `generators` and re-exported here), and
the code-basis fixed-space machinery.

Operators act on R^n, n = 2^k, with the orthonormal basis (e_u) indexed by
u in F_2^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Dict, List, Optional, Tuple

from .binquad import IsoSubspace, SigmaSet, intersection_moment
from .exactalg import (RatMatrix, Rational, bit_rref, bit_span, bit_subspaces,
                       rat_str, solve_linear)
from .generators import (CliffordGenerator, GeneratorSet, _signed_map,
                         clifford_generators)
from .grassmann import (Configuration, IntAction, Subspace, certified_orbits,
                        check_design_range, design_report, pair_stats)


@dataclass(frozen=True)
class PauliOp:
    """sign * X(a)Y(b) acting on e_u as sign * (-1)^(b.u) e_(u+a).

    Composition: X(a)Y(b) X(a')Y(b') = (-1)^(b.a') X(a+a')Y(b+b'), and
    (X(a)Y(b))^2 = (-1)^(a.b) I.
    """

    k: int
    a: int
    b: int
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        if self.k != other.k:
            raise ValueError("mismatched k")
        phase = -1 if (self.b & other.a).bit_count() & 1 else 1
        return PauliOp(self.k, self.a ^ other.a, self.b ^ other.b,
                       self.sign * other.sign * phase)

    def apply_index(self, u: int) -> Tuple[int, int]:
        """(image index, scalar) of e_u."""
        s = -self.sign if (self.b & u).bit_count() & 1 else self.sign
        return u ^ self.a, s

    def matrix(self) -> RatMatrix:
        return _signed_map(self.k, self.apply_index)

    @classmethod
    def from_vector(cls, k: int, v: int, sign: int = 1) -> "PauliOp":
        mask = (1 << k) - 1
        return cls(k, v & mask, v >> k, sign)


class StabilizerLift:
    """Lift of a totally isotropic subspace into the operator group.

    Each canonical basis row lifts with sign +1; arbitrary elements lift as
    ordered products of the basis lifts, in increasing row order.  Isotropy
    makes the lifts commute and square to +I, so the section is a group
    homomorphism.
    """

    def __init__(self, s: IsoSubspace):
        self.k = s.k
        self.basis_lifts = [PauliOp.from_vector(s.k, v) for v in s.words]
        for i, g in enumerate(self.basis_lifts):
            if (g.a & g.b).bit_count() & 1:
                raise ValueError("basis vector is not isotropic")
            for h in self.basis_lifts[i + 1:]:
                comm = ((g.b & h.a).bit_count() + (g.a & h.b).bit_count()) & 1
                if comm:
                    raise ValueError("lifts must commute (B must vanish on S)")
        # Element c + 2^i (c < 2^i) is element c times basis lift i.
        self.elements = [PauliOp(s.k, 0, 0, 1)]
        for g in self.basis_lifts:
            self.elements += [e * g for e in self.elements]

    def lift(self, coeffs: int) -> PauliOp:
        """Group element for the span member with the given coefficient bits."""
        return self.elements[coeffs]


# Room for every member of one k <= 4 Sigma set (X_3 at k = 4 has 2025).
@lru_cache(maxsize=2048)
def stabilizer_lift(s: IsoSubspace) -> StabilizerLift:
    return StabilizerLift(s)


@lru_cache(maxsize=None)
def _characters(w: int) -> Tuple[Tuple[int, ...], ...]:
    """Row chi holds chi(c) = (-1)^parity(chi & c) for c < 2^w."""
    return tuple(tuple(-1 if (chi & c).bit_count() & 1 else 1
                       for c in range(1 << w)) for chi in range(1 << w))


def eigenspaces(s: IsoSubspace) -> Configuration:
    """The joint eigenspace decomposition induced by an isotropic subspace.

    For S of dimension w = k - s there are 2^w characters; each projector
    P = 2^-w sum_c chi(c) g_c has rank 2^s and the images are pairwise
    orthogonal and complete.  Point order follows the character index.

    No projector is formed.  Column u of 2^w P is the integer vector
    sum_c chi(c) g_c e_u, supported on u + A, A the X-parts of the lifts.
    Since P g_c = chi(c) P, the columns at u and u + a_c are equal up to
    sign, and columns at representatives of distinct cosets of A have
    disjoint supports.  So the nonzero columns at coset representatives
    are a basis of the image, found without elimination; their count, the
    dimension, is checked against 2^s, also under `python -O`.

    Each lift is applied once per representative u, giving a table of
    (index, sign) pairs that every character reads.  A column is formed
    only when its u-entry, 2^w e_u^T P e_u = 2^w |P e_u|^2, is nonzero, so
    it vanishes exactly when the whole column does.  That entry is the sum
    of chi(z) s_z over the lifts g_z e_u = s_z e_u with X-part 0, a
    character of the group they form: it is 0, or their number when
    chi(z) s_z = 1 for each of them.  Then g_c and g_c g_z give equal
    terms, and one lift per X-part gives the column up to that factor,
    with entries +-1.
    """
    lift = stabilizer_lift(s)
    k = s.k
    w = s.w
    n = 1 << k
    dim_expected = 1 << (k - w)
    ops = [lift.lift(c) for c in range(1 << w)]
    diagonal = [c for c, g in enumerate(ops) if not g.a]
    xparts = {g.a: c for c, g in enumerate(ops)}
    chars = _characters(w)
    dchars = [[signs[c] for c in diagonal] for signs in chars]
    cols: List[List[List[int]]] = [[] for _ in chars]
    covered = set()
    for u in range(n):
        if u in covered:
            continue
        table = [g.apply_index(u) for g in ops]
        covered.update(v for v, _ in table)
        dsigns = [table[c][1] for c in diagonal]
        for chi, signs in enumerate(chars):
            if sum(map(mul, dchars[chi], dsigns)):
                col = [0] * n
                for c in xparts.values():
                    v, sgn = table[c]
                    col[v] = signs[c] * sgn
                cols[chi].append(col)
    if any(len(c) != dim_expected for c in cols):
        raise AssertionError("eigenspace has unexpected dimension")
    return Configuration(n, [Subspace(n, c) for c in cols])


@dataclass
class BuildResult:
    """The eigenspace configuration of a Sigma set, with labels."""

    sigma: SigmaSet
    config: Configuration
    labels: List[Tuple[int, int]]   # (member index, character index)
    collisions: int


def build_design(sigma: SigmaSet) -> BuildResult:
    """Multiset union of the eigenspace families over all members."""
    points: List[Subspace] = []
    labels: List[Tuple[int, int]] = []
    for idx, s in enumerate(sigma.members):
        for chi, sub in enumerate(eigenspaces(s).points):
            points.append(sub)
            labels.append((idx, chi))
    config = Configuration(1 << sigma.k, points)
    collisions = len(points) - len(set(points))
    return BuildResult(sigma, config, labels, collisions)


def _agreement_data(s: IsoSubspace, t: IsoSubspace):
    """Per-pair data for the fast sigma path.

    Returns (u, constraints) where u = k - dim(S meet T) and constraints are
    triples (cs, ct, beta): characters chi, chi' agree on the intersection
    iff for every triple, parity(chi & cs) + parity(chi' & ct) == beta.
    """
    meet = s.span_mask() & t.span_mask()
    inter = [v for v in range(1, meet.bit_length()) if (meet >> v) & 1]
    basis, _ = bit_rref(inter)
    u = s.k - len(basis)
    ls, lt = stabilizer_lift(s), stabilizer_lift(t)
    constraints = []
    for v in basis:
        cs = s.coords(v)
        ct = t.coords(v)
        sign_s = ls.lift(cs).sign
        sign_t = lt.lift(ct).sign
        beta = 0 if sign_s == sign_t else 1
        constraints.append((cs, ct, beta))
    return u, constraints


def sigma_pair(s: IsoSubspace, chi: int, t: IsoSubspace, chi2: int) -> Rational:
    """sigma between eigenspace points without touching their bases.

    Equals 2^(2s - u) when the signed characters agree on the intersection
    (u = k - dim(S meet T)) and 0 otherwise; the diagonal p = p' comes out
    as 2^s automatically.
    """
    if s.k != t.k:
        raise ValueError("mismatched k")
    u, constraints = _agreement_data(s, t)
    for cs, ct, beta in constraints:
        par = ((chi & cs).bit_count() + (chi2 & ct).bit_count()) & 1
        if par != beta:
            return Fraction(0)
    sp = s.k - s.w
    return Fraction(2) ** (2 * sp - u)


@dataclass(frozen=True)
class TTStat:
    average_fast: Rational
    average_trace: Rational
    reduction_rhs: Rational
    expected_c: Rational
    is_design: bool
    paths_agree: bool


@dataclass
class TTReport:
    k: int
    w: int
    s_param: int
    sigma_size: int
    config_size: int
    collisions: int
    stats: Dict[int, TTStat]
    # Generators handed to the trace path, the certified orbits it summed
    # over (None for the full pair engine) and those examined; not in JSON.
    generators: int = 0
    orbits: Optional[int] = None
    examined: int = 0

    def to_json_dict(self):
        return {
            "k": self.k, "w": self.w, "s": self.s_param,
            "sigma_size": self.sigma_size, "config_size": self.config_size,
            "collisions": self.collisions,
            "t": {str(t): {"average_fast": rat_str(st.average_fast),
                           "average_trace": rat_str(st.average_trace),
                           "reduction_rhs": rat_str(st.reduction_rhs),
                           "c": rat_str(st.expected_c),
                           "is_design": st.is_design,
                           "paths_agree": st.paths_agree}
                  for t, st in self.stats.items()},
        }


def verify_tt(sigma: SigmaSet, tmax: int = 3,
              build: Optional[BuildResult] = None) -> TTReport:
    """Verify design strength of the eigenspace configuration two ways.

    For each t <= tmax the sigma^t pair average is computed by the fast
    character path, which is the reduction identity
    2^((2s-k)t) * average(|S meet S'|^(t-1)), and by the trace path, which is
    the `verify_design` core (one `pair_stats` call that `design_report`
    reads, zonal re-checks included) on the explicit subspaces; both are
    compared exactly and judged against the invariant constant.

    The trace path certifies the orbits of `clifford_generators(k)`,
    `h_first` = S (x) I included, by `certified_orbits`, `cycle`,
    `transvect_01` and `h_first` first (for 2 <= k <= 4 they leave one orbit
    on every "all" set, so the certificate stops there).  When the
    configuration is invariant under the real Clifford group, the pair
    distribution is summed over its orbits, one row per orbit; the
    invariance is certified exactly (g g^T = c I, exact image keys and
    multiplicities), and a configuration that fails any check, such as a
    spread, takes the full pair engine.  A tmax outside 1..MAX_T raises
    ValueError before anything is built (`check_design_range`, for the
    2^s-dimensional eigenspaces of R^(2^k)).
    """
    k, w = sigma.k, sigma.w
    sp = k - w
    check_design_range(2 ** sp, 2 ** k, tmax)
    if build is None:
        build = build_design(sigma)
    # Fast path: characters of members S, S' agree on S meet S' for exactly
    # 4^w / |S meet S'| character pairs (one solution per coset of the
    # dim(S meet S') independent parity constraints), each with sigma
    # 2^(2s-k) |S meet S'|.  Summed over the intersection histogram, the
    # sigma^t average is the reduction identity itself.
    config = build.config
    first = ("cycle", "transvect_01", "h_first")
    generators = [g.matrix for g in sorted(clifford_generators(k),
                                           key=lambda g: g.name not in first)]
    orbits, examined = certified_orbits(config.points, generators)
    design = design_report(pair_stats(config.points, orbits=orbits),
                           config.n, tmax)
    report: Dict[int, TTStat] = {}
    for t, st in design.t_stats.items():
        fast = Fraction(2) ** ((2 * sp - k) * t) * intersection_moment(sigma, t - 1)
        report[t] = TTStat(fast, st.average, fast, st.expected,
                           is_design=(fast == st.expected),
                           paths_agree=(fast == st.average))
    return TTReport(k=k, w=w, s_param=sp, sigma_size=len(sigma.members),
                    config_size=len(build.config), collisions=build.collisions,
                    stats=report, generators=len(generators),
                    orbits=design.orbits, examined=examined)


# -- orbits under the operator normalizer group -----------------------------


class OrbitCapExceeded(Exception):
    pass


def orbit(gens: GeneratorSet, seed: Subspace, cap: int = 10_000) -> Configuration:
    """Closure of the seed under the generators flagged `in_gk`,
    deduplicated by canonical form.  Each generator acts through its
    `IntAction` on the canonical integer rows, so it must satisfy
    g g^T = c I; a nonzero multiple of an orthogonal map (such as
    `h_first`, if flagged) acts as that map.  Raises OrbitCapExceeded
    beyond `cap` points."""
    actions = [IntAction(g.matrix) for g in gens if g.in_gk]
    seen = {seed.rows}
    frontier = [seed.rows]
    while frontier:
        nxt = []
        for rows in frontier:
            for act in actions:
                img = act.key(rows)
                if img not in seen:
                    seen.add(img)
                    if len(seen) > cap:
                        raise OrbitCapExceeded(f"orbit exceeds cap {cap}")
                    nxt.append(img)
        frontier = nxt
    points = sorted((Subspace(seed.n, rows) for rows in seen),
                    key=lambda s: s.basis.to_json())
    return Configuration(seed.n, points)


# -- code-basis coefficients and fixed spaces -------------------------------


def h2_action_coeffs(k: int, r: int) -> Tuple[Rational, Rational, Rational]:
    """Closed-form (a1, a2, a4) for the averaged H2 action, parameters
    (k, r); a1 = 1 exactly when r = 0 or r = k."""
    F = Fraction
    if k < 2 or r < 0:
        raise ValueError("need k >= 2 (two tensor factors) and r >= 0")
    p2r = F(2) ** (2 * r)
    n2 = p2r - 1
    n2m = p2r / 4 - 1
    denom = (F(2) ** k - 1) * (F(2) ** (k - 1) - 1)
    a1 = (1 + 2 * n2 * n2m / denom - 3 * n2 / (F(2) ** k - 1)) / p2r
    a2 = 3 / (p2r * (F(2) ** k - 1)) * (1 - n2m / (F(2) ** (k - 1) - 1))
    a4 = 3 / (p2r * denom)
    return a1, a2, a4


def h2_action_coeffs_from_system(k: int, r: int) -> Tuple[Rational, Rational, Rational]:
    """Solve the three scalar-product equations for (a1, a2, a4) exactly.

    Must agree with the closed forms identically; a singular system raises
    ValueError from `solve_linear` (not expected for valid inputs).
    """
    F = Fraction
    p2r = F(2) ** (2 * r)
    n2 = p2r - 1
    n2m = p2r / 4 - 1
    n4 = n2 * n2m / 3
    twok = F(2) ** k
    rows = [
        [F(1), n2, n4],
        [F(1), twok + n2 - 1, n2m * twok + n4 - n2m],
        [F(1), 3 * twok + n2 - 3,
         F(4) ** k + (3 * n2m - 3) * twok + n4 - 3 * n2m + 2],
    ]
    rhs = [1 / p2r, 4 / p2r, 16 / p2r]
    a1, a2, a4 = solve_linear(RatMatrix(rows), rhs)
    return a1, a2, a4


def tensor_coeffs(k: int, d: int, dim_c: int) -> Tuple[Rational, Rational, Rational]:
    """(a1, a2, a4) for a code of length d and dimension dim_c; r = d/2 - dim_c."""
    _validate_code_params(k, d, dim_c)
    return h2_action_coeffs(k, d // 2 - dim_c)


def tensor_coeffs_from_system(k: int, d: int, dim_c: int) -> Tuple[Rational, Rational, Rational]:
    _validate_code_params(k, d, dim_c)
    return h2_action_coeffs_from_system(k, d // 2 - dim_c)


def _validate_code_params(k: int, d: int, dim_c: int):
    if d % 2 != 0 or d < 2 or d > 8:
        raise ValueError("d must be even with 2 <= d <= 8")
    if not 1 <= dim_c <= k + 1:
        raise ValueError("need 1 <= dim_c <= k+1")
    if dim_c > d // 2:
        raise ValueError("self-orthogonal codes need dim <= d/2")


@dataclass(frozen=True)
class CodeInfo:
    """A binary code containing the all-ones word inside its dual."""

    length: int
    dim: int
    generators: Tuple[int, ...]
    words: frozenset

    @property
    def is_self_dual(self) -> bool:
        return 2 * self.dim == self.length


def _enumerate_codes(d: int, max_dim: int) -> List[CodeInfo]:
    """All codes 1 <= C <= C-perp of length d with dim <= max_dim, ordered
    by increasing dimension, then by canonical generators."""
    ones = (1 << d) - 1

    def self_orthogonal(rows, v):
        return not (v.bit_count() & 1
                    or any((v & r).bit_count() & 1 for r in rows))

    out: List[CodeInfo] = []
    for dim in range(1, max_dim + 1):
        for gens in bit_subspaces(d, dim, self_orthogonal):
            words = frozenset(bit_span(gens))
            if ones in words:
                out.append(CodeInfo(d, dim, gens, words))
    return out


def h2_code_matrix(k: int, d: int):
    """The averaged-H2 action on the code basis and its exact fixed space.

    Returns (codes, matrix, fixed) with codes ordered by increasing
    dimension, matrix upper triangular with a1 diagonal entries, and fixed a
    RatMatrix whose rows are coefficient vectors of the fixed space.
    """
    if d % 2 != 0 or d < 2 or d > 8:
        raise ValueError("d must be even with 2 <= d <= 8")
    if k > 3:
        raise ValueError("desk scale is k <= 3")
    if d // 2 > k + 1:
        raise ValueError(f"unsupported: index-4 extensions leave the basis "
                         f"(need d/2 <= k+1, got d={d}, k={k})")
    codes = _enumerate_codes(d, min(k + 1, d // 2))
    ncodes = len(codes)
    coeffs = {dim: h2_action_coeffs(k, d // 2 - dim)
              for dim in sorted({c.dim for c in codes})}
    mat = [[Fraction(0)] * ncodes for _ in range(ncodes)]
    for i, ci in enumerate(codes):
        a1, a2, a4 = coeffs[ci.dim]
        mat[i][i] = a1
        for j in range(i + 1, ncodes):
            cj = codes[j]
            if cj.dim == ci.dim + 1 and ci.words <= cj.words:
                mat[i][j] = a2
            elif cj.dim == ci.dim + 2 and ci.words <= cj.words:
                mat[i][j] = a4
    matrix = RatMatrix(mat)
    fixed = _triangular_fixed_space(mat)
    return codes, matrix, fixed


def _triangular_fixed_space(mat) -> RatMatrix:
    """Kernel of (M^T - I) for upper-triangular M, by one forward
    substitution, as the rows of its RREF basis.

    v M = v reads v_j (1 - M[j][j]) = sum_{i<j} v_i M[i][j].  In increasing
    index order, a coordinate with a non-unit diagonal is determined by the
    earlier ones, and one with a unit diagonal is a new free parameter.  On
    every input `h2_code_matrix` supports, the right side vanishes at each
    unit diagonal, so parameter p's row has its 1 at its own index and 0 at
    every earlier index and every other parameter's index: the rows already
    are the RREF basis.  A unit diagonal whose right side does not vanish
    would constrain the parameters; it raises AssertionError (also under
    python -O).
    """
    n = len(mat)
    exprs: List[Dict[int, Fraction]] = []
    nparams = 0
    for j in range(n):
        s: Dict[int, Fraction] = {}
        for i in range(j):
            mij = mat[i][j]
            if mij:
                for p, c in exprs[i].items():
                    s[p] = s.get(p, Fraction(0)) + mij * c
        s = {p: c for p, c in s.items() if c}
        if mat[j][j] != 1:
            f = 1 / (1 - mat[j][j])
            exprs.append({p: c * f for p, c in s.items()})
        elif s:
            raise AssertionError("a unit-diagonal code is constrained")
        else:
            exprs.append({nparams: Fraction(1)})
            nparams += 1
    return RatMatrix([[e.get(p, Fraction(0)) for e in exprs]
                      for p in range(nparams)])
