"""Tests of the seeded rotation generator behind `verify-rotated`.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Sequence

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import rotate  # noqa: E402
from run import DATA, EXPECTED, ROTATED, child_env, results_digest  # noqa: E402


def _rref(rows: List[List[Fraction]]) -> List[List[Fraction]]:
    rows = [list(r) for r in rows]
    lead = 0
    ncols = len(rows[0])
    for r in range(len(rows)):
        while lead < ncols and all(rows[i][lead] == 0 for i in range(r, len(rows))):
            lead += 1
        if lead == ncols:
            return rows[:r]
        piv = next(i for i in range(r, len(rows)) if rows[i][lead] != 0)
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][lead]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][lead] != 0:
                f = rows[i][lead]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        lead += 1
    return rows


def _det(mat: Sequence[Sequence[int]]) -> int:
    if len(mat) == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)) if mat[0][j])


def max_adjugate_bits(data: dict) -> int:
    """Bit length of the largest Gram-adjugate entry over all points, with
    each point held as its canonical (RREF, primitive integer) basis, the
    form the pair engine multiplies."""
    best = 0
    for point in data["points"]:
        rows = [rotate.primitive(r)
                for r in _rref([[Fraction(x) for x in row] for row in point])]
        m = len(rows)
        gram = [[sum(a * b for a, b in zip(rows[i], rows[j])) for j in range(m)]
                for i in range(m)]
        if m == 1:
            continue
        for i in range(m):
            for j in range(m):
                minor = [[gram[r][c] for c in range(m) if c != i]
                         for r in range(m) if r != j]
                best = max(best, abs(_det(minor)).bit_length())
    return best


def _base(name):
    return rotate.load(DATA / ROTATED[name][0])


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rotation_is_exactly_orthogonal(n, seed):
    m, d = rotate.rotation(n, seed)
    assert rotate.is_orthogonal(m, d)
    q = [[Fraction(x, d) for x in row] for row in m]
    for i in range(n):
        for j in range(n):
            dot = sum(q[i][k] * q[j][k] for k in range(n))
            assert dot == (1 if i == j else 0)
    assert any(x.denominator > 1 for row in q for x in row)


def test_same_seed_same_output():
    base = _base("k3w2-all")
    assert rotate.rotate_config(base, 5) == rotate.rotate_config(base, 5)
    assert rotate.rotate_config(base, 5) != rotate.rotate_config(base, 6)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_m4_adjugates_exceed_int64(seed):
    base = _base("k4w2-spread")
    assert max_adjugate_bits(base) < 63
    assert max_adjugate_bits(rotate.rotate_config(base, seed)) > 63


def _verify_digest(path, t):
    got = subprocess.run([sys.executable, "-m", "grassdex.cli", "verify", str(path),
                          "--t", str(t)], capture_output=True, text=True,
                         env=child_env(), timeout=120)
    assert got.returncode == 0, got.stderr
    return results_digest(json.loads(got.stdout)["results"])


@pytest.mark.parametrize("name", sorted(ROTATED))
def test_verdict_digest_equals_unrotated(name, tmp_path):
    fname, t, _ = ROTATED[name]
    rotated = tmp_path / "rotated.json"
    rotate.write(rotate.rotate_config(_base(name), 11), rotated)
    unrotated = _verify_digest(DATA / fname, t)
    assert _verify_digest(rotated, t) == unrotated
    expected = json.loads(EXPECTED.read_text())
    assert expected[f"verify-rotated/{name}"]["digest"] == unrotated
