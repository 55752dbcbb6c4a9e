"""Command-line front end: build configurations, run verifications, emit
machine-readable certificates.

stdout carries exactly one JSON document per invocation, built in `main`:
the report (v, command, inputs, results, caveats, timing_s), or on exit 2
(v, command, error).  Progress notes go to stderr.  All numeric verdict
fields are exact rational strings.  Exit codes: 0 certified / success,
1 refuted, 2 input or usage error; a malformed or out-of-range input is
always 2, never 1 or a traceback.

Only `grassmann`, `exactalg` and `zonal` load with this module; each
command imports the other layers it uses (`lattice`, `clifford`,
`binquad`) when it runs, so a `verify` run never loads them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

from . import grassmann
from .exactalg import RatMatrix, rat, rat_str
from .grassmann import Configuration
from .zonal import MAX_T, _check_mn, constant_c

if TYPE_CHECKING:
    from . import clifford, lattice

SCHEMA_VERSION = 1
T_CHOICES = range(1, MAX_T + 1)


def _note(msg: str):
    print(msg, file=sys.stderr, flush=True)


def _path_note(label: str, report) -> None:
    """Which path a design verdict took: one row per certified orbit, or
    the full pair engine; `report` has `generators`, `orbits`, `examined`."""
    if report.orbits is not None:
        _note(f"{label}: {report.orbits} orbit row(s) under "
              f"{report.generators} generators ({report.examined} examined)")
    elif report.examined:
        _note(f"{label}: full pair engine (orbit rows under "
              f"{report.generators} generators would cost more)")
    elif report.generators:
        _note(f"{label}: full pair engine ({report.generators} generators "
              f"do not certify invariance)")
    else:
        _note(f"{label}: full pair engine (no generators)")


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


class InputError(Exception):
    pass


def _read(path: str, what: str, build):
    """`build` applied to the decoded JSON file at `path`; a file that cannot
    be opened, decoded or built from raises InputError naming `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return build(json.load(fh))
    except (OSError, ValueError, LookupError, TypeError, RecursionError) as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc


def cmd_verify(args, res: dict, caveats: list) -> int:
    config = _read(args.config, "configuration", Configuration.from_json_dict)
    _note(f"verifying {len(config)} points in G({config.m},{config.n}) "
          f"up to t={args.t}")
    report = grassmann.verify_design(config, tmax=args.t)
    if report.frame:
        rank, classes = report.frame
        _note(f"pair engine in an orthogonal frame: rank {rank}, "
              f"{classes} square class(es)")
    else:
        _note("frame declined: coordinates would be wider")
    res.update(report.to_json_dict())
    return 0 if report.is_design(args.t) else 1


def _lattice_from_json(data) -> lattice.Lattice:
    from . import lattice
    if "basis" in data:
        return lattice.Lattice(RatMatrix.from_json(data["basis"]),
                               name=data.get("name"))
    if "name" in data:
        return lattice.catalog(data["name"])
    raise ValueError("lattice file needs a 'basis' or 'name' field")


def _load_lattice(target: str) -> lattice.Lattice:
    from . import lattice
    if os.path.exists(target):
        return _read(target, "lattice", _lattice_from_json)
    return lattice.catalog(target)


def cmd_lattice(args, res: dict, caveats: list) -> int:
    from . import lattice
    lat = _load_lattice(args.target)
    res.update(name=lat.name, rank=lat.rank, ambient=lat.n,
               det=rat_str(lat.det()), min=rat_str(lat.minimum()))
    if not (args.sections or args.rankin or args.perfection):
        return 0
    _note(f"searching minimal {args.m}-sections of {lat.name or 'lattice'}")
    bound = rat(args.bound) if args.bound else None
    secs = lattice.minimal_sections(lat, args.m, search_bound=bound)
    _note(f"section search: {secs.line_orbits} orbit(s) on {secs.lines} "
          f"candidate lines under {secs.generators} generators "
          f"({secs.examined} examined), {secs.tuples} of "
          f"{comb(secs.lines, secs.m)} {secs.m}-tuples considered")
    res["delta_m"] = rat_str(secs.delta)
    res["section_count"] = len(secs)
    res["search_bound"] = rat_str(secs.search_bound)
    res["complete"] = secs.complete
    if not secs.complete:
        caveats.append("section search is exhaustive only relative to the "
                       "given vector-norm bound")
    if args.sections:
        _note(f"design verdicts on {len(secs)} sections")
        dr = lattice.section_design_report(lat, secs, tmax=args.t)
        _path_note("design path", dr)
        res["section_design"] = dr.to_json_dict()
    if args.rankin:
        res["rankin"] = lattice.rankin(lat, args.m, secs).to_json_dict()
    if args.perfection:
        rank_span, perfect = lattice.check_perfection(lat, args.m, secs)
        eu = lattice.check_eutaxy(lat, args.m, secs)
        res["perfection"] = {"span_rank": rank_span,
                             "required": lat.rank * (lat.rank + 1) // 2,
                             "is_perfect": perfect}
        res["eutaxy"] = {"is_eutactic": eu.is_eutactic, "uniform": eu.uniform,
                         "weights": [rat_str(w) for w in eu.weights]
                         if eu.weights and len(eu.weights) <= 64 else None}
    return 0


def _unwritable(path: str, exc: OSError) -> InputError:
    return InputError(f"cannot write configuration to {path!r}: "
                      f"{exc.strerror or exc}")


def cmd_clifford(args, res: dict, caveats: list) -> int:
    if args.k > 4:
        raise InputError("desk scale is k <= 4")
    created = False
    if args.emit_config:
        # Fail before the build, not after it.  Append mode leaves an
        # existing file as it is until the end; a file it creates is removed
        # again if the command fails.
        created = not os.path.exists(args.emit_config)
        try:
            open(args.emit_config, "a", encoding="utf-8").close()
        except OSError as exc:
            raise _unwritable(args.emit_config, exc) from exc
    try:
        return _clifford_run(args, res, caveats)
    except BaseException:
        if created:
            os.unlink(args.emit_config)
        raise


def _clifford_run(args, res: dict, caveats: list) -> int:
    from . import binquad, clifford
    if args.sigma == "all":
        sigma = binquad.enumerate_isotropic(args.k, args.w)
    else:
        try:
            sigma = binquad.spread(args.k, args.w)
        except binquad.SpreadNotFound as exc:
            raise InputError(f"spread unavailable for (k={args.k}, w={args.w}): "
                             f"{exc}") from exc
    _note(f"building eigenspace configuration for |Sigma| = {len(sigma)}")
    build = clifford.build_design(sigma)
    report = clifford.verify_tt(sigma, tmax=args.t, build=build)
    _path_note("trace path", report)
    res.update(report.to_json_dict())
    iso = {}
    for t in range(0, args.t):
        chk = binquad.check_iso_design(sigma, t)
        iso[str(t)] = {"average": rat_str(chk.average),
                       "d": rat_str(chk.expected), "passes": chk.passes}
    res["iso_design"] = iso
    if args.w == args.k and args.sigma == "all":
        res["family_split"] = _family_split_report(build)
        caveats.append(
            "family_split is experimental: the correspondence between the "
            "two orbit families and particular lattice line sets is "
            "reported, not asserted")
    if args.emit_config:
        try:
            with open(args.emit_config, "w", encoding="utf-8") as fh:
                json.dump(build.config.to_json_dict(), fh)
        except OSError as exc:
            raise _unwritable(args.emit_config, exc) from exc
        res["config_file"] = args.emit_config
    return 0


def _family_split_report(build: clifford.BuildResult) -> dict:
    """Minimal-line matches of the eigenspaces of each generator family,
    read off the full build (its members are exactly the two families)."""
    from . import binquad, lattice
    k = build.sigma.k
    fam0, fam1 = binquad.generator_families(k)
    out = {"sizes": [len(fam0), len(fam1)]}
    if 2 <= k <= 4:
        min_lines = lattice.minimal_line_keys(lattice.barnes_wall(k))
        family = {s: i for i, fam in enumerate((fam0, fam1)) for s in fam}
        counts = [0, 0]
        for (idx, _), p in zip(build.labels, build.config.points):
            if p.rows in min_lines:
                counts[family[build.sigma.members[idx]]] += 1
        out["minimal_line_matches"] = counts
        out["lattice_minimal_lines"] = len(min_lines)
    return out


def cmd_constants(args, res: dict, caveats: list) -> int:
    if args.m is not None and args.n is not None:
        _check_mn(args.m, args.n)
        if args.t not in T_CHOICES:
            raise InputError(f"t must be between 1 and {MAX_T}")
        res["c"] = rat_str(constant_c(args.m, args.n, args.t))
    elif args.k is not None and args.w is not None:
        from . import binquad
        d = binquad.d_constant(args.k, args.w, args.t)
        res["d"] = rat_str(d)
        s = args.k - args.w
        tt = args.t + 1
        if tt <= MAX_T:  # 2^(s+1) <= 2^k holds: d_constant took w >= 1
            c = constant_c(2 ** s, 2 ** args.k, tt)
            lhs = Fraction(2) ** (-(2 * s - args.k) * tt) * c
            res["bridge"] = {"c": rat_str(c), "scaled_c": rat_str(lhs),
                             "equals_d": lhs == d}
    else:
        raise InputError("need either --m/--n or --k/--w")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="grassdex",
        description="Exact certification of Grassmannian designs from "
                    "lattices, eigenspace constructions and isotropic spreads")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="certify a configuration file")
    p.add_argument("config", help="Configuration JSON file")
    p.add_argument("--t", type=int, default=1, choices=T_CHOICES,
                   help="design strength to certify (2t-design)")
    p.set_defaults(func=cmd_verify, inputs=("config", "t"))

    p = sub.add_parser("lattice", help="lattice invariants and sections")
    p.add_argument("target", help="catalog name (Zn, D4, E6, E7, E8, BW16) "
                                  "or a lattice JSON file")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--sections", action="store_true",
                   help="report sections and their design verdicts")
    p.add_argument("--rankin", action="store_true")
    p.add_argument("--perfection", action="store_true",
                   help="perfection and eutaxy checks")
    p.add_argument("--t", type=int, default=2, choices=T_CHOICES)
    p.add_argument("--bound", default=None,
                   help="vector-norm bound for the section search")
    p.set_defaults(func=cmd_lattice, inputs=("target", "m", "sections",
                                             "rankin", "perfection", "t"))

    p = sub.add_parser("clifford", help="eigenspace designs from isotropic sets")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--sigma", choices=("all", "spread"), default="all")
    p.add_argument("--t", type=int, default=2, choices=T_CHOICES)
    p.add_argument("--emit-config", default=None,
                   help="write the configuration JSON to this file")
    p.set_defaults(func=cmd_clifford, inputs=("k", "w", "sigma", "t"))

    p = sub.add_parser("constants", help="exact design constants")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--w", type=int, default=None)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_constants, inputs=("m", "n", "k", "w", "t"))
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rep = {"v": SCHEMA_VERSION, "command": args.cmd,
           "inputs": {key: getattr(args, key) for key in args.inputs},
           "results": {}, "caveats": [], "timing_s": None}
    t0 = time.perf_counter()
    try:
        code = args.func(args, rep["results"], rep["caveats"])
    except (InputError, ValueError) as exc:
        _note(f"error: {exc}")
        _emit({"v": SCHEMA_VERSION, "command": args.cmd, "error": str(exc)})
        return 2
    rep["timing_s"] = round(time.perf_counter() - t0, 3)
    _emit(rep)
    return code


if __name__ == "__main__":
    sys.exit(main())
