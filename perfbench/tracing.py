"""Span tracing of the grassdex layers, installed from outside the program.

Run as a script, this module is the traced twin of `python -m grassdex.cli`:

    python perfbench/tracing.py --spans OUT.json --workload ID -- <cli args>

It imports the CLI in a fresh interpreter, wraps the public entry points of
each layer (`lattice`, `grassmann`, `clifford`, `binquad`) listed in
`WRAPPED`, rebinds every module attribute that held an original (so
`lattice.pair_stats` and `clifford.pair_stats` are wrapped as well as
`grassmann.pair_stats`), runs `grassdex.cli.main` in-process and writes the
recorded spans to OUT.json before exiting with the CLI's exit code.

The analysis half (`layer_metrics`) turns spans into self times and the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional

# layer -> names of traced callables ("Class.method" for methods).
WRAPPED = {
    "lattice": ["Lattice.minimum", "short_vectors", "short_vectors_with_norms",
                "minimal_sections", "rankin", "check_perfection",
                "check_eutaxy", "section_design_report", "barnes_wall",
                "catalog"],
    "grassmann": ["pair_stats", "verify_design", "Configuration.from_json_dict"],
    "clifford": ["build_design", "verify_tt"],
    "binquad": ["enumerate_isotropic", "spread", "check_iso_design",
                "generator_families"],
}


def _pairs(args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    n = len(points)
    return {"pairs": n * (n - 1) // 2}


# Work counters taken from a call's arguments and result, keyed by
# "layer.name".
COUNTERS: Dict[str, Callable] = {
    "lattice.short_vectors": lambda a, k, r: {"vectors": len(r)},
    "lattice.short_vectors_with_norms": lambda a, k, r: {"vectors": len(r)},
    "lattice.minimal_sections": lambda a, k, r: {"sections": len(r)},
    "grassmann.pair_stats": _pairs,
    "clifford.build_design": lambda a, k, r: {"points": len(r.config)},
    "binquad.enumerate_isotropic": lambda a, k, r: {"sigma_size": len(r)},
    "binquad.spread": lambda a, k, r: {"sigma_size": len(r)},
}


class Tracer:
    """Keeps spans in memory; `dump` writes them out once at the end."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        key = f"{layer}.{name}"
        count = COUNTERS.get(key)
        is_minimum = key == "lattice.Lattice.minimum"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": key, "layer": layer,
                    "parent": self._stack[-1] if self._stack else None,
                    "workload": self.workload, "counts": {}}
            if is_minimum:
                # Only the first call on an instance enumerates; later calls
                # return the minimum the instance cached.
                span["counts"]["enumerations"] = int(
                    getattr(args[0], "_min", None) is None)
            elif key.startswith("lattice.short_vectors"):
                span["counts"]["enumerations"] = 1
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["counts"].update(count(args, kwargs, result))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload, "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every entry in WRAPPED and rebind each place it was imported."""
    layers = {layer: importlib.import_module(f"grassdex.{layer}") for layer in WRAPPED}
    modules = [m for name, m in sys.modules.items()
               if name == "grassdex" or name.startswith("grassdex.")]
    for layer, names in WRAPPED.items():
        mod = layers[layer]
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(
                        tracer.wrap(layer, name, raw.__func__)))
                else:
                    setattr(cls, meth, tracer.wrap(layer, name, raw))
                continue
            original = getattr(mod, name)
            wrapper = tracer.wrap(layer, name, original)
            for other in modules:
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapper)


# -- analysis ----------------------------------------------------------------

def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span duration minus the time its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: List[dict], traced_wall: float,
                  untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics from the spans of one workload (all invocations).

    `traced_wall` is the spawn-to-exit time of the traced processes; the
    time outside every layer span is reported as `cli.self_s`.  Raises
    ValueError when the spans do not nest, so that layer self times plus
    `cli.self_s` would not add up to `traced_wall`."""
    own = self_times(spans)
    spans_by_id = {s["id"]: s for s in spans}
    by_name: Dict[str, float] = {}
    by_layer = {layer: 0.0 for layer in WRAPPED}
    counts: Dict[str, Dict[str, List[int]]] = {}
    for s in spans:
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + own[s["id"]]
        by_layer[s["layer"]] += own[s["id"]]
        for c, v in s["counts"].items():
            counts.setdefault(s["name"], {}).setdefault(c, []).append(v)

    def t(*names: str) -> float:
        return sum(by_name.get(n, 0.0) for n in names)

    def total(counter: str, *names: str) -> int:
        return sum(sum(counts.get(n, {}).get(counter, [])) for n in names)

    # Self times add up to the root spans' time only when every span lies
    # inside its parent and siblings do not overlap.
    for s in spans:
        parent = spans_by_id.get(s["parent"])
        if parent is not None and not (parent["start"] <= s["start"] <= s["end"]
                                       <= parent["end"]):
            raise ValueError(f"span {s['name']} is not inside its parent")
    if min(own.values(), default=0.0) < 0:
        raise ValueError("child spans overlap")
    layer_sum = sum(by_layer.values())
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    cli_self = traced_wall - layer_sum
    if abs(layer_sum - roots) > 1e-6 or cli_self < 0:
        raise ValueError("layer self times and cli.self_s do not add up to "
                         "the traced wall time")

    pairs = total("pairs", "grassmann.pair_stats")
    pair_s = t("grassmann.pair_stats")
    sigma_sizes = [v for n in ("binquad.enumerate_isotropic", "binquad.spread")
                   for v in counts.get(n, {}).get("sigma_size", [])]
    enum_names = ("lattice.Lattice.minimum", "lattice.short_vectors",
                  "lattice.short_vectors_with_norms")
    return {
        "lattice.enum_s": t(*enum_names),
        "lattice.enum_calls": total("enumerations", *enum_names),
        "lattice.vectors": total("vectors", *enum_names),
        "lattice.sections_s": t("lattice.minimal_sections"),
        "lattice.sections": total("sections", "lattice.minimal_sections"),
        "lattice.perfection_s": t("lattice.check_perfection"),
        "lattice.eutaxy_s": t("lattice.check_eutaxy"),
        "lattice.build_s": t("lattice.catalog", "lattice.barnes_wall"),
        "lattice.design_report_s": t("lattice.section_design_report"),
        "lattice.self_s": by_layer["lattice"],
        "grassmann.pair_s": pair_s,
        "grassmann.pairs": pairs,
        "grassmann.ns_per_pair": pair_s * 1e9 / pairs if pairs else 0.0,
        "grassmann.parse_s": t("grassmann.Configuration.from_json_dict"),
        "grassmann.verify_s": t("grassmann.verify_design"),
        "grassmann.self_s": by_layer["grassmann"],
        "clifford.build_s": t("clifford.build_design"),
        "clifford.points": total("points", "clifford.build_design"),
        "clifford.fast_path_s": t("clifford.verify_tt"),
        "clifford.self_s": by_layer["clifford"],
        "binquad.enumerate_s": t("binquad.enumerate_isotropic"),
        "binquad.sigma_size": max(sigma_sizes, default=0),
        "binquad.self_s": by_layer["binquad"],
        "cli.self_s": cli_self,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--spans", required=True, help="file the spans are written to")
    ap.add_argument("--workload", required=True, help="id stored with each span")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    import grassdex.cli

    tracer = Tracer(args.workload)
    install(tracer)
    try:
        code = grassdex.cli.main(cli_args)
    finally:
        tracer.dump(args.spans)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
