"""Benchmark of the grassdex command line: time to an exact, correct verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`, nothing needs installing).  One run:

1. checks the checkout holds the program;
2. makes the workload's inputs from the seed (only `verify-rotated` has
   seeded inputs; the other workloads run fixed catalog inputs and ignore it);
3. runs the workload's CLI invocations as a closed loop, one process at a
   time, each a fresh `python -m grassdex.cli` with the default worker count
   (GRASSDEX_WORKERS removed from its environment), repeating the whole
   workload until S seconds have passed, at least once, and times
   `SETUP_REPS` fresh interpreters importing `grassdex.cli`, half before the
   loop and half after it (`setup_s`, the median); a workload of short
   invocations makes at least `MIN_PASSES` passes, so that its medians
   rest on more than one sample of each invocation;
4. checks every report: exit code, SHA-256 digest of `results` against
   `expected.json`, and invariants stated independently of the digest;
5. with `--trace 1`, in place of step 3, makes one untraced pass and then
   runs each invocation once through `tracing.py` (layer spans recorded
   in-process), and reports the per-layer metrics; the untraced pass is the
   reference for `trace.overhead_s`.

The last stdout line is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the lines before it print
every metric with its unit, the failed fraction and a provenance record.
A full record (samples, provenance, spans) is written under `perfbench/out/`.
Exit code 0 when every invocation was correct, 1 when any failed, 2 when
the run could not start (for example, no `src/grassdex` in the checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DATA = HERE / "data"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
import rotate  # noqa: E402
import tracing  # noqa: E402

SETUP_REPS = 10
TIMEOUT_S = 170
# Passes a run makes at the least, whatever `--seconds` says.  Each
# `verify-rotated` invocation takes a few seconds, and back-to-back runs of
# one such invocation differ by up to 40% on a shared 2-CPU host; the median
# of three passes is far steadier than one.  The other workloads take about
# 20-50 s per pass and make one.
MIN_PASSES = {"verify-rotated": 3}


@dataclass
class Invocation:
    key: str                         # id in expected.json
    argv: List[str]
    check: Callable[[dict], Optional[str]]   # invariant; None when it holds


@dataclass
class Sample:
    key: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: Optional[str]
    report: Optional[dict] = field(default=None, repr=False)


def _design_at(res: dict, t: int) -> bool:
    return res.get("t", {}).get(str(t), {}).get("is_design") is True


def _check_sections(count: int, t: int):
    def check(res):
        if res.get("section_count") != count:
            return f"section_count {res.get('section_count')} != {count}"
        if not _design_at(res.get("section_design", {}), t):
            return f"sections are not certified a design at t={t}"
        return None
    return check


def _check_clifford(res):
    if res.get("config_size") != 4320:
        return f"config_size {res.get('config_size')} != 4320"
    ts = res.get("t", {})
    if sorted(ts) != ["1", "2", "3"] or not all(v.get("paths_agree") is True
                                                for v in ts.values()):
        return "fast and trace paths disagree"
    return None


def _check_verify(size: int, t: int):
    def check(res):
        if res.get("size") != size:
            return f"size {res.get('size')} != {size}"
        if not _design_at(res, t):
            return f"not certified a design at t={t}"
        return None
    return check


# Base configurations for `verify-rotated` (emitted by
# `grassdex clifford ... --emit-config`): name -> (file, t, size).
ROTATED = {
    "k3w2-all": ("k3w2-all.json", 3, 420),
    "k4w2-spread": ("k4w2-spread.json", 2, 180),
}


def workload(name: str, seed: int) -> List[Invocation]:
    """The invocations of one workload; writes seeded inputs under OUT."""
    if name == "e8-planes":
        return [Invocation(name, ["lattice", "E8", "--m", "2", "--sections",
                                  "--rankin", "--perfection", "--t", "2"],
                           _check_sections(1120, 2))]
    if name == "bw16-lines":
        return [Invocation(name, ["lattice", "BW16", "--m", "1", "--sections",
                                  "--t", "3"], _check_sections(2160, 3))]
    if name == "clifford-k4-full":
        return [Invocation(name, ["clifford", "--k", "4", "--w", "4",
                                  "--sigma", "all", "--t", "3"], _check_clifford)]
    if name == "verify-rotated":
        out = []
        for base, (fname, t, size) in ROTATED.items():
            path = OUT / f"rotated-{base}-seed{seed}.json"
            rotate.write(rotate.rotate_config(rotate.load(DATA / fname), seed), path)
            out.append(Invocation(f"{name}/{base}",
                                  ["verify", str(path.relative_to(ROOT)), "--t", str(t)],
                                  _check_verify(size, t)))
        return out
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("e8-planes", "bw16-lines", "clifford-k4-full", "verify-rotated")


def results_digest(results: dict) -> str:
    """SHA-256 of sorted-key JSON of `results` without `config_file`, the
    one file name the CLI writes there (timing stays outside `results`)."""
    kept = {k: v for k, v in results.items() if k != "config_file"}
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "GRASSDEX_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: List[str], stdout_path: Path) -> tuple:
    """Run one process to exit; (exit code, wall s, cpu s, peak rss MB).

    CPU time and peak RSS come from wait4, so they cover the process and
    every descendant it reaped (the CLI's pool workers).  The process gets
    its own session so a timeout can kill its workers too."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                cwd=ROOT, env=child_env(), start_new_session=True)
        timer = threading.Timer(TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    # wait4 reaped the child behind Popen's back; record it there too.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def judge(inv: Invocation, code: int, stdout_path: Path,
          expected: dict) -> tuple:
    """(error or None, report) for one finished invocation."""
    want = expected[inv.key]
    try:
        report = json.loads(stdout_path.read_text())
    except ValueError:
        return f"exit {code}, stdout is not one JSON report", None
    if code != want["exit"]:
        return f"exit code {code} != {want['exit']}", report
    results = report.get("results")
    if not isinstance(results, dict):
        return "report has no results", report
    got = results_digest(results)
    if got != want["digest"]:
        return f"results digest {got[:12]} != expected {want['digest'][:12]}", report
    return inv.check(results), report


def run_invocation(inv: Invocation, expected: dict,
                   traced_spans: Optional[Path] = None, workload_id: str = "") -> Sample:
    stdout_path = OUT / f"stdout-{inv.key.replace('/', '-')}.json"
    if traced_spans is None:
        argv = [sys.executable, "-m", "grassdex.cli", *inv.argv]
    else:
        argv = [sys.executable, str(HERE / "tracing.py"), "--spans",
                str(traced_spans), "--workload", workload_id, "--", *inv.argv]
    code, wall, cpu, rss = spawn(argv, stdout_path)
    error, report = judge(inv, code, stdout_path, expected)
    return Sample(inv.key, wall, cpu, rss, error, report)


def measure_setup(reps: int) -> List[float]:
    """Spawn-to-exit times of `reps` fresh interpreters importing the CLI."""
    argv = [sys.executable, "-c", "import grassdex.cli"]
    times = []
    for _ in range(reps):
        code, wall, _, _ = spawn(argv, OUT / "stdout-setup.txt")
        if code != 0:
            raise RuntimeError("importing grassdex.cli failed")
        times.append(wall)
    return times


def default_workers() -> Optional[int]:
    """The CLI's effective default worker count, asked of the program."""
    argv = [sys.executable, "-c",
            "from grassdex.grassmann import default_workers; print(default_workers())"]
    path = OUT / "stdout-workers.txt"
    code, _, _, _ = spawn(argv, path)
    return int(path.read_text()) if code == 0 else None


def provenance() -> dict:
    git = ROOT / ".git"
    commit = None
    if git.exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpus = os.cpu_count()
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": cpus,
        "affinity": affinity,
        "loadavg_start": list(os.getloadavg()),
        "default_workers": default_workers(),
        # The CLI's default pool sizes itself from cpu_count; with fewer
        # CPUs in the affinity mask its workers oversubscribe.
        "oversubscribed": cpus is not None and cpus > len(affinity),
    }


def work_sizes(samples: List[Sample]) -> Dict[str, int]:
    """Work counts read from the reports of one pass over the workload."""
    sizes: Dict[str, int] = {}
    for s in samples:
        res = (s.report or {}).get("results", {})
        n = res.get("section_count") or res.get("config_size") or res.get("size")
        if n:
            sizes["points"] = sizes.get("points", 0) + n
            sizes["pairs"] = sizes.get("pairs", 0) + n * (n - 1) // 2
        if "section_count" in res:
            sizes["sections"] = res["section_count"]
        if "sigma_size" in res:
            sizes["sigma_size"] = res["sigma_size"]
    return sizes


def closed_loop(invs: List[Invocation], seconds: float, expected: dict,
                min_passes: int = 1) -> List[List[Sample]]:
    """Passes over the workload, one invocation at a time, until `seconds`
    have elapsed and at least `min_passes` passes are done."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append([run_invocation(inv, expected) for inv in invs])
    return passes


def end_to_end(passes: List[List[Sample]], setup: List[float]) -> Dict[str, float]:
    """Each invocation's median over the passes, summed over the workload
    (`wall_s`, `cpu_s`) or its largest (`peak_rss_mb`).  Taking the median
    per invocation drops a slow sample of one invocation even when another
    invocation was slow in a different pass."""
    def per_invocation(attr: str) -> List[float]:
        return [statistics.median(getattr(s, attr) for s in column)
                for column in zip(*passes)]
    return {
        "wall_s": sum(per_invocation("wall_s")),
        "cpu_s": sum(per_invocation("cpu_s")),
        "peak_rss_mb": max(per_invocation("peak_rss_mb")),
        "setup_s": statistics.median(setup),
    }


def traced_pass(name: str, invs: List[Invocation], seed: int, expected: dict,
                untraced_wall: float) -> tuple:
    """One traced pass; (samples, spans, per-layer metrics)."""
    samples, spans = [], []
    for i, inv in enumerate(invs):
        path = OUT / f"spans-{inv.key.replace('/', '-')}-seed{seed}.json"
        path.unlink(missing_ok=True)
        samples.append(run_invocation(inv, expected, traced_spans=path,
                                      workload_id=f"{name}#{i}"))
        got = json.loads(path.read_text())["spans"] if path.exists() else []
        offset = len(spans)
        for s in got:
            s["id"] += offset
            if s["parent"] is not None:
                s["parent"] += offset
        spans.extend(got)
    wall = sum(s.wall_s for s in samples)
    return samples, spans, tracing.layer_metrics(spans, wall, untraced_wall)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "grassdex" / "cli.py").is_file():
        print(f"error: no grassdex source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # A signal to stop unwinds through spawn(), which kills the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    expected = json.loads(EXPECTED.read_text())
    bench = load_benchmark()
    prov = provenance()

    setup: List[float] = []
    spans: List[dict] = []
    invs = workload(args.workload, args.seed)
    if args.trace:
        # One untraced pass right before the traced one is the reference
        # for trace.overhead_s.
        passes = closed_loop(invs, 0, expected)
        reference = sum(s.wall_s for s in passes[0])
        traced, spans, metrics = traced_pass(args.workload, invs, args.seed,
                                             expected, reference)
        samples = passes[0] + traced
    else:
        # The first import may compile bytecode: a warm-up, not counted.
        # Host speed drifts over tens of seconds, so set-up is sampled at
        # both ends of the loop.
        measure_setup(1)
        setup = measure_setup(SETUP_REPS // 2)
        passes = closed_loop(invs, args.seconds, expected,
                             MIN_PASSES.get(args.workload, 1))
        setup += measure_setup(SETUP_REPS - SETUP_REPS // 2)
        samples = [s for p in passes for s in p]
        metrics = end_to_end(passes, setup)
    failed = [s for s in samples if s.error]

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                      for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov, "passes": len(passes),
        "work": work_sizes(samples[:len(invs)]),
        "setup_samples_s": setup,
        "samples": [{"key": s.key, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
                     "peak_rss_mb": s.peak_rss_mb, "error": s.error}
                    for s in samples],
        "metrics": result_metrics,
        "failed_frac": len(failed) / len(samples),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans))

    for name, m in result_metrics.items():
        print(f"{args.workload:18s} {name:26s} {m['value']:14.6f} {m['unit']}")
    print(f"{args.workload:18s} {'failed_frac':26s} {record['failed_frac']:14.6f} "
          f"({len(failed)}/{len(samples)} invocations)")
    for s in failed:
        print(f"FAILED {s.key}: {s.error}")
    print("work " + json.dumps(record["work"], sort_keys=True))
    print("provenance " + json.dumps(prov, sort_keys=True))
    if prov["oversubscribed"]:
        print("warning: cpu_count exceeds the CPU affinity; the CLI's default "
              "pool oversubscribes")
    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": len(failed), "metrics": result_metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
