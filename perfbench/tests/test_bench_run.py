"""Tests of the benchmark command and its traced run.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from run import MIN_PASSES, Sample, child_env, end_to_end, results_digest  # noqa: E402


def _checkout(tmp_path, with_src=True):
    """A copy of the benchmark (and, optionally, a link to the sources) laid
    out as a checkout."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_src:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def _bench(root, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_digest_ignores_config_file_name():
    res = {"t": {"1": {"is_design": True}}, "size": 3}
    assert results_digest({**res, "config_file": "x.json"}) == results_digest(res)
    assert results_digest({**res, "size": 4}) != results_digest(res)


def test_verify_rotated_passes_on_this_commit():
    got = _bench(ROOT, "--workload", "verify-rotated", "--seed", "3",
                 "--seconds", "1", "--trace", "0")
    assert got.returncode == 0, got.stdout + got.stderr
    last = json.loads(got.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    # Two invocations per pass, and `--seconds 1` still makes the minimum.
    assert last["attempted"] == 2 * MIN_PASSES["verify-rotated"]
    assert set(last["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_end_to_end_takes_each_invocations_median():
    def sample(key, wall):
        return Sample(key, wall, cpu_s=2 * wall, peak_rss_mb=wall, error=None)
    # Invocation a is slow in pass 0 and b in pass 1; per-invocation
    # medians drop both slow samples.
    passes = [[sample("a", 9.0), sample("b", 2.0)],
              [sample("a", 1.0), sample("b", 8.0)],
              [sample("a", 1.2), sample("b", 2.2)]]
    m = end_to_end(passes, setup=[0.3, 0.1, 0.2])
    assert m["wall_s"] == pytest.approx(1.2 + 2.2)
    assert m["cpu_s"] == pytest.approx(2 * (1.2 + 2.2))
    assert m["peak_rss_mb"] == pytest.approx(2.2)
    assert m["setup_s"] == pytest.approx(0.2)


def test_corrupted_expected_digest_fails(tmp_path):
    root = _checkout(tmp_path)
    path = root / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["verify-rotated/k4w2-spread"]["digest"] = "0" * 64
    path.write_text(json.dumps(expected))
    got = _bench(root, "--workload", "verify-rotated", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert got.returncode == 1
    last = json.loads(got.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    # Every pass runs the corrupted invocation once.
    passes = MIN_PASSES["verify-rotated"]
    assert last["failed"] == passes and last["attempted"] == 2 * passes
    assert "FAILED verify-rotated/k4w2-spread: results digest" in got.stdout


def test_checkout_without_program_fails_without_result(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    got = _bench(root, "--workload", "e8-planes", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert got.returncode == 2
    assert got.stdout == ""


def test_traced_run_reports_every_layer_metric(tmp_path):
    root = _checkout(tmp_path)
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                 ["per_layer"]]
    args = ("--workload", "verify-rotated", "--seed", "2", "--seconds", "1",
            "--trace", "1")
    got = _bench(root, *args)
    assert got.returncode == 0, got.stdout + got.stderr
    last = json.loads(got.stdout.strip().splitlines()[-1])
    # One untraced pass (the overhead reference), then one traced pass.
    assert last["correct"] is True and last["attempted"] == 4
    assert list(last["metrics"]) == per_layer
    assert last["metrics"]["grassmann.pairs"]["value"] == 420 * 419 // 2 + 180 * 179 // 2
    assert last["metrics"]["grassmann.parse_s"]["value"] > 0
    assert last["metrics"]["lattice.enum_calls"]["value"] == 0
    spans = json.loads((root / "perfbench/out/spans-verify-rotated-seed2-trace1.json")
                       .read_text())
    assert {s["workload"] for s in spans} == {"verify-rotated#0", "verify-rotated#1"}
    record = json.loads((root / "perfbench/out/record-verify-rotated-seed2-trace1.json")
                        .read_text())
    untraced = sum(s["wall_s"] for s in record["samples"][:2])
    m = last["metrics"]
    assert (m["trace.overhead_s"]["value"]
            == pytest.approx(m["trace.wall_s"]["value"] - untraced))


def _trace(tmp_path, *cli_args):
    spans_path = tmp_path / "spans.json"
    got = subprocess.run([sys.executable, str(HERE / "tracing.py"), "--spans",
                          str(spans_path), "--workload", "w#0", "--", *cli_args],
                         capture_output=True, text=True, env=child_env(), timeout=120)
    assert got.returncode == 0, got.stderr
    assert json.loads(got.stdout)["results"]
    return json.loads(spans_path.read_text())["spans"]


def _parent_name(spans, span):
    return spans[span["parent"]]["name"] if span["parent"] is not None else None


def test_traced_lattice_run_wraps_import_sites(tmp_path):
    spans = _trace(tmp_path, "lattice", "D4", "--m", "1", "--sections", "--t", "2")
    names = [s["name"] for s in spans]
    for name in ("lattice.catalog", "lattice.Lattice.minimum",
                 "lattice.short_vectors_with_norms", "lattice.minimal_sections",
                 "lattice.section_design_report", "grassmann.pair_stats"):
        assert name in names
    pair = next(s for s in spans if s["name"] == "grassmann.pair_stats")
    # Called through the `pair_stats` name `lattice` imported from `grassmann`.
    assert _parent_name(spans, pair) == "lattice.section_design_report"
    assert all(s["workload"] == "w#0" for s in spans)

    m = tracing.layer_metrics(spans, traced_wall=5.0, untraced_wall=4.0)
    # The CLI's minimum enumerates; minimal_sections reuses the cached
    # minimum and enumerates the minimal vectors once more.
    assert m["lattice.enum_calls"] == 2
    assert m["lattice.sections"] == 12
    assert m["lattice.vectors"] == 12
    assert m["grassmann.pairs"] == 12 * 11 // 2
    assert m["trace.overhead_s"] == pytest.approx(1.0)
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.WRAPPED)
    assert layers + m["cli.self_s"] == pytest.approx(5.0)


def test_traced_clifford_run_wraps_import_sites(tmp_path):
    spans = _trace(tmp_path, "clifford", "--k", "2", "--w", "1", "--sigma", "all",
                   "--t", "2")
    pair = next(s for s in spans if s["name"] == "grassmann.pair_stats")
    assert _parent_name(spans, pair) == "clifford.verify_tt"
    m = tracing.layer_metrics(spans, traced_wall=5.0, untraced_wall=5.0)
    assert m["binquad.sigma_size"] == 9
    assert m["clifford.points"] == 18


def test_layer_metrics_self_times():
    spans = [
        {"id": 0, "name": "lattice.section_design_report", "layer": "lattice",
         "parent": None, "start": 1.0, "end": 4.0, "counts": {}},
        {"id": 1, "name": "grassmann.pair_stats", "layer": "grassmann",
         "parent": 0, "start": 1.5, "end": 3.5, "counts": {"pairs": 1000}},
    ]
    m = tracing.layer_metrics(spans, traced_wall=4.5, untraced_wall=4.0)
    assert m["lattice.design_report_s"] == pytest.approx(1.0)
    assert m["grassmann.pair_s"] == pytest.approx(2.0)
    assert m["grassmann.ns_per_pair"] == pytest.approx(2e6)
    assert m["cli.self_s"] == pytest.approx(1.5)
    spans[1]["end"] = 4.5          # a child outliving its parent
    with pytest.raises(ValueError):
        tracing.layer_metrics(spans, traced_wall=4.5, untraced_wall=4.0)
