"""Guards for what lives outside the package but leans on it: the benchmark
tracer's list of wrapped entry points, the README's library example and its
command lines, and the promise of no runtime dependency."""

import importlib
import importlib.util
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from grassdex.cli import build_parser, main
from grassdex import grassmann
from grassdex.grassmann import Configuration
from grassdex.lattice import catalog, minimal_sections

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _load_run():
    # run.py defines dataclasses, which look their module up in sys.modules,
    # and imports its siblings from perfbench/ by name.
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path[:] = path
    return mod


def test_benchmark_digests_in_process(capsys):
    # The benchmark's recorded `results` digests, reached through cli.main:
    # the three fixed workloads and `verify` on the unrotated inputs of
    # `verify-rotated`, whose digests equal the rotated ones.
    run = _load_run()
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    invocations = [(inv.key, inv.argv) for name in run.WORKLOADS
                   if name != "verify-rotated" for inv in run.workload(name, 1)]
    invocations += [(f"verify-rotated/{base}",
                     ["verify", str(run.DATA / fname), "--t", str(t)])
                    for base, (fname, t, _) in run.ROTATED.items()]
    assert len(invocations) == len(expected) == 5
    for key, argv in invocations:
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        assert code == expected[key]["exit"], key
        assert run.results_digest(report["results"]) == expected[key]["digest"], key


def test_rotated_benchmark_inputs_keep_their_digests(capsys, tmp_path):
    # `verify` on two seeded rotations of both `verify-rotated` bases, as
    # the benchmark runs them; stderr must show that the pair engine ran in
    # the orthogonal frame that returns them to small coordinates.
    run = _load_run()
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    for seed in (1, 2):
        for base, (fname, t, _) in run.ROTATED.items():
            path = tmp_path / f"rotated-{base}-seed{seed}.json"
            run.rotate.write(run.rotate.rotate_config(
                run.rotate.load(run.DATA / fname), seed), path)
            key = f"verify-rotated/{base}"
            code = main(["verify", str(path), "--t", str(t)])
            out, err = capsys.readouterr()
            report = json.loads(out)
            assert "pair engine in an orthogonal frame" in err, (key, seed)
            assert code == expected[key]["exit"], (key, seed)
            assert run.results_digest(report["results"]) == (
                expected[key]["digest"]), (key, seed)


def test_readme_clifford_k4_w2_all_keeps_its_digest(capsys):
    # The README's orbit-path run: one row of 6300 planes at m = 4, certified
    # on three generators.  The digest was recorded from the full engine.
    run = _load_run()
    code = main(["clifford", "--k", "4", "--w", "2", "--sigma", "all",
                 "--t", "3"])
    out, err = capsys.readouterr()
    assert code == 0
    assert "trace path: 1 orbit row(s) under 20 generators (3 examined)" in err
    assert run.results_digest(json.loads(out)["results"]) == (
        "3edce2781461878a603e95d7dc34e0fa2a584a44aba801fe6ee36863922f0e76")


@pytest.mark.parametrize("argv,digest", [
    (["clifford", "--k", "4", "--w", "3", "--sigma", "all", "--t", "3"],
     "be1b3ffb142f2f2f97312fd9afaf7a4d0286868c96395ffe6f6ff0ff06eab58e"),
    (["clifford", "--k", "4", "--w", "2", "--sigma", "spread", "--t", "2"],
     "67a10c5d0a213ebaecefeda7179dd16576a98e96643b736dd761da4e3ce6ec96"),
])
def test_readme_clifford_runs_keep_their_digests(capsys, argv, digest):
    # The README's other k = 4 runs: the orbit path on the 16,200 planes of
    # the 2025 isotropic 3-spaces, and the full pair engine on the m = 4
    # eigenspaces of a spread of isotropic 2-spaces.
    run = _load_run()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert run.results_digest(json.loads(out)["results"]) == digest


@pytest.mark.parametrize("argv,digest", [
    (["lattice", "BW16", "--m", "2", "--sections", "--t", "3"],
     "02a0cd5f2903ae909f125c505efa2daecdbbfe68f74a1d90c1d21f527e346be3"),
    (["lattice", "E8", "--m", "3", "--sections", "--rankin", "--perfection",
      "--t", "2"],
     "94921bfdd6aee42cc3f07709366813c0807a83c338494835f7b338fbbaa7b3ec"),
])
def test_readme_lattice_section_runs_keep_their_digests(capsys, argv, digest):
    # The README's section runs that no benchmark workload covers: the
    # BW16 6-design planes and the E8 3-sections.
    run = _load_run()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert run.results_digest(json.loads(out)["results"]) == digest


@pytest.mark.parametrize("argv,digest", [
    (["lattice", "D4", "--m", "2", "--perfection"],
     "ca6f8fdc2f4db50847a74fc8d0f9499cb7790db787286d01219d3c1e30b6048e"),
    (["lattice", "E7", "--m", "2", "--perfection"],
     "1f0188c1201c8b7f565a6ff14f4664dc471dd0ccbdaf19e0b48a5143d482f47e"),
    (["lattice", "Z8", "--m", "3", "--perfection"],
     "e76e25411186d2a68483a2e34d6aa9c71872f0c238483b419d92df2210d49764"),
    (["lattice", "E7", "--m", "3", "--sections", "--perfection", "--t", "2"],
     "3884d59a473eca3c8d4687756c0553f2885867809e9454eb871429446f2e57ac"),
])
def test_perfection_runs_keep_their_digests(capsys, argv, digest):
    # Perfection and eutaxy outside E8: planes under one orbit row, Z8's
    # 3-sections, which leave the orbit rows for the full engine, and E7's
    # 3-sections in its rank-deficient embedding, where the design verdicts
    # and eutaxy read the same pair distribution.  The first three digests
    # were recorded when eutaxy summed the projectors directly, the E7 one
    # when the design report and eutaxy each ran their own orbit row.
    run = _load_run()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert run.results_digest(json.loads(out)["results"]) == digest


@pytest.mark.parametrize("argv,digest", [
    (["lattice", "E8", "--m", "1", "--sections", "--rankin", "--perfection",
      "--t", "3"],
     "8db95e66add15a250634b4064defb12f28b154a77e7763d447fab6619d007c8e"),
    (["lattice", "Z8", "--m", "1", "--sections", "--rankin", "--perfection",
      "--t", "2"],
     "3a4d7ef8b4e46ba58050b608aef21af0312254d09304c1fd17a659164c9b785f"),
])
def test_line_section_runs_keep_their_digests(capsys, argv, digest):
    # Line records read two ways: E8's one orbit row beside perfection and
    # eutaxy, which read every record, and Z8's singleton orbits, which
    # leave the rows for the full engine.
    run = _load_run()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert run.results_digest(json.loads(out)["results"]) == digest


@pytest.mark.parametrize("argv,digest,path", [
    (["lattice", "Z16", "--m", "2", "--sections", "--t", "2"],
     "d5511e62ea0c0afb6eeefb0fcd2fd61814ebefe3b741b0c46a4167d4cb52a4e1",
     "design path: full pair engine"),
    (["clifford", "--k", "4", "--w", "4", "--sigma", "spread", "--t", "3"],
     "ed90ff4d1c3926d901aaa24697254ec09ede4b72c24538e56d96a11a1bb9f9b2",
     "trace path: full pair engine"),
])
def test_line_and_plane_full_sweeps_keep_their_digests(capsys, argv, digest,
                                                       path):
    # Lines and planes with no usable orbit rows: Z16's 120 planes leave
    # them as dearer than the full sweep, and the certificate refuses the
    # 144 lines of a k = 4 spread.  The digests were recorded when lines and
    # planes took the packed projector/Pluecker engine.
    run = _load_run()
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert path in err
    assert run.results_digest(json.loads(out)["results"]) == digest


def test_verify_on_given_plane_rows_keeps_its_digest(capsys, tmp_path):
    # Twelve random planes in R^6 with entries in [-2, 2]: each point keeps
    # its given rows, which are not its canonical ones, and the frame would
    # widen them, so the pair engine reads the points themselves.  The
    # digest was recorded when the m <= 2 engine read the canonical rows.
    rng = random.Random(1)
    points = [[[rng.randint(-2, 2) for _ in range(6)] for _ in range(2)]
              for _ in range(12)]
    path = tmp_path / "planes.json"
    path.write_text(json.dumps({"n": 6, "m": 2, "points": points}),
                    encoding="utf-8")
    config = Configuration.from_json_dict({"n": 6, "m": 2, "points": points})
    assert all(p._given is not None for p in config)
    run = _load_run()
    assert main(["verify", str(path), "--t", "2"]) == 1
    out, err = capsys.readouterr()
    assert "frame declined" in err
    assert run.results_digest(json.loads(out)["results"]) == (
        "7d325d56f7632d64e02af909a36be07c0553afac4f32e8cc3c458bfd09886224")


def test_verify_on_wide_solid_rows_keeps_its_digest(capsys, monkeypatch,
                                                   tmp_path):
    # Ten random 3-spaces in R^7 with entries in [-99, 99]: the frame would
    # widen them, so the m >= 3 engine reads the given rows, ten weight
    # classes (w, l) wide, in slots past 64 bits.  The digest was recorded
    # when that engine keyed every pair on its own.
    rng = random.Random(1)
    points = [[[rng.randint(-99, 99) for _ in range(7)] for _ in range(3)]
              for _ in range(10)]
    path = tmp_path / "solids.json"
    path.write_text(json.dumps({"n": 7, "m": 3, "points": points}),
                    encoding="utf-8")
    config = Configuration.from_json_dict({"n": 7, "m": 3, "points": points})
    orth = [grassmann._orthogonal((p._given,) * 2) for p in config]
    assert len({(tuple(w), l) for _, _, w, l in orth}) == 10
    widths = []

    class Recording(grassmann._PackedColumns):
        def __init__(self, xs, ys, classes, group=1):
            super().__init__(xs, ys, classes, group)
            widths.append(8 * self.nbytes)

    monkeypatch.setattr(grassmann, "_PackedColumns", Recording)
    run = _load_run()
    assert main(["verify", str(path), "--t", "2"]) == 1
    out, err = capsys.readouterr()
    assert "frame declined" in err
    assert widths and min(widths) > 64
    assert run.results_digest(json.loads(out)["results"]) == (
        "1b35447cb28ecbd6873f1e4af575df3c04b89010737139684ccc470aa215735b")


def test_traced_entry_points_resolve():
    # perfbench/tracing.py wraps these names by attribute lookup; a rename in
    # the package would only show in the slow benchmark suite.
    tracing = _load_tracing()
    for layer, names in tracing.WRAPPED.items():
        mod = importlib.import_module(f"grassdex.{layer}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                assert meth in vars(getattr(mod, cls_name)), f"{layer}.{name}"
            else:
                assert callable(getattr(mod, name, None)), f"{layer}.{name}"
    # The tracer's section counter takes len() of the search result.
    count = tracing.COUNTERS["lattice.minimal_sections"]
    assert count((), {}, minimal_sections(catalog("D4"), 2)) == {"sections": 16}


def test_readme_python_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_readme_command_lines_parse():
    # Every documented command parses; nothing runs, so a renamed or dropped
    # flag fails here instead of in a reader's shell.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in lines if words and words[0] == "grassdex"]
    assert len(commands) >= 8
    for argv in commands:
        build_parser().parse_args(argv)


def test_cli_imports_without_numpy():
    # numpy is a test extra only; a fresh interpreter must not load it.
    code = ("import sys, grassdex, grassdex.cli; "
            "sys.exit('numpy' in sys.modules)")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, text=True)
    assert proc.returncode == 0, proc.stderr or "numpy was imported"
