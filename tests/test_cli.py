import hashlib
import json
import random
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grassdex.cli import main
from grassdex.exactalg import RatMatrix
from grassdex.grassmann import Configuration
from grassdex.lattice import ENUM_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_constants_c(capsys):
    code, rep = run_cli(capsys, "constants", "--m", "1", "--n", "4", "--t", "1")
    assert code == 0
    assert rep["v"] == 1
    assert rep["results"]["c"] == "1/4"


def test_constants_d_with_bridge(capsys):
    code, rep = run_cli(capsys, "constants", "--k", "2", "--w", "2", "--t", "1")
    assert code == 0
    assert rep["results"]["d"] == "2"
    assert rep["results"]["bridge"]["equals_d"] is True
    code, rep = run_cli(capsys, "constants", "--k", "2", "--w", "1", "--t", "1")
    assert rep["results"]["d"] == "10/9"
    assert rep["results"]["bridge"]["scaled_c"] == "10/9"


def test_constants_k_w_answers_every_k_of_the_quadratic_space(capsys):
    t0 = time.perf_counter()
    code, rep = run_cli(capsys, "constants", "--k", "5", "--w", "3", "--t", "2")
    assert time.perf_counter() - t0 < 1
    assert code == 0 and rep["results"]["d"] == "10208/7905"
    assert rep["results"]["bridge"]["equals_d"] is True
    code, rep = run_cli(capsys, "constants", "--k", "8", "--w", "8", "--t", "3")
    assert code == 0 and rep["results"] == {"d": "786432/6149"}
    # Past QuadSpace's k <= 8 the error comes before any power of 2^k.
    t0 = time.perf_counter()
    code, rep = run_cli(capsys, "constants", "--k", "1000000000",
                        "--w", "1000000000", "--t", "1")
    assert time.perf_counter() - t0 < 1
    assert code == 2 and rep["error"] == "k out of supported range"


def test_constants_k_w_grid_keeps_its_output(capsys):
    # Exit codes and stdout (timing masked) of valid and invalid calls,
    # recorded when d_constant still enumerated X_w and summed every pair.
    cases = [(k, w, t) for k in range(-1, 5) for w in range(-1, 6)
             for t in (-1, 0, 1, 2, 3, 6)]
    cases += [(5, 1, t) for t in range(-1, 7)]
    digest = hashlib.sha256()
    for k, w, t in cases:
        code = main(["constants", "--k", str(k), "--w", str(w), "--t", str(t)])
        out = re.sub(r'"timing_s": [0-9.e-]+', '"timing_s": null',
                     capsys.readouterr().out)
        digest.update(f"{k} {w} {t} {code}\n{out}".encode())
    assert digest.hexdigest() == (
        "c38ffe80a7f663438d2844fa37a6ae66fd2edd69f6dd8b7aa902b3e79fa016d8")


def test_constants_requires_arguments(capsys):
    code, rep = run_cli(capsys, "constants", "--t", "1")
    assert code == 2 and "error" in rep


@pytest.mark.parametrize("argv, error", [
    (["--m", "1", "--n", "4", "--t", "4"], "t must be between 1 and 3"),
    (["--m", "1", "--n", "4", "--t", "0"], "t must be between 1 and 3"),
    (["--m", "3", "--n", "4", "--t", "4"], "need 1 <= m <= n/2, got m=3, n=4"),
], ids=["t4", "t0", "mn-before-t"])
def test_constants_refuses_t_past_the_verdict_range(capsys, argv, error):
    code, rep = run_cli(capsys, "constants", *argv)
    assert code == 2
    assert rep == {"v": 1, "command": "constants", "error": error}


def test_clifford_emit_and_verify_round_trip(tmp_path, capsys):
    cfg = tmp_path / "planes.json"
    code, rep = run_cli(capsys, "clifford", "--k", "2", "--w", "1",
                        "--sigma", "all", "--t", "3",
                        "--emit-config", str(cfg))
    assert code == 0
    res = rep["results"]
    assert res["config_size"] == 18
    assert all(res["t"][str(t)]["is_design"] for t in (1, 2, 3))
    assert all(res["t"][str(t)]["paths_agree"] for t in (1, 2, 3))
    assert res["iso_design"]["1"]["passes"] is True

    code2, rep2 = run_cli(capsys, "verify", str(cfg), "--t", "3")
    assert code2 == 0
    assert rep2["results"]["t"]["3"]["is_design"] is True
    # Round trip verdict equality: the emitted averages match.
    assert rep2["results"]["t"]["2"]["average"] == res["t"]["2"]["average_fast"]


def test_clifford_notes_the_trace_path(capsys):
    # stderr names the orbit rows or the full engine; results are unchanged.
    code = main(["clifford", "--k", "2", "--w", "1", "--sigma", "all", "--t", "2"])
    err = capsys.readouterr().err
    assert code == 0
    assert "trace path: 1 orbit row(s) under 11 generators" in err
    code = main(["clifford", "--k", "2", "--w", "2", "--sigma", "spread",
                 "--t", "2"])
    err = capsys.readouterr().err
    assert code == 0
    assert "trace path: full pair engine (11 generators" in err


def test_lattice_notes_the_design_path(tmp_path, capsys):
    # The note goes to stderr only; a lattice without roots or attached
    # generators keeps the full engine.
    code = main(["lattice", "D4", "--m", "2", "--sections"])
    err = capsys.readouterr().err
    assert code == 0
    # The four simple reflections and their product; the search examined
    # the product and three reflections, which leave one orbit of lines.
    assert "design path: 1 orbit row(s) under 5 generators (4 examined)" in err
    rootless = tmp_path / "rootless.json"
    rootless.write_text(json.dumps({"basis": [["1", "1", "1", "0", "0"],
                                              ["1", "0", "0", "1", "1"]]}))
    code = main(["lattice", str(rootless), "--m", "1", "--sections"])
    err = capsys.readouterr().err
    assert code == 0
    assert "design path: full pair engine (no generators)" in err
    # Z8's eight sign changes and their product, -I, fix every line: 8
    # orbit rows cost more.
    code = main(["lattice", "Z8", "--m", "1", "--sections"])
    err = capsys.readouterr().err
    assert code == 0
    assert ("design path: full pair engine (orbit rows under 9 generators "
            "would cost more)") in err


def test_lattice_d4_lines_keep_the_traced_calls(monkeypatch, capsys):
    # The benchmark's tracer counts the first `Lattice.minimum` and every
    # `short_vectors*` call as an enumeration, 2 on D4 lines, with 12
    # vectors, and finds `pair_stats` inside `section_design_report`, under
    # either name it rebinds: `grassmann.pair_stats` and the one `lattice`
    # imported.  So the design path enumerates nothing more: `_enumerate`
    # runs once, for the minimum, and `minimal_sections` reads its 12
    # vectors back.
    from grassdex import grassmann, lattice
    events, sizes = [], []

    def spy(mod, name):
        real = getattr(mod, name)

        def wrapper(*args, **kwargs):
            events.append(f"> {name}")
            out = real(*args, **kwargs)
            events.append(f"< {name}")
            if name.startswith("short_vectors"):
                sizes.append(len(out))
            return out

        monkeypatch.setattr(mod, name, wrapper)

    for name in ("_enumerate", "short_vectors", "short_vectors_with_norms",
                 "section_design_report"):
        spy(lattice, name)
    spy(grassmann, "pair_stats")
    spy(lattice, "pair_stats")
    code, rep = run_cli(capsys, "lattice", "D4", "--m", "1", "--sections")
    assert code == 0 and rep["results"]["section_count"] == 12
    assert events.count("> _enumerate") == 1 and sizes == [12]
    design = events[events.index("> section_design_report"):
                    events.index("< section_design_report")]
    assert "> pair_stats" in design and events.count("> pair_stats") == 1


def _count_pair_stats(monkeypatch):
    """The number of points of every `pair_stats` call made through either
    name the benchmark's tracer rebinds, `grassmann.pair_stats` and the one
    `lattice` imported, in call order."""
    from grassdex import grassmann, lattice
    calls = []
    for mod in (grassmann, lattice):
        def counted(points, *args, _real=mod.pair_stats, **kwargs):
            calls.append(len(points))
            return _real(points, *args, **kwargs)

        monkeypatch.setattr(mod, "pair_stats", counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["lattice", "E8", "--m", "2", "--sections", "--rankin", "--perfection",
     "--t", "2"],
    ["lattice", "E7", "--m", "3", "--sections", "--perfection", "--t", "2"],
])
def test_section_runs_compute_one_pair_distribution(monkeypatch, capsys, argv):
    # The design verdicts and eutaxy read one `PairStats` of all sections.
    calls = _count_pair_stats(monkeypatch)
    code, rep = run_cli(capsys, *argv)
    assert code == 0 and rep["results"]["eutaxy"]["uniform"]
    assert calls == [rep["results"]["section_count"]]


@pytest.mark.parametrize("name,m", [("D4", 2), ("E6", 3)])
def test_eutaxy_after_the_design_report_runs_no_pair_engine(monkeypatch,
                                                            name, m):
    from grassdex.lattice import (catalog, check_eutaxy, minimal_sections,
                                  section_design_report)
    lat = catalog(name)
    secs = minimal_sections(lat, m)
    calls = _count_pair_stats(monkeypatch)
    report = section_design_report(lat, secs, tmax=2)
    eutaxy = check_eutaxy(lat, m, secs)
    assert calls == [len(secs)]
    # The uniform witness is the t = 1 verdict of the same distribution.
    assert eutaxy.uniform == report.is_design(1)


def test_clifford_family_split_k3(capsys):
    code, rep = run_cli(capsys, "clifford", "--k", "3", "--w", "3",
                        "--sigma", "all", "--t", "1")
    assert code == 0
    assert rep["results"]["family_split"] == {
        "sizes": [15, 15], "minimal_line_matches": [120, 0],
        "lattice_minimal_lines": 120}


def test_verify_refuted_exit_code(tmp_path, capsys):
    axes = {"n": 4, "m": 1,
            "points": [[["1" if j == i else "0" for j in range(4)]]
                       for i in range(4)]}
    cfg = tmp_path / "axes.json"
    cfg.write_text(json.dumps(axes), encoding="utf-8")
    code, rep = run_cli(capsys, "verify", str(cfg), "--t", "2")
    assert code == 1
    assert rep["results"]["t"]["2"]["is_design"] is False


@pytest.mark.parametrize("source", ["lines", "planes"])
def test_verify_results_are_rotation_invariant(tmp_path, capsys, source):
    # A rational rotation changes every coordinate and Gram determinant but
    # no principal angle, so `verify` must report byte-identical results.
    from test_grassmann import d4_line_vectors, householder_rotation, lines_config
    if source == "lines":
        cfg = lines_config(4, d4_line_vectors())
    else:
        emitted = tmp_path / "emitted.json"
        main(["clifford", "--k", "2", "--w", "1", "--sigma", "all", "--t", "1",
              "--emit-config", str(emitted)])
        capsys.readouterr()
        cfg = Configuration.from_json_dict(json.loads(emitted.read_text()))
    rot = RatMatrix(householder_rotation(random.Random(5), cfg.n, factors=3))
    rotated = Configuration(cfg.n, [p.transform(rot) for p in cfg.points])
    assert rotated.points != cfg.points
    reports = []
    for name, c in (("plain", cfg), ("rotated", rotated)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(c.to_json_dict()), encoding="utf-8")
        reports.append(run_cli(capsys, "verify", str(path), "--t", "3"))
    (code, plain), (code_rot, turned) = reports
    assert code == code_rot
    assert json.dumps(plain["results"], sort_keys=True) == \
        json.dumps(turned["results"], sort_keys=True)


def test_verify_notes_the_frame(tmp_path, capsys):
    # stderr says whether the pair engine ran in an orthogonal frame of the
    # configuration's span; the note stays out of the report.
    from test_grassmann import d4_line_vectors, householder_rotation, lines_config
    cfg = lines_config(4, d4_line_vectors())
    rot = RatMatrix(householder_rotation(random.Random(5), 4, factors=3))
    rotated = Configuration(4, [p.transform(rot) for p in cfg.points])
    path = tmp_path / "lines.json"
    for c, note in ((cfg, "frame declined: coordinates would be wider"),
                    (rotated, "pair engine in an orthogonal frame: rank 4, "
                              "2 square class(es)")):
        path.write_text(json.dumps(c.to_json_dict()), encoding="utf-8")
        assert main(["verify", str(path), "--t", "2"]) == 0
        out, err = capsys.readouterr()
        assert note in err.splitlines()
        assert note not in out


def test_workers_option_is_a_usage_error(capsys):
    # Every engine runs in one process; there is no worker option.
    for argv in (["verify", "cfg.json"], ["lattice", "D4"],
                 ["clifford", "--k", "2", "--w", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", "1"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


def test_verify_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{truncated", encoding="utf-8")
    code, rep = run_cli(capsys, "verify", str(bad), "--t", "1")
    assert code == 2 and "error" in rep


def test_lattice_command_d4(capsys):
    code, rep = run_cli(capsys, "lattice", "D4", "--m", "2", "--sections",
                        "--rankin", "--perfection")
    assert code == 0
    res = rep["results"]
    assert res["delta_m"] == "3"
    assert res["section_count"] == 16
    assert res["rankin"]["gamma"] == "3/2"
    assert res["perfection"]["is_perfect"] is True
    assert res["eutaxy"]["is_eutactic"] is True
    assert res["section_design"]["t"]["2"]["is_design"] is True


def test_lattice_from_basis_file(tmp_path, capsys):
    f = tmp_path / "lat.json"
    f.write_text(json.dumps({"basis": [["2", "0"], ["1", "1"]]}),
                 encoding="utf-8")
    code, rep = run_cli(capsys, "lattice", str(f))
    assert code == 0
    assert rep["results"]["det"] == "4"


def test_lattice_rankin_past_the_float_range(tmp_path, capsys):
    # det L = 10^720 has no float; gamma_decimal falls back to logarithms.
    big = str(10 ** 90)
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"basis": [[big if i == j else "0" for j in range(4)]
                                       for i in range(4)]}), encoding="utf-8")
    code, rep = run_cli(capsys, "lattice", str(f), "--m", "1", "--rankin")
    assert code == 0
    assert rep["results"]["rankin"]["gamma"] == "1"
    assert rep["results"]["rankin"]["gamma_decimal"] == pytest.approx(1)


def test_lattice_section_search_too_short(tmp_path, capsys):
    from test_lattice import SPARSE_SHELL_BASIS
    f = tmp_path / "lat.json"
    f.write_text(json.dumps({"basis": SPARSE_SHELL_BASIS}), encoding="utf-8")
    code, rep = run_cli(capsys, "lattice", str(f), "--m", "2", "--sections")
    assert code == 2
    assert "2-section" in rep["error"] and "search_bound" in rep["error"]
    code, rep = run_cli(capsys, "lattice", str(f), "--m", "2", "--sections",
                        "--bound", "123/200")
    assert code == 0 and rep["results"]["section_count"] == 1


def test_lattice_huge_bound_ends(capsys):
    # A bound past every useful norm ends at the Hadamard cap on the search,
    # with the default run's results apart from the bound it reports.
    argv = ["lattice", "D4", "--m", "2", "--sections"]
    start = time.perf_counter()
    code, rep = run_cli(capsys, *argv, "--bound", "1e400")
    assert code == 0 and time.perf_counter() - start < 5
    code, base = run_cli(capsys, *argv)
    assert rep["results"].pop("search_bound") == "1" + "0" * 400
    assert base["results"].pop("search_bound") == "4"
    assert rep["results"] == base["results"] and rep["results"]["complete"]


@pytest.mark.parametrize("argv, message", [
    (["lattice", "D4", "--m", "2", "--sections", "--bound", "1/0"], "denominator"),
    (["verify", "{cfg}"], "denominator"),
    (["lattice", "{lat}"], "denominator"),
    (["lattice", "D4", "--m", "1", "--sections", "--bound", "-3"], "positive"),
    (["lattice", "D4", "--m", "2", "--sections", "--bound", "0"], "positive"),
    (["lattice", "D4", "--m", "2", "--sections", "--bound", "1e1000000"],
     "exponent"),
    (["verify", "{huge}"], "exponent"),
], ids=["bound-1/0", "verify-1/0", "basis-1/0", "m1-bound-3", "bound-0",
        "bound-1e1000000", "verify-1e1000000"])
def test_bad_rationals_are_input_errors(tmp_path, capsys, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "m": 1, "points": [[["1", "1/0"]]]}),
                   encoding="utf-8")
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps({"basis": [["2", "0"], ["1/0", "1"]]}),
                   encoding="utf-8")
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 2, "m": 1, "points": [[["1e1000000", "1"]]]}),
                    encoding="utf-8")
    argv = [a.format(cfg=cfg, lat=lat, huge=huge) for a in argv]
    start = time.perf_counter()
    code, rep = run_cli(capsys, *argv)
    assert code == 2 and rep["command"] == argv[0]
    assert message in rep["error"]
    assert time.perf_counter() - start < 1    # 10**1000000 is never built


TWO_LINES = '"points": [[["1", "0"]], [["0", "1"]]]'


@pytest.mark.parametrize("command, text", [
    ("verify", '{"n": 1e999, "m": 1, ' + TWO_LINES + '}'),
    ("verify", '{"n": 2.9, "m": 1, ' + TWO_LINES + '}'),
    ("verify", '{"n": 2, "m": true, ' + TWO_LINES + '}'),
    ("verify", '{"n": 2, "m": 1, "points": [[[true, false]], [[false, true]]]}'),
    ("verify", '{"n": 2, "m": 1, "points": [["10"], ["01"]]}'),
    ("lattice", '{"name": 5}'),
    ("lattice", '{"basis": ["12", "34"]}'),
], ids=["n-overflow", "n-float", "m-bool", "entries-bool", "rows-as-strings",
        "name-int", "basis-rows-as-strings"])
def test_malformed_input_files_are_input_errors(tmp_path, capsys, command, text):
    # Each of these once read as a number it is not or raised past the
    # error boundary; a bad file is exit 2, never the refuted code 1.
    f = tmp_path / "input.json"
    f.write_text(text, encoding="utf-8")
    code, rep = run_cli(capsys, command, str(f))
    assert code == 2 and rep["command"] == command
    assert rep["error"].startswith("cannot read")


def test_lattice_non_eutactic_verdict(tmp_path, capsys):
    # Z + 2Z: one minimal line, whose projector cannot reach the identity.
    f = tmp_path / "lat.json"
    f.write_text(json.dumps({"basis": [["1", "0"], ["0", "2"]]}), encoding="utf-8")
    code, rep = run_cli(capsys, "lattice", str(f), "--m", "1", "--perfection")
    assert code == 0
    res = rep["results"]
    assert res["perfection"]["is_perfect"] is False
    assert res["eutaxy"] == {"is_eutactic": False, "uniform": False,
                             "weights": None}


def test_lattice_incomplete_search_carries_the_caveat(capsys):
    # Bound 1 is below the cap gamma_2^2 * delta_2 / min = 4/3 for Z4 planes.
    code, rep = run_cli(capsys, "lattice", "Z4", "--m", "2", "--sections",
                        "--bound", "1")
    assert code == 0
    res = rep["results"]
    assert res["complete"] is False and res["section_count"] == 6
    assert any("relative to the given vector-norm bound" in c
               for c in rep["caveats"])


@pytest.mark.parametrize("argv, message", [
    (["clifford", "--k", "5", "--w", "1"], "desk scale is k <= 4"),
    (["constants", "--k", "2", "--w", "1", "--t", "-1"], "t must be >= 0"),
    (["constants", "--k", "9", "--w", "1", "--t", "1"], "k out of supported range"),
    (["constants", "--k", "1000000000", "--w", "1", "--t", "1"],
     "k out of supported range"),
    (["clifford", "--k", "0", "--w", "1", "--sigma", "spread"], "need 1 <= w <= k"),
    (["clifford", "--k", "-1", "--w", "1", "--sigma", "spread"], "need 1 <= w <= k"),
    (["clifford", "--k", "2", "--w", "0", "--sigma", "spread"], "need 1 <= w <= k"),
], ids=["clifford-k5", "constants-t-negative", "constants-k9",
        "constants-k-huge", "spread-k0", "spread-k-negative",
        "spread-w0"])
def test_out_of_range_arguments_are_input_errors(capsys, argv, message):
    code, rep = run_cli(capsys, *argv)
    assert code == 2 and rep["command"] == argv[0]
    assert message in rep["error"]


def test_unwritable_emit_config_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, rep = run_cli(capsys, "clifford", "--k", "2", "--w", "1", "--t", "1",
                        "--emit-config", str(target))
    assert code == 2 and set(rep) == {"v", "command", "error"}
    assert str(target) in rep["error"] and not target.parent.exists()


def test_unwritable_emit_config_fails_before_the_build(tmp_path, capsys,
                                                       monkeypatch):
    from grassdex import clifford
    built = []
    monkeypatch.setattr(clifford, "build_design", built.append)
    target = tmp_path / "missing" / "x.json"
    code, rep = run_cli(capsys, "clifford", "--k", "2", "--w", "1", "--t", "1",
                        "--emit-config", str(target))
    assert code == 2 and built == []
    assert rep["error"].startswith(f"cannot write configuration to {str(target)!r}")


def test_failed_clifford_run_leaves_no_emit_config(tmp_path, capsys):
    # The early check creates the file; a run that fails after it removes
    # the file again, and an existing file is left as it was.
    target = tmp_path / "out.json"
    args = ["clifford", "--k", "2", "--w", "0", "--sigma", "spread",
            "--emit-config", str(target)]
    code, rep = run_cli(capsys, *args)
    assert code == 2 and "error" in rep and not target.exists()
    target.write_text("kept")
    code, rep = run_cli(capsys, *args)
    assert code == 2 and target.read_text() == "kept"


@pytest.mark.parametrize("target", ["skew6", "skew7", "Z20"])
def test_enumeration_cap_ends_a_huge_search(tmp_path, capsys, target):
    # The skewed bases have minimum 1 but about 10^6 (10^7) sign pairs of
    # vectors up to their smallest basis norm, which `Lattice.minimum`
    # enumerates; Z20 has no Hadamard cap on the search at m = 10.
    argv = [target, "--m", "10", "--sections"]
    if target.startswith("skew"):
        e = "1" + "0" * int(target[-1])
        f = tmp_path / "skew.json"
        f.write_text(json.dumps({"basis": [[e, "0"], [e, "1"]]}), encoding="utf-8")
        argv = [str(f)]
    start = time.perf_counter()
    code, rep = run_cli(capsys, "lattice", *argv)
    assert code == 2 and time.perf_counter() - start < 5
    assert f"cap of {ENUM_CAP} vectors" in rep["error"]


def test_lattice_unknown_name(capsys):
    code, rep = run_cli(capsys, "lattice", "LEECH")
    assert code == 2 and "error" in rep


def test_clifford_spread_unavailable(capsys):
    code, rep = run_cli(capsys, "clifford", "--k", "3", "--w", "3",
                        "--sigma", "spread", "--t", "2")
    assert code == 2
    assert "spread unavailable" in rep["error"]


def test_rationals_everywhere_in_json(capsys):
    code, rep = run_cli(capsys, "constants", "--m", "2", "--n", "4", "--t", "2")
    assert rep["results"]["c"] == "10/9"
    # no floats anywhere in the verdict fields
    def no_floats(x):
        if isinstance(x, float):
            return False
        if isinstance(x, dict):
            return all(no_floats(v) for v in x.values())
        if isinstance(x, list):
            return all(no_floats(v) for v in x)
        return True
    assert no_floats(rep["results"])


# -- fuzzing the input files ----------------------------------------------
# Valid documents stay cheap (dimension <= 4, entries |x| <= 3); up to two
# mutations then replace or delete any node, the top included.

SMALL = st.integers(-3, 3)
ENTRY = st.one_of(SMALL, SMALL.map(str),
                  st.builds("{}/{}".format, SMALL, st.integers(1, 4)))
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), SMALL, st.just({}),
    st.sampled_from(["1/0", "abc", "", "1.5", "1e1000000", "-2E-1000000",
                     "1e1_000_000", "basis", "D4", "Z3"]),
    st.lists(ENTRY, max_size=4), st.lists(st.lists(ENTRY, max_size=3), max_size=3))


def _matrices(rows, cols):
    return st.lists(st.lists(ENTRY, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def configurations(draw):
    """Scaled coordinate frames (certified at t = 1) or random points, where
    m > n/2 is allowed and rows may be dependent or zero."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        scale = draw(st.sampled_from(["1", "-2", "3/2"]))
        return {"n": n, "m": 1, "points": [[[scale if j == i else "0"
                                              for j in range(n)]]
                                            for i in range(n)]}
    return {"n": n, "m": m,
            "points": draw(st.lists(_matrices(m, n), max_size=5))}


@st.composite
def lattices(draw):
    """A basis (possibly singular, or with rank > ambient) or a name."""
    rank, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(st.one_of(
        st.builds(lambda b: {"basis": b}, _matrices(rank, n)),
        st.builds(lambda s: {"name": s},
                  st.sampled_from(["D4", "z3", " E6 ", "Z0", "A2", "LEECH"]))))


def _nodes(doc, out):
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, child in list(items):
        out.append((doc, key))
        _nodes(child, out)
    return out


@st.composite
def mutated(draw, documents):
    doc = draw(documents)
    for _ in range(draw(st.integers(0, 2))):
        spots = _nodes(doc, [])
        i = draw(st.integers(-1, len(spots) - 1))
        junk = draw(JUNK)
        if i < 0:
            doc = junk
        elif draw(st.booleans()):
            spots[i][0][spots[i][1]] = junk
        else:
            del spots[i][0][spots[i][1]]
    text = json.dumps(doc)
    if draw(st.integers(0, 7)) == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def _run_on_file(tmp_path, capsys, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    code = main([argv[0], str(path), *argv[1:]])
    rep = json.loads(capsys.readouterr().out)    # exactly one document
    assert code in (0, 1, 2)
    assert ("error" in rep) == (code == 2), rep


FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(text=mutated(configurations()))
def test_fuzzed_configuration_files(tmp_path, capsys, text):
    _run_on_file(tmp_path, capsys, ["verify", "--t", "1"], text)


@FUZZ
@given(text=mutated(lattices()))
def test_fuzzed_lattice_files(tmp_path, capsys, text):
    _run_on_file(tmp_path, capsys, ["lattice"], text)
