import json
import random

import pytest

from grassdex.cli import main
from grassdex.exactalg import RatMatrix
from grassdex.grassmann import Configuration


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


def test_constants_requires_arguments(capsys):
    code, rep = run_cli(capsys, "constants", "--t", "1")
    assert code == 2 and "error" in rep


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


def test_workers_option_is_a_usage_error(capsys):
    # The pool size follows the CPU affinity mask; there is no option for it.
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


@pytest.mark.parametrize("argv, message", [
    (["lattice", "D4", "--m", "2", "--sections", "--bound", "1/0"], "denominator"),
    (["verify", "{cfg}"], "denominator"),
    (["lattice", "{lat}"], "denominator"),
    (["lattice", "D4", "--m", "1", "--sections", "--bound", "-3"], "positive"),
    (["lattice", "D4", "--m", "2", "--sections", "--bound", "0"], "positive"),
], ids=["bound-1/0", "verify-1/0", "basis-1/0", "m1-bound-3", "bound-0"])
def test_bad_rationals_are_input_errors(tmp_path, capsys, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "m": 1, "points": [[["1", "1/0"]]]}),
                   encoding="utf-8")
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps({"basis": [["2", "0"], ["1/0", "1"]]}),
                   encoding="utf-8")
    argv = [a.format(cfg=cfg, lat=lat) for a in argv]
    code, rep = run_cli(capsys, *argv)
    assert code == 2 and rep["command"] == argv[0]
    assert message in rep["error"]


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
