"""Command-line interface: exit codes, artifacts, config handling."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest

import billiardflow
from billiardflow import (finder, flow, geometry, periodic_action, repeat_lift,
                          symmetric_birkhoff)
from billiardflow.cli import KEYS, main
from billiardflow.sequences import PeriodicLift
from oracles import save_lift

FLAGSHIP_INI = """\
[billiard]
family = limacon
n = 4
alpha = 0.05

[theorem]
kind = main
n = 4
m = 1
N = 4
s = 3
"""

CIRCLE_INI = """\
[billiard]
family = circle
radius = 1.0
n = 4

[theorem]
kind = main
n = 4
m = 1
N = 4
s = 3
"""

SWEEP_INI = """\
[billiard]
family = limacon
n = 2
alpha = 0.19

[theorem]
kind = typeII
n = 2
m = 1
s = 4

[sweep]
param = alpha
values = 0.19, 0.25
"""


@pytest.fixture
def flagship_ini(tmp_path):
    path = tmp_path / "flagship.ini"
    path.write_text(FLAGSHIP_INI)
    return path


@pytest.fixture
def circle_ini(tmp_path):
    path = tmp_path / "circle.ini"
    path.write_text(CIRCLE_INI)
    return path


def test_check_prints_table_and_json(flagship_ini, capsys):
    assert main(["check", "--config", str(flagship_ini)]) == 0
    out = capsys.readouterr().out
    assert "margin" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["verdict"] == "orbit_predicted"
    assert payload["margin"] == pytest.approx(0.13025651232383795, rel=1e-9)


def test_check_gives_a_scaled_table_the_margin_of_the_unscaled_one(tmp_path, capsys):
    margins = []
    for scale in (1.0, 1e6):
        config = tmp_path / f"ellipse{scale:g}.ini"
        config.write_text(f"[billiard]\nfamily = ellipse\na = {1.3 * scale!r}\nb = {scale!r}\n\n"
                          "[theorem]\nkind = typeI\nn = 2\nm = 1\ns = 5\n")
        assert main(["check", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        margins.append(json.loads(out[out.index("{"):])["margin"])
    assert margins[0] > 0
    assert margins[1] == pytest.approx(margins[0], abs=1e-12)


def test_check_writes_criterion_file(flagship_ini, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code = main(["check", "--config", str(flagship_ini),
                 "--out", str(out_dir), "--prefix", "fla"])
    assert code == 0
    payload = json.loads((out_dir / "fla.criterion.json").read_text())
    assert payload["kind"] == "main"


def test_output_key_sets_where_check_and_classify_write(tmp_path, capsys):
    # [output] out works like --out: no flag is needed for the JSON files
    out_dir = tmp_path / "cfgout"
    config = tmp_path / "out.ini"
    config.write_text(FLAGSHIP_INI + f"\n[output]\nout = {out_dir}\nprefix = fla\n")
    assert main(["check", "--config", str(config)]) == 0
    assert json.loads((out_dir / "fla.criterion.json").read_text())["kind"] == "main"
    orbit = tmp_path / "ref.orbit.txt"
    save_lift(orbit, repeat_lift(symmetric_birkhoff(4, 1), 3), 4, 1)
    assert main(["classify", str(orbit), "--config", str(config)]) == 0
    assert json.loads((out_dir / "fla.classify.json").read_text())["p"] == 12
    assert capsys.readouterr().out.count(f"wrote {out_dir}") == 2


def test_check_inconclusive_circle_exits_3(circle_ini, capsys):
    assert main(["check", "--config", str(circle_ini)]) == 3
    out = capsys.readouterr().out
    assert "inconclusive" in out


def test_find_writes_orbit_report_and_svg(flagship_ini, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code = main(["find", "--config", str(flagship_ini), "--out", str(out_dir),
                 "--prefix", "fla", "--render"])
    assert code == 0
    out = capsys.readouterr().out
    assert "non_birkhoff_found" in out

    orbit = (out_dir / "fla.orbit.txt").read_text().splitlines()
    assert orbit[0].split() == ["12", "3", "4", "1"]
    assert len(orbit) == 13

    report = json.loads((out_dir / "fla.report.json").read_text())
    assert report["outcome"] == "non_birkhoff_found"
    assert report["minimal_period"] == 12
    assert report["anomalies"] == []

    svg = (out_dir / "fla.svg").read_text()
    assert ET.fromstring(svg).tag.endswith("svg")


def test_find_inconclusive_exits_3(circle_ini, tmp_path, capsys):
    code = main(["find", "--config", str(circle_ini),
                 "--out", str(tmp_path / "a")])
    assert code == 3
    assert "inconclusive" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_find_force_runs_anyway(circle_ini, tmp_path):
    out_dir = tmp_path / "forced"
    code = main(["find", "--config", str(circle_ini), "--force",
                 "--out", str(out_dir), "--prefix", "circ"])
    assert code == 0
    report = json.loads((out_dir / "circ.report.json").read_text())
    assert report["outcome"] == "collapsed_to_birkhoff"


def test_find_non_converged_exits_4(flagship_ini, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 5)
    code = main(["find", "--config", str(flagship_ini), "--out", str(tmp_path / "x")])
    assert code == 4
    assert "did not converge" in capsys.readouterr().err
    # the artifacts of a run that returned are kept for diagnosis
    assert (tmp_path / "x" / "orbit.orbit.txt").exists()
    report = json.loads((tmp_path / "x" / "orbit.report.json").read_text())
    assert report["outcome"] == "non_converged"


def test_find_exits_2_when_the_arc_length_inversion_does_not_converge(
        flagship_ini, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(geometry, "NEWTON_MAX_STEPS", 0)
    out_dir = tmp_path / "x"
    assert main(["find", "--config", str(flagship_ini), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the arc-length inversion did not converge")
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("n, alpha", [(170, 1.7e-5), (256, 7.6e-6)])
def test_find_on_a_high_order_limacon_finds_the_predicted_orbit(n, alpha, tmp_path, capsys):
    # main, m = 1, N = 1, s = 3 at half the convexity threshold: the
    # constant-speed series of an order-n table starts on 8n nodes or more,
    # so it resolves the table, and find returns the orbit check predicts
    config = tmp_path / "high.ini"
    config.write_text(f"[billiard]\nfamily = limacon\nn = {n}\nalpha = {alpha}\n\n"
                      f"[theorem]\nkind = main\nn = {n}\nm = 1\nN = 1\ns = 3\n")
    assert main(["check", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["predicted_min_period"] == 3 * n
    out_dir = tmp_path / "o"
    assert main(["find", "--config", str(config), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "orbit.report.json").read_text())
    assert (report["outcome"], report["minimal_period"]) == ("non_birkhoff_found", 3 * n)


def test_a_plateau_reports_the_action_of_the_lift_it_returns(flagship_ini, limacon4_cs,
                                                            tmp_path, capsys, monkeypatch):
    # with an unreachable residual target the search stops where ||F||_inf
    # plateaus at its roundoff floor: on the iterate before its last trial
    # step, not on the last point it evaluated
    monkeypatch.setattr(flow, "RESIDUAL_TARGET", 0.0)
    assert main(["find", "--config", str(flagship_ini), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "orbit.report.json").read_text())
    assert report["flow"]["reason"] == "stationary"
    assert 0 < report["flow"]["grad_norm"] < flow.STATIONARITY_TOL
    lift = PeriodicLift(12, 3, np.array(report["lift"]["coords"]))
    assert report["flow"]["final_action"] == pytest.approx(
        periodic_action(limacon4_cs, lift), abs=1e-12)


def test_classify_found_orbit(flagship_ini, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    assert main(["find", "--config", str(flagship_ini),
                 "--out", str(out_dir), "--prefix", "fla"]) == 0
    capsys.readouterr()
    code = main(["classify", str(out_dir / "fla.orbit.txt"),
                 "--config", str(flagship_ini)])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["is_birkhoff"] is False
    assert payload["type_label"] == "I"
    assert payload["minimal_period"] == 12
    assert payload["stationarity_residual"] < 1e-8


def test_classify_writes_the_report_it_prints(flagship_ini, tmp_path, capsys):
    orbit = tmp_path / "ref.orbit.txt"
    save_lift(orbit, repeat_lift(symmetric_birkhoff(4, 1), 3), 4, 1)
    out_dir = tmp_path / "artifacts"
    code = main(["classify", str(orbit), "--config", str(flagship_ini),
                 "--out", str(out_dir), "--prefix", "cls"])
    assert code == 0
    out = capsys.readouterr().out
    printed = json.loads(out[out.index("{"):out.rindex("}") + 1])
    written = json.loads((out_dir / "cls.classify.json").read_text())
    assert written == printed
    assert written["is_birkhoff"] is True

#: orbit files outside the admissible region: two with a decreasing step, and
#: one with a NaN coordinate, which no comparison flags as out of range
BAD_COORDS = ([0.0, 0.6, 0.5, 0.9], [0.0, 0.5, 0.2, 0.7], [0.0, 0.25, np.nan, 0.75])


def test_classify_rejects_inadmissible_orbit_file(flagship_ini, tmp_path, capsys):
    for i, coords in enumerate(BAD_COORDS):
        path = tmp_path / f"bad{i}.orbit.txt"
        save_lift(path, PeriodicLift(4, 1, np.array(coords)), 4, 1)
        code = main(["classify", str(path), "--config", str(flagship_ini)])
        assert code == 2, coords
        assert "admissible" in capsys.readouterr().err


def test_render_rejects_inadmissible_orbit_file(tmp_path, capsys):
    for i, coords in enumerate(BAD_COORDS):
        path = tmp_path / f"bad{i}.orbit.txt"
        save_lift(path, PeriodicLift(4, 1, np.array(coords)), 4, 1)
        out_dir = tmp_path / "artifacts"
        code = main(["render", str(path), "--mode", "aubry_diagram",
                     "--out", str(out_dir), "--prefix", "bad"])
        assert code == 2, coords
        assert "admissible" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.svg"))


TWOFOLD_INI = """\
[billiard]
family = limacon
n = 2
alpha = 0.1

[theorem]
kind = typeII
n = 2
m = 1
s = 4
"""


@pytest.mark.parametrize("n, ini, message", [
    (0, FLAGSHIP_INI, "orbit header '12 3 0 1': need 0 < m < n"),
    (-3, FLAGSHIP_INI, "orbit header '12 3 -3 1': need 0 < m < n"),
    (4, TWOFOLD_INI, "lacks the order-4 dihedral symmetry"),
], ids=["n-zero", "n-negative", "symmetry-the-table-lacks"])
def test_classify_rejects_a_header_that_does_not_fit(n, ini, message, tmp_path, capsys):
    # an admissible lift whose header names no usable table symmetry, or one
    # the table does not have
    config = tmp_path / "table.ini"
    config.write_text(ini)
    path = tmp_path / "orbit.txt"
    save_lift(path, billiardflow.repeat_lift(billiardflow.symmetric_birkhoff(4, 1), 3), n, 1)
    assert main(["classify", str(path), "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    ("", "empty orbit file: "),
    ("# a comment, and no header\n\n", "empty orbit file: "),
    ("12 3 4\n", "orbit header must be 'p q n m', got '12 3 4'"),
    ("4 1 4 1\n0.1\n0.35\n0.6\n", "expected 4 coordinates, found 3"),
], ids=["empty", "comment-only", "three-field-header", "one-coordinate-too-few"])
def test_classify_rejects_a_malformed_orbit_file(text, message, flagship_ini, tmp_path,
                                                 capsys):
    path = tmp_path / "orbit.txt"
    path.write_text(text)
    out_dir = tmp_path / "out"
    code = main(["classify", str(path), "--config", str(flagship_ini), "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + message)
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("text, line, message", [
    ("12 3 4 x\n", 1, "orbit header 'p q n m' must be four integers, got '12 3 4 x'"),
    ("# p q n m\n4 1 4 1\n0.1\n\nabc\n0.6\n0.9\n", 5, "coordinate 'abc' is not a number"),
], ids=["header-field", "coordinate"])
def test_classify_names_the_file_and_line_of_a_field_that_does_not_parse(
        text, line, message, flagship_ini, tmp_path, capsys):
    path = tmp_path / "orbit.txt"
    path.write_text(text)
    assert main(["classify", str(path), "--config", str(flagship_ini)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}, line {line}: {message}\n"
    assert captured.out == ""


NONCONVEX_INI = FLAGSHIP_INI.replace("alpha = 0.05", "alpha = 0.2")


@pytest.mark.parametrize("command, ini, message", [
    (["classify", "ORBIT"], NONCONVEX_INI, "not strictly convex"),
    (["render", "ORBIT", "--overlay"], TWOFOLD_INI, "lacks the order-4 dihedral symmetry"),
    (["render", "ORBIT", "--overlay"], NONCONVEX_INI, "not strictly convex"),
    (["find"], NONCONVEX_INI, "not strictly convex"),
], ids=["classify-non-convex", "render-symmetry-the-table-lacks",
        "render-non-convex", "find-non-convex"])
def test_orbit_commands_reject_a_table_that_does_not_fit(command, ini, message,
                                                         tmp_path, capsys):
    # the flagship reference lift on a table above the convexity threshold
    # 1/17, or on a 2-fold table; find checks its own table the same way
    config = tmp_path / "table.ini"
    config.write_text(ini)
    path = tmp_path / "orbit.txt"
    save_lift(path, billiardflow.repeat_lift(billiardflow.symmetric_birkhoff(4, 1), 3), 4, 1)
    out_dir = tmp_path / "out"
    code = main([str(path) if arg == "ORBIT" else arg for arg in command] +
                ["--config", str(config), "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert not list(tmp_path.rglob("*.svg"))
    assert not out_dir.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_ini() -> str:
    """The INI block of README.md, inline comments included."""
    return README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_configuration_runs(tmp_path, capsys):
    ini = tmp_path / "readme.ini"
    ini.write_text(readme_ini())
    assert main(["check", "--config", str(ini)]) == 0
    assert "margin:      0.130256512324" in capsys.readouterr().out


def test_readme_ini_block_lists_every_key():
    # live lines and commented-out "; key = value" lines alike
    listed, section = [], None
    for line in readme_ini().splitlines():
        text = line.lstrip("; ").split(" ;")[0].strip()
        if re.fullmatch(r"\[\w+\]", text):
            section = text[1:-1]
        elif re.match(r"\w+ = ", text):
            listed.append((section, text.split(" = ")[0]))
    assert sorted(listed) == sorted((row.section, row.key) for row in KEYS)


def test_readme_library_api_block_runs(capsys):
    # the python block of README's Library API section runs, and each print
    # shows the line of the comment under it
    section = README.read_text().split("## Library API", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    shown = [after.removeprefix("# ") for before, after in zip(lines, lines[1:])
             if before.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown
    assert shown[0] == "non_birkhoff_found 12 8"


TYPE_V_INI = """\
[billiard]
family = limacon
n = 2
alpha = 0.10

[theorem]
kind = typeV
n = 2
m = 1
s = 5
k = 2
"""


@pytest.mark.parametrize("ini, message", [
    (readme_ini().replace("; k = 3 ", "k = 2 "),
     "shift 2 does not match the main class (needs shift = 3 mod 4)"),
    (TYPE_V_INI, "shift 2 does not match the typeV class (needs shift = 1 mod 2)"),
], ids=["readme-k2", "typeV-k2"])
@pytest.mark.parametrize("command", ["check", "find"])
def test_check_and_find_reject_the_same_shift_override(command, ini, message,
                                                       tmp_path, capsys):
    assert "\nk = 2" in ini
    config = tmp_path / "shift.ini"
    config.write_text(ini)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


TYPE_ONE_INI = """\
[billiard]
family = limacon
n = 2
alpha = 0.15

[theorem]
kind = typeI
n = 2
m = 1
s = 7
"""


@pytest.mark.parametrize("line, code", [("", 0), ("N = 2\n", 0), ("N = 1\n", 2)],
                         ids=["no-N", "N-2", "N-1"])
def test_a_kind_that_fixes_N_rejects_another(line, code, tmp_path, capsys):
    config = tmp_path / "typeI.ini"
    config.write_text(TYPE_ONE_INI + line)
    assert main(["check", "--config", str(config)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == "error: kind 'typeI' fixes N = 2, got N = 1\n"
    else:
        assert "N = 2, s = 7 -> (p, q) = (14, 7)" in captured.out


def test_no_action_gain_along_the_mode_exits_4(flagship_ini, tmp_path, capsys, monkeypatch):
    # README's table at a set epsilon = 1e-9, whose gain (about margin
    # epsilon^2) lies below the action's roundoff, so that halving epsilon
    # only lowers it; then a constant action, at the reference and in the
    # nudged start's evaluation the gap reads, which gains nothing at any
    # nudge amplitude
    tiny = tmp_path / "tiny.ini"
    tiny.write_text(readme_ini() + "\n[flow]\nepsilon = 1e-9\n")
    evaluate = finder._evaluate

    def constant(boundary, lift):
        f, _, h = evaluate(boundary, lift)
        return f, 1.0, h

    errors = []
    for config in (tiny, flagship_ini):
        if config is flagship_ini:
            monkeypatch.setattr(finder, "periodic_action", lambda boundary, lift: 1.0)
            monkeypatch.setattr(finder, "_evaluate", constant)
        code = main(["find", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("flow failure: no action gain along the certified mode")
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()
        errors.append(err)
    # the margin is not small: the message names both amplitudes and the nudge
    assert "from epsilon = 1e-09 down to 1.56e-11; the nudge amplitude or the " \
        "margin 0.13 is too small" in errors[0]


MISSPELLED = "shift = 7\n\n[flow]\nepsilom = 1e-3\n\n[ouput]\nout = runs\n"


@pytest.mark.parametrize("ini, message", [
    (FLAGSHIP_INI.replace("alpha =", "aplha ="),
     "unknown config key [billiard] aplha; did you mean [billiard] alpha?"),
    (FLAGSHIP_INI + "shift = 7\n",
     "unknown config key [theorem] shift; did you mean [theorem] s?"),
    (FLAGSHIP_INI + "\n[flow]\nepsilom = 1e-3\n",
     "unknown config key [flow] epsilom; did you mean [flow] epsilon?"),
    (FLAGSHIP_INI + "\n[output]\nprefx = run\n",
     "unknown config key [output] prefx; did you mean [output] prefix?"),
    (FLAGSHIP_INI + "\n[ouput]\n", "unknown config section [ouput]; did you mean [output]?"),
    ("[DEFAULT]\nn = 4\n\n" + FLAGSHIP_INI, "unknown config section [DEFAULT]"),
    (FLAGSHIP_INI + MISSPELLED,
     "unknown config key [theorem] shift; did you mean [theorem] s?"),
    (FLAGSHIP_INI.replace("s = 3", "s = three"), "config value [theorem] s = 'three'"),
], ids=["aplha", "shift", "epsilom", "prefx", "ouput", "DEFAULT", "all", "s-three"])
def test_find_rejects_a_name_or_value_the_table_lacks(ini, message, tmp_path, capsys):
    # each typo would otherwise drop its setting and run the default flagship
    config = tmp_path / "typo.ini"
    config.write_text(ini)
    out_dir = tmp_path / "out"
    assert main(["find", "--config", str(config), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert message in lines[0]
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("command", [
    ["check"], ["find"], ["sweep"], ["classify", "orbit.txt"], ["render", "orbit.txt"],
], ids=["check", "find", "sweep", "classify", "render"])
def test_every_command_reads_the_config_through_the_table(command, tmp_path, capsys):
    config = tmp_path / "typo.ini"
    config.write_text(FLAGSHIP_INI + MISSPELLED)
    assert main([*command, "--config", str(config)]) == 2
    assert "[theorem] shift" in capsys.readouterr().err


ELLIPSE_TYPE_ONE_INI = """\
[billiard]
family = ellipse
a = 2
b = 1

[theorem]
kind = typeI
n = 2
m = 1
s = 3
"""


@pytest.mark.parametrize("command", ["check", "find"])
def test_a_roundoff_margin_is_inconclusive(command, tmp_path, capsys):
    # kappa*L = rhs = 1/2 exactly on the 2:1 ellipse; the computed margin is
    # one ulp, whose sign roundoff decides
    config = tmp_path / "ellipse.ini"
    config.write_text(ELLIPSE_TYPE_ONE_INI)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 3
    captured = capsys.readouterr()
    assert "inconclusive" in captured.out + captured.err
    if command == "find":
        assert "--force" in captured.err


@pytest.mark.parametrize("billiard, name", [
    ("family = limacon\nn = 4\nalpha = nan", "alpha"),
    ("family = limacon\nn = 4\nalpha = inf", "alpha"),
    ("family = ellipse\na = nan\nb = 1.0", "semi-axis a"),
    ("family = ellipse\nb = 1.0", "ellipse table lacks the key 'a'"),
    ("family = limacon\nn = 4", "limacon table lacks the key 'alpha'"),
    ("family = limacon\nn = 4\nalpha = abc", "[billiard] alpha = 'abc'"),
], ids=["limacon-nan", "limacon-inf", "ellipse-nan", "ellipse-no-a", "limacon-no-alpha",
        "limacon-abc"])
def test_check_rejects_non_finite_table_parameters(billiard, name, tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[billiard]\n{billiard}\n\n" + FLAGSHIP_INI.split("\n\n", 1)[1])
    assert main(["check", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("command", ["check", "find"])
@pytest.mark.parametrize("n", [0, -3])
def test_check_and_find_reject_a_circle_of_order_below_one(n, command, tmp_path, capsys):
    ini = tmp_path / "circle.ini"
    ini.write_text(CIRCLE_INI.replace("n = 4\n\n[theorem]", f"n = {n}\n\n[theorem]"))
    out_dir = tmp_path / "artifacts"
    args = [command, "--config", str(ini)]
    if command == "find":
        args += ["--force", "--out", str(out_dir)]
    assert main(args) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0] == f"error: symmetry order n={n} must be >= 1", err
    assert not out_dir.exists()


def test_render_orbit_figure_mode(flagship_ini, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    assert main(["find", "--config", str(flagship_ini),
                 "--out", str(out_dir), "--prefix", "fla"]) == 0
    code = main(["render", str(out_dir / "fla.orbit.txt"),
                 "--config", str(flagship_ini), "--mode", "orbit_figure",
                 "--overlay", "--out", str(out_dir), "--prefix", "fig"])
    assert code == 0
    svg = (out_dir / "fig.orbit_figure.svg").read_text()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_render_aubry_mode_needs_no_config(flagship_ini, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    assert main(["find", "--config", str(flagship_ini),
                 "--out", str(out_dir), "--prefix", "fla"]) == 0
    code = main(["render", str(out_dir / "fla.orbit.txt"),
                 "--mode", "aubry_diagram", "--translates", "2",
                 "--out", str(out_dir), "--prefix", "aub"])
    assert code == 0
    assert (out_dir / "aub.aubry_diagram.svg").exists()


def test_render_orbit_figure_needs_config(flagship_ini, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    assert main(["find", "--config", str(flagship_ini),
                 "--out", str(out_dir), "--prefix", "fla"]) == 0
    code = main(["render", str(out_dir / "fla.orbit.txt"),
                 "--mode", "orbit_figure"])
    assert code == 2
    assert "needs --config" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["find", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("flow, name", [
    ("abs_tol = 0\nrel_tol = 0", "abs_tol"),
    ("abs_tol = -1", "abs_tol"),
    ("rel_tol = -1e-11", "rel_tol"),
    ("max_steps = 0", "max_steps"),
    ("max_steps = -5", "max_steps"),
    ("rel_tol = nan", "rel_tol"),
    ("tol_stationary = 1e-3", "tol_stationary"),
    ("max_time = 1", "max_time"),
    ("guard_margin = 0.1", "guard_margin"),
    ("--tol-stationary=1e-3", "--tol-stationary"),
    ("--max-time=1", "--max-time"),
])
def test_unusable_step_control_exits_2(flow, name, flagship_ini, tmp_path, capsys):
    # the step control is a set of constants of the flow module: a [flow] key
    # or a flag that still sets it exits 2 naming itself, and writes nothing
    config, flags = flagship_ini, [flow]
    if not flow.startswith("--"):
        config, flags = tmp_path / "flow.ini", []
        config.write_text(FLAGSHIP_INI + f"\n[flow]\n{flow}\n")
    out_dir = tmp_path / "out"
    try:
        code = main(["find", "--config", str(config), "--out", str(out_dir), *flags])
    except SystemExit as exc:       # argparse rejects an unknown flag
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_config_without_theorem_section_exits_2(tmp_path, capsys):
    ini = tmp_path / "partial.ini"
    ini.write_text("[billiard]\nfamily = limacon\nn = 4\nalpha = 0.05\n")
    assert main(["check", "--config", str(ini)]) == 2
    assert "theorem" in capsys.readouterr().err


def test_sweep_writes_table_and_json(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text(SWEEP_INI)
    out_dir = tmp_path / "sw"
    code = main(["sweep", "--config", str(ini), "--out", str(out_dir), "--prefix", "sw"])
    assert code == 0
    out = capsys.readouterr().out
    assert "non_birkhoff_found" in out
    rows = json.loads((out_dir / "sw.sweep.json").read_text())
    assert len(rows) == 2
    by_value = {row["value"]: row for row in rows}
    assert by_value[0.19]["report"]["outcome"] == "non_birkhoff_found"
    assert by_value[0.25]["report"] is None
    assert "convex" in by_value[0.25]["error"]


@pytest.mark.parametrize("values", ["", " , ,"], ids=["empty", "separators-only"])
def test_a_sweep_without_values_exits_2(values, tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text(FLAGSHIP_INI + f"\n[sweep]\nparam = alpha\nvalues ={values}\n")
    assert main(["sweep", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: config value [sweep] values = {values.strip()!r}: "
                            "expected a list of numbers\n")
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_an_anomalous_sweep_entry_is_counted_and_not_continued(tmp_path, capsys,
                                                              monkeypatch):
    # the second find reads 10 crossings against the predicted 8: its row
    # counts one anomaly, and the entry after it starts from the nudge
    crossings = finder.intersection_index
    calls = []

    def one_wrong_count(final, reference):
        calls.append(1)
        return 10 if len(calls) == 2 else crossings(final, reference)

    monkeypatch.setattr(finder, "intersection_index", one_wrong_count)
    ini = tmp_path / "sweep.ini"
    ini.write_text(FLAGSHIP_INI + "\n[sweep]\nparam = alpha\nvalues = 0.05, 0.052, 0.054\n")
    assert main(["sweep", "--config", str(ini), "--out", str(tmp_path), "--prefix", "sw"]) == 0
    table = capsys.readouterr().out.splitlines()
    assert [line.split()[4] for line in table[1:4]] == ["nudged", "continued", "nudged"]
    assert [line.endswith(" anomalies=1") for line in table[1:4]] == [False, True, False]
    assert "crossings=10 newton=" in table[2]
    reports = [row["report"] for row in json.loads((tmp_path / "sw.sweep.json").read_text())]
    assert [r["anomalies"] for r in reports] == [[], ["crossing count 10 != predicted 8"], []]
    assert [r["start"] for r in reports] == ["nudged", "continued", "nudged"]


def test_the_removed_workers_flag_exits_2(tmp_path):
    ini = tmp_path / "sweep.ini"
    ini.write_text(SWEEP_INI)
    run = subprocess.run(
        [sys.executable, "-m", "billiardflow.cli", "sweep", "--config", str(ini),
         "--workers", "2", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert "error: unrecognized arguments: --workers 2" in run.stderr
    assert "Traceback" not in run.stderr
    assert run.stdout == ""
    assert not (tmp_path / "o").exists()


def test_an_alpha_sweep_over_an_ellipse_exits_2(tmp_path, capsys):
    # an ellipse reads only a and b, so the sweep would repeat one find
    ini = tmp_path / "ellipse.ini"
    ini.write_text(ELLIPSE_TYPE_ONE_INI + "\n[sweep]\nparam = alpha\nvalues = 0.01, 0.2, 0.5\n")
    assert main(["sweep", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: ellipse table does not read the key 'alpha'\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_an_alpha_sweep_reports_how_each_entry_started(tmp_path, capsys, caplog):
    # README's sweep: each entry after the first continues from the orbit
    # before it, scaled about the reference by the root of the margin ratio
    ini = tmp_path / "readme.ini"
    ini.write_text(FLAGSHIP_INI + "\n[sweep]\nparam = alpha\nvalues = 0.048, 0.0515, 0.055\n")
    caplog.set_level("INFO", logger="billiardflow.finder")
    assert main(["sweep", "--config", str(ini), "--out", str(tmp_path), "--prefix", "sw"]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split()[4] == "start"
    assert [line.split()[4] for line in table[1:4]] == ["nudged", "continued", "continued"]
    rows = json.loads((tmp_path / "sw.sweep.json").read_text())
    reports = [row["report"] for row in rows]
    assert [r["start"] for r in reports] == ["nudged", "continued", "continued"]
    assert [r["epsilon"] for r in reports] == [0.01, None, None]
    assert reports[0]["corrector_iterations"] is reports[0]["corrector_ratio"] is None
    for r in reports[1:]:
        assert r["corrector_iterations"] == r["flow"]["n_steps"] > 0
        assert 0 < r["corrector_ratio"] < 0.5
        assert r["flow"]["t_final"] == 0.0
    messages = [r.getMessage() for r in caplog.records]
    assert sum(m.startswith("continuation rejected") for m in messages) == 0
    assert [m.split("(")[1].split()[0] for m in messages
            if m.startswith("continued from the warm lift")] == ["scaled", "scaled"]


def test_sweep_over_m_writes_the_class_of_each_entry(tmp_path, capsys):
    # the lift header of each entry names its own (n, m), not the base request's
    ini = tmp_path / "m.ini"
    ini.write_text(FLAGSHIP_INI + "\n[sweep]\nparam = m\nvalues = 1, 3\n")
    assert main(["sweep", "--config", str(ini), "--out", str(tmp_path), "--prefix", "m"]) == 0
    rows = json.loads((tmp_path / "m.sweep.json").read_text())
    assert [row["value"] for row in rows] == [1, 3]
    for row in rows:
        lift = row["report"]["lift"]
        assert (lift["n"], lift["m"]) == (4, row["value"]) == \
            (row["criterion"]["n"], row["criterion"]["m"])
        assert (lift["p"], lift["q"]) == (12, 3 * row["value"])


@pytest.mark.parametrize("command", ["check", "find"])
@pytest.mark.parametrize("ini", [FLAGSHIP_INI, CIRCLE_INI], ids=["flagship", "circle"])
def test_check_and_find_reject_the_same_epsilon(command, ini, tmp_path, capsys):
    # both share the criterion step, which checks the nudge range before any
    # verdict is read, so an inconclusive class exits 2 as well
    config = tmp_path / "eps.ini"
    config.write_text(ini + "\n[flow]\nepsilon = 0.5\n")
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: epsilon must lie in (0, 0.125), got 0.5\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_sweep_logs_a_failed_entry_in_one_line(tmp_path):
    # a non-convex table fails its entry; the traceback shows only at debug
    ini = tmp_path / "sweep.ini"
    ini.write_text(SWEEP_INI.replace("values = 0.19, 0.25", "values = 0.25"))
    for level, traceback in (("warning", False), ("debug", True)):
        out_dir = tmp_path / level
        run = subprocess.run(
            [sys.executable, "-m", "billiardflow.cli", "sweep", "--config", str(ini),
             "--out", str(out_dir), "--prefix", "sw"],
            capture_output=True, text=True,
            env=dict(os.environ, BILLIARD_LOG=level), timeout=120)
        assert run.returncode == 0
        [row] = json.loads((out_dir / "sw.sweep.json").read_text())
        assert "convex" in row["error"]
        assert run.stderr.count("sweep entry 0.25 failed") == 1
        assert ("Traceback" in run.stderr) == traceback


def test_log_level_environment_variable(flagship_ini, tmp_path):
    env = dict(os.environ, BILLIARD_LOG="INFO")
    run = subprocess.run(
        [sys.executable, "-m", "billiardflow.cli", "find",
         "--config", str(flagship_ini), "--out", str(tmp_path / "log")],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0
    assert "INFO billiardflow.finder: flowing" in run.stderr

    # an unknown level name falls back to WARNING
    for value in ("warning", "verbose"):
        quiet = subprocess.run(
            [sys.executable, "-m", "billiardflow.cli", "find",
             "--config", str(flagship_ini), "--out", str(tmp_path / value)],
            capture_output=True, text=True,
            env=dict(os.environ, BILLIARD_LOG=value), timeout=120)
        assert quiet.returncode == 0
        assert "INFO" not in quiet.stderr


def test_import_loads_no_scipy():
    src = Path(billiardflow.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, billiardflow; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
