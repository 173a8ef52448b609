"""Command-line interface: exit codes, artifacts, config handling."""

import json
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest

import billiardflow
from billiardflow import save_lift
from billiardflow.cli import main
from billiardflow.sequences import PeriodicLift

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


def test_check_writes_criterion_file(flagship_ini, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code = main(["check", "--config", str(flagship_ini),
                 "--out", str(out_dir), "--prefix", "fla"])
    assert code == 0
    payload = json.loads((out_dir / "fla.criterion.json").read_text())
    assert payload["kind"] == "main"


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


def test_find_force_runs_anyway(circle_ini, tmp_path):
    out_dir = tmp_path / "forced"
    code = main(["find", "--config", str(circle_ini), "--force",
                 "--out", str(out_dir), "--prefix", "circ"])
    assert code == 0
    report = json.loads((out_dir / "circ.report.json").read_text())
    assert report["outcome"] == "collapsed_to_birkhoff"


def test_find_non_converged_exits_4(tmp_path, capsys):
    ini = tmp_path / "capped.ini"
    ini.write_text(FLAGSHIP_INI + "\n[flow]\nmax_steps = 5\n")
    code = main(["find", "--config", str(ini), "--out", str(tmp_path / "x")])
    assert code == 4
    assert "did not converge" in capsys.readouterr().err


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


@pytest.mark.parametrize("billiard, name", [
    ("family = limacon\nn = 4\nalpha = nan", "alpha"),
    ("family = limacon\nn = 4\nalpha = inf", "alpha"),
    ("family = ellipse\na = nan\nb = 1.0", "semi-axis a"),
], ids=["limacon-nan", "limacon-inf", "ellipse-nan"])
def test_check_rejects_non_finite_table_parameters(billiard, name, tmp_path, capsys,
                                                   caplog):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[billiard]\n{billiard}\n\n" + FLAGSHIP_INI.split("\n\n", 1)[1])
    assert main(["check", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err
    assert "quadrature" not in err + caplog.text


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


def test_record_every_below_one_exits_2(tmp_path, capsys):
    ini = tmp_path / "record.ini"
    ini.write_text(FLAGSHIP_INI + "\n[flow]\nrecord_every = 0\n")
    assert main(["find", "--config", str(ini), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "record_every" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flow, name", [
    ("abs_tol = 0\nrel_tol = 0", "abs_tol"),
    ("abs_tol = -1", "abs_tol"),
    ("rel_tol = -1e-11", "rel_tol"),
    ("max_steps = 0", "max_steps"),
    ("max_steps = -5", "max_steps"),
    ("rel_tol = nan", "rel_tol"),
])
def test_unusable_step_control_exits_2(flow, name, tmp_path, capsys):
    ini = tmp_path / "flow.ini"
    ini.write_text(FLAGSHIP_INI + f"\n[flow]\n{flow}\n")
    assert main(["find", "--config", str(ini), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err


def test_config_without_theorem_section_exits_2(tmp_path, capsys):
    ini = tmp_path / "partial.ini"
    ini.write_text("[billiard]\nfamily = limacon\nn = 4\nalpha = 0.05\n")
    assert main(["check", "--config", str(ini)]) == 2
    assert "theorem" in capsys.readouterr().err


def test_sweep_writes_table_and_json(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text(SWEEP_INI)
    out_dir = tmp_path / "sw"
    code = main(["sweep", "--config", str(ini), "--workers", "2",
                 "--out", str(out_dir), "--prefix", "sw"])
    assert code == 0
    out = capsys.readouterr().out
    assert "non_birkhoff_found" in out
    rows = json.loads((out_dir / "sw.sweep.json").read_text())
    assert len(rows) == 2
    by_value = {row["value"]: row for row in rows}
    assert by_value[0.19]["report"]["outcome"] == "non_birkhoff_found"
    assert by_value[0.25]["report"] is None
    assert "convex" in by_value[0.25]["error"]


def test_log_level_environment_variable(flagship_ini, tmp_path):
    env = dict(os.environ, BILLIARD_LOG="INFO")
    run = subprocess.run(
        [sys.executable, "-m", "billiardflow.cli", "find",
         "--config", str(flagship_ini), "--out", str(tmp_path / "log")],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0
    assert "INFO billiardflow.finder: flowing" in run.stderr

    quiet = subprocess.run(
        [sys.executable, "-m", "billiardflow.cli", "find",
         "--config", str(flagship_ini), "--out", str(tmp_path / "log2")],
        capture_output=True, text=True,
        env=dict(os.environ, BILLIARD_LOG="warning"), timeout=120)
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
