"""SVG output: structure, determinism, option handling."""

from xml.etree import ElementTree as ET

import numpy as np
import pytest

from billiardflow import (
    render_aubry_diagram,
    render_orbit_figure,
    repeat_lift,
    symmetric_birkhoff,
)
from billiardflow.render import GRID_STROKE, SVG_NS
from billiardflow.sequences import PeriodicLift

SVG = f"{{{SVG_NS}}}"


def parse(doc: str) -> ET.Element:
    return ET.fromstring(doc)


def tags(root, name):
    return root.findall(f".//{SVG}{name}")


def test_orbit_figure_is_well_formed_svg(limacon4_cs):
    lift = repeat_lift(symmetric_birkhoff(4, 1), 3)
    doc = render_orbit_figure(limacon4_cs, lift)
    root = parse(doc)
    assert root.tag == f"{SVG}svg"
    assert root.get("width") == "640"
    assert root.get("viewBox") == "0 0 640 640"


def test_orbit_figure_numbers_every_impact(limacon4_cs):
    lift = repeat_lift(symmetric_birkhoff(4, 1), 3)
    root = parse(render_orbit_figure(limacon4_cs, lift))
    assert len(tags(root, "circle")) == 12
    labels = sorted(t.text for t in tags(root, "text"))
    assert labels == sorted(str(i) for i in range(1, 13))


def test_orbit_figure_paths_are_closed(limacon4_cs):
    lift = repeat_lift(symmetric_birkhoff(4, 1), 3)
    root = parse(render_orbit_figure(limacon4_cs, lift))
    paths = tags(root, "path")
    # the boundary outline and the chord polygon
    assert len(paths) == 2
    for path in paths:
        assert path.get("d", "").strip().endswith("Z")


def test_orbit_figure_overlay_adds_two_dashed_branches(limacon4_cs):
    lift = repeat_lift(symmetric_birkhoff(4, 1), 3)
    root = parse(render_orbit_figure(limacon4_cs, lift, overlay=(4, 1)))
    paths = tags(root, "path")
    assert len(paths) == 4
    dashed = [p for p in paths if p.get("stroke-dasharray")]
    assert len(dashed) == 2
    assert {p.get("stroke") for p in dashed} == {"#d62728", "#17becf"}


def test_aubry_diagram_draws_base_and_translates():
    lift = repeat_lift(symmetric_birkhoff(4, 1), 3)

    def count_non_grid(doc):
        root = parse(doc)
        return sum(1 for p in tags(root, "path") if p.get("stroke") != GRID_STROKE)

    bare = render_aubry_diagram(lift)
    with_copies = render_aubry_diagram(lift, translates=3)
    # each translate adds exactly one non-grid polyline on top of the base
    assert count_non_grid(bare) == 1
    assert count_non_grid(with_copies) == 4
    assert len(tags(parse(bare), "circle")) == lift.p + 1  # base vertices


def test_aubry_diagram_marks_every_index():
    lift = PeriodicLift(5, 2, np.array([0.05, 0.3, 0.5, 0.62, 0.9]))
    root = parse(render_aubry_diagram(lift))
    texts = {t.text for t in tags(root, "text")}
    assert {str(i) for i in range(6)} <= texts


def test_render_output_is_deterministic(limacon4_cs):
    lift = repeat_lift(symmetric_birkhoff(4, 1), 3)
    a = render_orbit_figure(limacon4_cs, lift, overlay=(4, 1))
    b = render_orbit_figure(limacon4_cs, lift, overlay=(4, 1))
    assert a == b
    c = render_aubry_diagram(lift, translates=2)
    d = render_aubry_diagram(lift, translates=2)
    assert c == d


def test_aubry_diagram_rejects_negative_translates():
    with pytest.raises(ValueError, match="translates"):
        render_aubry_diagram(symmetric_birkhoff(4, 1), translates=-1)
