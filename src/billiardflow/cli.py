"""Command-line front end: check / find / classify / render / sweep.

Configuration comes from an INI file (section names and keys are
case-sensitive, and " ;" starts a comment).  Every key is one row of
:data:`KEYS`, which gives its type, where its value goes and the flag that
overrides it; README's INI block lists them all.  An unknown section or key
(``[DEFAULT]`` included), a missing required key, or a value that does not
parse as its type exits 2 with one line naming it.
Exit codes: 0 success (and criterion holds for ``check``), 2 precondition or
input error, 3 criterion inconclusive, 4 flow failure.  The ``BILLIARD_LOG``
environment variable sets the log level (debug/info/warning/error); a failed
``sweep`` entry logs one warning line, and its traceback only at debug.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import json
import logging
import os
import re
import sys
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .finder import (CriterionInconclusive, OrbitReport, SearchRequest,
                     checked_boundary, checked_criterion, find_orbit, sweep)
from .geometry import reparametrize_constant_speed
from .lagrangian import gradient_field
from .render import render_aubry_diagram, render_orbit_figure
from .sequences import lift_text, load_lift, spatiotemporal_group

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_CRITERION = 3
EXIT_FLOW = 4


# ---------------------------------------------------------------------------
# configuration


def _numbers(text: str) -> list:
    """A comma- or space-separated list of numbers, each an int where it is one."""
    tokens = re.findall(r"[^,\s]+", text)
    if not tokens:
        raise ValueError("expected a list of numbers")
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            values.append(float(token))
    return values


class Key(NamedTuple):
    """One INI key, ``[section] key``: the type its value parses as, and the
    ``name`` it takes in its ``group`` ("billiard": the table descriptor,
    "request": a :class:`SearchRequest` field, "output" and "sweep": read by
    the commands).
    A command that reads the group needs a ``required`` key; ``flag`` is the
    command-line option that overrides the key."""

    section: str
    key: str
    type: Callable
    group: str
    name: str
    required: bool = False
    flag: str | None = None


#: every key a config may hold.  In [theorem], A is the branch of the
#: star-polygon reference, b the exponent of the reversing reflection and k
#: an override of the index shift the kind derives
KEYS = (
    Key("billiard", "family", str, "billiard", "family", required=True),
    Key("billiard", "n", int, "billiard", "n"),
    Key("billiard", "alpha", float, "billiard", "alpha"),
    Key("billiard", "a", float, "billiard", "a"),
    Key("billiard", "b", float, "billiard", "b"),
    Key("billiard", "radius", float, "billiard", "radius"),
    Key("theorem", "kind", str, "request", "kind"),
    Key("theorem", "n", int, "request", "n", required=True),
    Key("theorem", "m", int, "request", "m", required=True),
    Key("theorem", "N", int, "request", "N"),
    Key("theorem", "s", int, "request", "s", required=True),
    Key("theorem", "A", int, "request", "branch"),
    Key("theorem", "b", int, "request", "reflection"),
    Key("theorem", "k", int, "request", "shift"),
    Key("flow", "epsilon", float, "request", "epsilon", flag="--epsilon"),
    Key("output", "out", str, "output", "out", flag="--out"),
    Key("output", "prefix", str, "output", "prefix", flag="--prefix"),
    Key("sweep", "param", str, "sweep", "param", required=True),
    Key("sweep", "values", _numbers, "sweep", "values", required=True),
)


def _check_known(what: str, name: str, known) -> None:
    """ValueError naming an unknown ``name`` and the nearest known one."""
    if name not in known:
        [near] = difflib.get_close_matches(name, known, n=1, cutoff=0)
        raise ValueError(f"unknown config {what} {name}; did you mean {near}?")


def _read_config(args) -> dict:
    """The ``--config`` file (none for ``render`` without one) read through
    :data:`KEYS`, with each flag given laid over its key, as
    {group: {name: value}}."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",), default_section="")
    cp.optionxform = str          # keys are case-sensitive (N vs n, A vs a)
    if args.config is not None and not cp.read(args.config):
        raise ValueError(f"cannot read config file: {args.config}")
    rows = {f"[{row.section}] {row.key}": row for row in KEYS}
    config = {row.group: {} for row in KEYS}
    for section in cp.sections():
        _check_known("section", f"[{section}]", {f"[{row.section}]" for row in KEYS})
        for key, raw in cp.items(section):
            name = f"[{section}] {key}"
            _check_known("key", name, rows)
            row = rows[name]
            try:
                config[row.group][row.name] = row.type(raw)
            except ValueError as exc:
                raise ValueError(f"config value {name} = {raw!r}: {exc}") from None
    for row in KEYS:
        if row.flag and getattr(args, row.key, None) is not None:
            config[row.group][row.name] = getattr(args, row.key)
    return config


def _fields(config: dict, group: str) -> dict:
    """The values ``config`` holds for ``group``, by name, once it holds every
    required key of the group; otherwise ValueError names the missing key."""
    for row in KEYS:
        if row.group == group and row.required and row.name not in config[group]:
            raise ValueError(f"config needs the key [{row.section}] {row.key}")
    return config[group]


def _request(config: dict, args) -> SearchRequest:
    """The search the [billiard], [theorem] and [flow] keys ask for."""
    return SearchRequest(billiard=_fields(config, "billiard"),
                         **_fields(config, "request"),
                         force=getattr(args, "force", False))


def _write(config: dict, name: str, text: str) -> None:
    """Write ``text`` to ``<out>/<prefix>.<name>`` (out default ".", prefix
    default "orbit"), creating the directory, and print ``wrote <path>``."""
    output = config["output"]
    path = Path(output.get("out") or ".") / f"{output.get('prefix') or 'orbit'}.{name}"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def _table(config: dict, n: int):
    """The constant-speed [billiard] table, once it is strictly convex and
    has the order-n dihedral symmetry (:func:`~.finder.checked_boundary`)."""
    return reparametrize_constant_speed(checked_boundary(_fields(config, "billiard"), n))


def _print_json(config: dict, name: str, payload) -> None:
    """Print ``payload`` as JSON and, with an output directory set, write the
    same text to ``<out>/<prefix>.<name>.json``."""
    text = json.dumps(payload, indent=2) + "\n"
    print(text, end="")
    if config["output"].get("out"):
        _write(config, f"{name}.json", text)


# ---------------------------------------------------------------------------
# reporting helpers


def _flow_summary(flow) -> dict:
    return {
        "converged": flow.converged,
        "reason": flow.reason,
        "failure": flow.failure,
        "domain_violation": flow.domain_violation,
        "t_final": flow.t_final,
        "grad_norm": flow.grad_norm,
        "n_steps": flow.n_steps,
        "final_action": flow.final_action,
    }


def _group_payload(group) -> dict:
    """The classification of a lift, as JSON; each group element's name,
    isometry kind and time parity are read off its family."""
    elements = []
    for g in group.elements:
        kind, parity = g.kind.split("_")
        elements.append({"name": f"R^{g.exponent}" + ("S" if kind == "reflection" else ""),
                         "kind": kind, "exponent": g.exponent, "parity": parity,
                         "shift": g.shift, "offset": g.offset})
    return {"is_birkhoff": group.is_birkhoff, "minimal_period": group.minimal_period,
            "winding": group.winding, "type_label": group.type_label, "group_elements": elements}


def _print_group(group) -> None:
    names = (f"{e['name']}[{e['parity']}]" for e in _group_payload(group)["group_elements"])
    print(f"type label:  {group.type_label}")
    print(f"group:       {', '.join(names)}")


def _report_payload(rep: OrbitReport) -> dict:
    """The JSON of one find; the lift's (n, m) is the class its criterion read."""
    return {
        "outcome": rep.outcome,
        **_group_payload(rep.group),
        "crossings_vs_reference": rep.crossings_vs_reference,
        "action_gain": rep.action_gain,
        "residual": rep.residual,
        "anomalies": list(rep.anomalies),
        "start": rep.start,
        "epsilon": rep.epsilon,
        "corrector_iterations": rep.corrector_iterations,
        "corrector_ratio": rep.corrector_ratio,
        "criterion": asdict(rep.criterion),
        "flow": _flow_summary(rep.flow),
        "lift": {"p": rep.final_lift.p, "q": rep.final_lift.q,
                 "n": rep.criterion.n, "m": rep.criterion.m,
                 "coords": rep.final_lift.coords.tolist()},
    }


def _print_criterion(rep) -> None:
    print(f"kind:        {rep.kind}")
    print(f"class:       (n, m) = ({rep.n}, {rep.m}), N = {rep.N}, s = {rep.s} "
          f"-> (p, q) = ({rep.p}, {rep.q})")
    print(f"kappa:       {rep.kappa:.12g}")
    print(f"L:           {rep.chord:.12g}")
    print(f"lhs kappa*L: {rep.lhs:.12g}")
    print(f"rhs:         {rep.rhs:.12g}")
    print(f"margin:      {rep.margin:.12g}")
    print(f"prediction:  {rep.verdict}")


# ---------------------------------------------------------------------------
# commands


def cmd_check(args, config) -> int:
    _, _, rep = checked_criterion(_request(config, args))
    _print_criterion(rep)
    _print_json(config, "criterion", asdict(rep))
    return EXIT_OK if rep.verdict == "orbit_predicted" else EXIT_CRITERION


def cmd_find(args, config) -> int:
    rep = find_orbit(_request(config, args))
    lift, n, m = rep.final_lift, rep.criterion.n, rep.criterion.m
    if args.render:
        svg = render_orbit_figure(_table(config, n), lift, overlay=(n, m))
    print(f"outcome:     {rep.outcome}")
    print(f"lift:        (p, q) = ({lift.p}, {lift.q}), "
          f"minimal period {rep.minimal_period}, winding {rep.winding}")
    _print_group(rep.group)
    print(f"crossings:   {rep.crossings_vs_reference}")
    print(f"action gain: {rep.action_gain:.6g}")
    print(f"|F|_inf:     {rep.residual:.3e}")
    print(f"epsilon:     {rep.epsilon:.6g}")
    print(f"flow:        {rep.flow.reason} after {rep.flow.n_steps} steps, "
          f"t = {rep.flow.t_final:.6g}, |F|_inf = {rep.flow.grad_norm:.3e}")
    print("anomalies:   " + ("none" if not rep.anomalies else "; ".join(rep.anomalies)))
    _write(config, "orbit.txt", lift_text(lift, n, m))
    _write(config, "report.json", json.dumps(_report_payload(rep), indent=2) + "\n")
    if args.render:
        _write(config, "svg", svg)
    if rep.outcome == "non_converged":
        print("flow did not converge; artifacts retained for diagnosis",
              file=sys.stderr)
        return EXIT_FLOW
    return EXIT_OK


def cmd_classify(args, config) -> int:
    lift, n, m = load_lift(args.orbit)
    boundary = _table(config, n)
    residual = float(np.max(np.abs(gradient_field(boundary, lift))))
    group = spatiotemporal_group(lift, n)
    payload = {
        "orbit_file": str(args.orbit),
        "p": lift.p, "q": lift.q, "n": n, "m": m,
        **_group_payload(group),
        "borderline_residual": group.borderline_residual,
        "stationarity_residual": residual,
    }
    print(f"orbit:       (p, q) = ({lift.p}, {lift.q}) with (n, m) = ({n}, {m})")
    print(f"birkhoff:    {group.is_birkhoff}")
    print(f"min period:  {group.minimal_period} (winding {group.winding})")
    _print_group(group)
    print(f"|F|_inf:     {residual:.3e}")
    _print_json(config, "classify", payload)
    return EXIT_OK


def cmd_render(args, config) -> int:
    lift, n, m = load_lift(args.orbit)
    if args.mode == "orbit_figure":
        if args.config is None:
            raise ValueError("orbit_figure rendering needs --config for the boundary")
        svg = render_orbit_figure(_table(config, n), lift,
                                  overlay=(n, m) if args.overlay else None)
    else:
        svg = render_aubry_diagram(lift, translates=args.translates)
    _write(config, f"{args.mode}.svg", svg)
    return EXIT_OK


def cmd_sweep(args, config) -> int:
    batch = _fields(config, "sweep")
    base = _request(config, args)
    entries = sweep(base, batch["param"], batch["values"])

    rows = []
    print(f"{'value':>10}  {'margin':>12}  {'verdict':>15}  {'outcome':>22}  "
          f"{'start':>9}  detail")
    for e in entries:
        margin = f"{e.criterion.margin:+.6f}" if e.criterion else "-"
        verdict = e.criterion.verdict if e.criterion else "-"
        start = e.report.start if e.report else "-"
        if e.report is not None:
            outcome = e.report.outcome
            detail = (f"p={e.report.minimal_period} "
                      f"label={e.report.group.type_label} "
                      f"crossings={e.report.crossings_vs_reference}")
            if e.report.start == "continued":
                detail += (f" newton={e.report.corrector_iterations} "
                           f"ratio={e.report.corrector_ratio:.2g}")
            if e.report.anomalies:
                detail += f" anomalies={len(e.report.anomalies)}"
        else:
            outcome = "-"
            detail = e.error or ""
        print(f"{e.value!s:>10}  {margin:>12}  {verdict:>15}  {outcome:>22}  "
              f"{start:>9}  {detail}")
        rows.append({
            "value": e.value,
            "criterion": asdict(e.criterion) if e.criterion else None,
            "report": _report_payload(e.report) if e.report else None,
            "error": e.error,
        })
    _write(config, "sweep.json", json.dumps(rows, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiardflow",
        description="Find, verify, and draw symmetric periodic billiard "
                    "orbits in convex tables with dihedral symmetry.")
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(sp, section):
        for row in KEYS:
            if row.section == section and row.flag:
                sp.add_argument(row.flag, dest=row.key, type=row.type,
                                help=f"overrides [{section}] {row.key}")

    def common(sp, needs_config=True):
        sp.add_argument("--config", required=needs_config, metavar="PATH",
                        help="INI configuration file")
        flags(sp, "output")

    def flow_flags(sp):
        sp.add_argument("--force", action="store_true",
                        help="run the flow even when the criterion is inconclusive")
        flags(sp, "flow")

    sp = sub.add_parser("check", help="evaluate the closed-form existence criterion")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("find", help="run the full orbit search pipeline")
    common(sp)
    sp.add_argument("--render", action="store_true",
                    help="also write an SVG figure of the found orbit")
    flow_flags(sp)
    sp.set_defaults(func=cmd_find)

    sp = sub.add_parser("classify", help="classify an orbit file")
    sp.add_argument("orbit", help="orbit file written by find")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("render", help="draw an orbit file as SVG")
    sp.add_argument("orbit", help="orbit file written by find")
    common(sp, needs_config=False)
    sp.add_argument("--mode", choices=("orbit_figure", "aubry_diagram"),
                    default="orbit_figure", help="figure type (default orbit_figure)")
    sp.add_argument("--translates", type=int, default=0, metavar="N",
                    help="integer translates overlaid on the Aubry diagram")
    sp.add_argument("--overlay", action="store_true",
                    help="overlay the two symmetric Birkhoff branches")
    sp.set_defaults(func=cmd_render)

    sp = sub.add_parser("sweep", help="batch of searches over a parameter list")
    common(sp)
    flow_flags(sp)
    sp.set_defaults(func=cmd_sweep)
    return parser


def _setup_logging() -> None:
    name = os.environ.get("BILLIARD_LOG", "warning").strip().upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, _read_config(args))
    except CriterionInconclusive as exc:
        print(f"criterion: {exc}", file=sys.stderr)
        return EXIT_CRITERION
    except (ValueError, KeyError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RuntimeError as exc:
        print(f"flow failure: {exc}", file=sys.stderr)
        return EXIT_FLOW


if __name__ == "__main__":
    sys.exit(main())
