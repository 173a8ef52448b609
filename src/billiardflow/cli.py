"""Command-line front end: check / find / classify / render / sweep.

Configuration comes from an INI file (section names and keys are
case-sensitive); every relevant command-line flag overrides its config key.
Exit codes: 0 success (and criterion holds for ``check``), 2 precondition or
input error, 3 criterion margin <= 0, 4 flow failure.  The ``BILLIARD_LOG``
environment variable sets the log level (debug/info/warning/error).

Example configuration::

    [billiard]
    family = limacon
    n = 4
    alpha = 0.05

    [theorem]
    kind = main
    n = 4
    m = 1
    A = 1
    N = 4
    b = 0
    s = 3

    [flow]
    epsilon = 0.01
    tol_stationary = 1e-10
    max_time = 1e6

    [output]
    out = runs
    prefix = limacon4
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import re
import sys
from pathlib import Path

import numpy as np

from .finder import (CriterionInconclusive, OrbitReport, SearchRequest,
                     find_orbit, sweep)
from .flow import FlowOptions
from .geometry import (check_equivariance, convexity_margin, make_boundary,
                       reparametrize_constant_speed)
from .lagrangian import gradient_field
from .render import RenderSpec, render_aubry_diagram, render_orbit_figure
from .sequences import (is_birkhoff, load_lift, minimal_period, save_lift,
                        spatiotemporal_group)
from .spectral import criterion, kappa_chord

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_CRITERION = 3
EXIT_FLOW = 4


# ---------------------------------------------------------------------------
# configuration


def _read_config(path: str | None) -> configparser.ConfigParser:
    if not path:
        raise ValueError("this command needs --config pointing to an INI file")
    cp = configparser.ConfigParser()
    cp.optionxform = str          # keys are case-sensitive (N vs n, A vs a)
    read = cp.read(path)
    if not read:
        raise ValueError(f"cannot read config file: {path}")
    return cp


def _billiard_descriptor(cp: configparser.ConfigParser) -> dict:
    if not cp.has_section("billiard"):
        raise ValueError("config needs a [billiard] section")
    sec = cp["billiard"]
    descriptor = {"family": sec.get("family", "").strip().lower()}
    for key, conv in (("n", int), ("alpha", float), ("a", float),
                      ("b", float), ("radius", float)):
        if key in sec:
            descriptor[key] = conv(sec[key])
    return descriptor


def _theorem_params(cp: configparser.ConfigParser) -> dict:
    if not cp.has_section("theorem"):
        raise ValueError("config needs a [theorem] section")
    sec = cp["theorem"]
    try:
        params = {
            "kind": sec.get("kind", "main").strip(),
            "n": int(sec["n"]),
            "m": int(sec["m"]),
            "s": int(sec["s"]),
        }
    except KeyError as exc:
        raise ValueError(f"[theorem] section is missing required key {exc}") from None
    params["branch"] = int(sec.get("A", 1))
    params["N"] = int(sec["N"]) if "N" in sec else None
    params["reflection"] = int(sec.get("b", 0))
    params["shift"] = int(sec["k"]) if "k" in sec else None
    return params


def _flow_options(cp: configparser.ConfigParser, args) -> FlowOptions:
    kwargs = {}
    if cp.has_section("flow"):
        sec = cp["flow"]
        mapping = {
            "tol_stationary": ("stationarity_tol", float),
            "max_time": ("max_time", float),
            "max_steps": ("max_steps", int),
            "guard_margin": ("guard_margin", float),
            "abs_tol": ("abs_tol", float),
            "rel_tol": ("rel_tol", float),
            "record_every": ("record_every", int),
        }
        for key, (name, conv) in mapping.items():
            if key in sec:
                kwargs[name] = conv(sec[key])
    if getattr(args, "tol_stationary", None) is not None:
        kwargs["stationarity_tol"] = args.tol_stationary
    if getattr(args, "max_time", None) is not None:
        kwargs["max_time"] = args.max_time
    return FlowOptions(**kwargs)


def _epsilon(cp: configparser.ConfigParser, args) -> float | None:
    if getattr(args, "epsilon", None) is not None:
        return args.epsilon
    if cp.has_section("flow") and "epsilon" in cp["flow"]:
        return float(cp["flow"]["epsilon"])
    return None


def _build_request(cp: configparser.ConfigParser, args) -> SearchRequest:
    th = _theorem_params(cp)
    return SearchRequest(
        billiard=_billiard_descriptor(cp),
        n=th["n"], m=th["m"], kind=th["kind"], s=th["s"],
        branch=th["branch"], N=th["N"], reflection=th["reflection"],
        shift=th["shift"], epsilon=_epsilon(cp, args),
        force=bool(getattr(args, "force", False)),
        options=_flow_options(cp, args),
    )


def _output_paths(cp: configparser.ConfigParser | None, args):
    out = getattr(args, "out", None)
    prefix = getattr(args, "prefix", None)
    if cp is not None and cp.has_section("output"):
        out = out or cp["output"].get("out")
        prefix = prefix or cp["output"].get("prefix")
    out_dir = Path(out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, (prefix or "orbit")


def _render_spec(cp: configparser.ConfigParser, mode: str) -> RenderSpec:
    kwargs = {"mode": mode}
    if cp is not None and cp.has_section("render"):
        sec = cp["render"]
        for key, conv in (("width", int), ("height", int), ("margin", float),
                          ("boundary_samples", int)):
            if key in sec:
                kwargs[key] = conv(sec[key])
    return RenderSpec(**kwargs)


# ---------------------------------------------------------------------------
# reporting helpers


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_jsonable(v) for v in obj]
    return obj


def _flow_summary(flow) -> dict:
    return {
        "converged": flow.converged,
        "reason": flow.reason,
        "failure": flow.failure,
        "domain_violation": flow.domain_violation,
        "t_final": flow.t_final,
        "grad_norm": flow.grad_norm,
        "n_steps": flow.n_steps,
        "samples": int(len(flow.times)),
        "final_action": float(flow.actions[-1]) if len(flow.actions) else None,
    }


def _report_payload(rep: OrbitReport, n: int, m: int) -> dict:
    group = rep.group
    return _jsonable({
        "outcome": rep.outcome,
        "is_birkhoff": rep.is_birkhoff,
        "minimal_period": rep.minimal_period,
        "winding": rep.winding,
        "type_label": group.type_label,
        "group_elements": [
            {"name": e.name, "kind": e.kind, "exponent": e.exponent,
             "parity": e.parity, "shift": e.shift, "offset": e.offset}
            for e in group.elements
        ],
        "crossings_vs_reference": rep.crossings_vs_reference,
        "action_gain": rep.action_gain,
        "residual": rep.residual,
        "anomalies": list(rep.anomalies),
        "epsilon": rep.epsilon,
        "criterion": rep.criterion.as_dict(),
        "flow": _flow_summary(rep.flow),
        "lift": {"p": rep.final_lift.p, "q": rep.final_lift.q, "n": n, "m": m,
                 "coords": rep.final_lift.coords.tolist()},
    })


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


def cmd_check(args) -> int:
    cp = _read_config(args.config)
    th = _theorem_params(cp)
    boundary = make_boundary(_billiard_descriptor(cp))
    cx = convexity_margin(boundary)
    if cx <= 0:
        raise ValueError(f"boundary is not strictly convex (min det = {cx:.3e})")
    if not check_equivariance(boundary, th["n"]):
        raise ValueError(f"boundary lacks the order-{th['n']} dihedral symmetry")
    kappa, chord = kappa_chord(boundary, th["n"], th["m"], th["branch"])
    rep = criterion(th["kind"], th["n"], th["m"], th["N"], th["s"], kappa, chord)
    _print_criterion(rep)
    print(json.dumps(rep.as_dict(), indent=2))
    if getattr(args, "out", None):
        out_dir, prefix = _output_paths(cp, args)
        path = out_dir / f"{prefix}.criterion.json"
        path.write_text(json.dumps(rep.as_dict(), indent=2) + "\n")
        print(f"wrote {path}")
    return EXIT_OK if rep.margin > 0 else EXIT_CRITERION


def cmd_find(args) -> int:
    cp = _read_config(args.config)
    req = _build_request(cp, args)
    out_dir, prefix = _output_paths(cp, args)
    rep = find_orbit(req)

    orbit_path = out_dir / f"{prefix}.orbit.txt"
    save_lift(orbit_path, rep.final_lift, req.n, req.m)
    report_path = out_dir / f"{prefix}.report.json"
    report_path.write_text(json.dumps(_report_payload(rep, req.n, req.m),
                                      indent=2) + "\n")
    written = [str(orbit_path), str(report_path)]
    if getattr(args, "render", False):
        boundary = reparametrize_constant_speed(make_boundary(req.billiard))
        svg = render_orbit_figure(boundary, rep.final_lift,
                                  _render_spec(cp, "orbit_figure"),
                                  overlay=(req.n, req.m))
        svg_path = out_dir / f"{prefix}.svg"
        svg_path.write_text(svg)
        written.append(str(svg_path))

    print(f"outcome:     {rep.outcome}")
    print(f"lift:        (p, q) = ({rep.final_lift.p}, {rep.final_lift.q}), "
          f"minimal period {rep.minimal_period}, winding {rep.winding}")
    print(f"type label:  {rep.group.type_label}")
    print(f"group:       {', '.join(f'{e.name}[{e.parity}]' for e in rep.group.elements)}")
    print(f"crossings:   {rep.crossings_vs_reference}")
    print(f"action gain: {rep.action_gain:.6g}")
    print(f"|F|_inf:     {rep.residual:.3e}")
    print(f"epsilon:     {rep.epsilon:.6g}")
    print(f"flow:        {rep.flow.reason} after {rep.flow.n_steps} steps, "
          f"t = {rep.flow.t_final:.6g}, |F|_inf = {rep.flow.grad_norm:.3e}")
    print("anomalies:   " + ("none" if not rep.anomalies else "; ".join(rep.anomalies)))
    for path in written:
        print(f"wrote {path}")
    if rep.outcome == "non_converged":
        print("flow did not converge; artifacts retained for diagnosis",
              file=sys.stderr)
        return EXIT_FLOW
    return EXIT_OK


def cmd_classify(args) -> int:
    lift, n, m = load_lift(args.orbit)
    cp = _read_config(args.config)
    boundary = make_boundary(_billiard_descriptor(cp))
    if not check_equivariance(boundary, n):
        raise ValueError(f"boundary lacks the order-{n} dihedral symmetry "
                         "named by the orbit file")
    boundary = reparametrize_constant_speed(boundary)
    residual = float(np.max(np.abs(gradient_field(boundary, lift))))
    group = spatiotemporal_group(lift, n)
    minimal = minimal_period(lift)
    winding = int(round(float(lift.value(minimal) - lift.coords[0])))
    payload = _jsonable({
        "orbit_file": str(args.orbit),
        "p": lift.p, "q": lift.q, "n": n, "m": m,
        "is_birkhoff": is_birkhoff(lift),
        "minimal_period": minimal,
        "winding": winding,
        "type_label": group.type_label,
        "group_elements": [
            {"name": e.name, "kind": e.kind, "exponent": e.exponent,
             "parity": e.parity, "shift": e.shift, "offset": e.offset}
            for e in group.elements
        ],
        "borderline_residual": group.borderline_residual,
        "stationarity_residual": residual,
    })
    print(f"orbit:       (p, q) = ({lift.p}, {lift.q}) with (n, m) = ({n}, {m})")
    print(f"birkhoff:    {payload['is_birkhoff']}")
    print(f"min period:  {minimal} (winding {winding})")
    print(f"type label:  {group.type_label}")
    print(f"group:       {', '.join(f'{e.name}[{e.parity}]' for e in group.elements)}")
    print(f"|F|_inf:     {residual:.3e}")
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_render(args) -> int:
    lift, n, m = load_lift(args.orbit)
    cp = _read_config(args.config) if args.config else None
    mode = args.mode
    if mode is None and cp is not None and cp.has_section("render"):
        mode = cp["render"].get("mode")
    mode = mode or "orbit_figure"
    if mode == "orbit_figure":
        if cp is None:
            raise ValueError("orbit_figure rendering needs --config for the boundary")
        boundary = reparametrize_constant_speed(make_boundary(_billiard_descriptor(cp)))
        svg = render_orbit_figure(boundary, lift, _render_spec(cp, mode),
                                  overlay=(n, m) if args.overlay else None)
    elif mode == "aubry_diagram":
        translates = args.translates
        if translates is None and cp is not None and cp.has_section("render"):
            translates = int(cp["render"].get("translates", 0))
        svg = render_aubry_diagram(lift, _render_spec(cp, mode) if cp else None,
                                   translates=translates or 0)
    else:
        raise ValueError(f"unknown render mode {mode!r}")
    out_dir, prefix = _output_paths(cp, args)
    path = out_dir / f"{prefix}.{mode}.svg"
    path.write_text(svg)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cp = _read_config(args.config)
    if not cp.has_section("sweep"):
        raise ValueError("config needs a [sweep] section with param and values")
    sec = cp["sweep"]
    param = sec.get("param", "").strip()
    raw = sec.get("values", "").strip()
    if not param or not raw:
        raise ValueError("[sweep] needs both 'param' and 'values'")
    tokens = [t for t in re.split(r"[,\s]+", raw) if t]
    values = []
    for t in tokens:
        try:
            values.append(int(t))
        except ValueError:
            values.append(float(t))
    workers = getattr(args, "workers", None)
    if workers is None and "workers" in sec:
        workers = int(sec["workers"])

    base = _build_request(cp, args)
    entries = sweep(base, param, values, workers=workers)

    rows = []
    print(f"{'value':>10}  {'margin':>12}  {'verdict':>15}  {'outcome':>22}  detail")
    for e in entries:
        margin = f"{e.criterion.margin:+.6f}" if e.criterion else "-"
        verdict = e.criterion.verdict if e.criterion else "-"
        if e.report is not None:
            outcome = e.report.outcome
            detail = (f"p={e.report.minimal_period} "
                      f"label={e.report.group.type_label} "
                      f"crossings={e.report.crossings_vs_reference}")
            if e.report.anomalies:
                detail += f" anomalies={len(e.report.anomalies)}"
        else:
            outcome = "-"
            detail = e.error or ""
        print(f"{e.value!s:>10}  {margin:>12}  {verdict:>15}  {outcome:>22}  {detail}")
        rows.append({
            "value": e.value,
            "criterion": e.criterion.as_dict() if e.criterion else None,
            "report": _report_payload(e.report, base.n, base.m)
            if e.report else None,
            "error": e.error,
        })
    out_dir, prefix = _output_paths(cp, args)
    path = out_dir / f"{prefix}.sweep.json"
    path.write_text(json.dumps(_jsonable(rows), indent=2) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billiardflow",
        description="Find, verify, and draw symmetric periodic billiard "
                    "orbits in convex tables with dihedral symmetry.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, needs_config=True):
        sp.add_argument("--config", required=needs_config, metavar="PATH",
                        help="INI configuration file")
        sp.add_argument("--out", metavar="DIR",
                        help="output directory (overrides [output] out)")
        sp.add_argument("--prefix", metavar="NAME",
                        help="artifact name prefix (overrides [output] prefix)")

    sp = sub.add_parser("check", help="evaluate the closed-form existence criterion")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("find", help="run the full orbit search pipeline")
    common(sp)
    sp.add_argument("--render", action="store_true",
                    help="also write an SVG figure of the found orbit")
    sp.add_argument("--force", action="store_true",
                    help="run the flow even when the margin is <= 0")
    sp.add_argument("--epsilon", type=float, help="perturbation amplitude")
    sp.add_argument("--tol-stationary", type=float, dest="tol_stationary",
                    help="stationarity tolerance on |F|_inf")
    sp.add_argument("--max-time", type=float, dest="max_time",
                    help="flow-time budget")
    sp.set_defaults(func=cmd_find)

    sp = sub.add_parser("classify", help="classify an orbit file")
    sp.add_argument("orbit", help="orbit file written by find")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("render", help="draw an orbit file as SVG")
    sp.add_argument("orbit", help="orbit file written by find")
    common(sp, needs_config=False)
    sp.add_argument("--mode", choices=("orbit_figure", "aubry_diagram"),
                    help="figure type (default orbit_figure)")
    sp.add_argument("--translates", type=int, metavar="N",
                    help="integer translates overlaid on the Aubry diagram")
    sp.add_argument("--overlay", action="store_true",
                    help="overlay the two symmetric Birkhoff branches")
    sp.set_defaults(func=cmd_render)

    sp = sub.add_parser("sweep", help="batch of searches over a parameter list")
    common(sp)
    sp.add_argument("--force", action="store_true",
                    help="run flows even when margins are <= 0")
    sp.add_argument("--workers", type=int,
                    help="thread count for parallel entries (default: auto)")
    sp.add_argument("--epsilon", type=float, help="perturbation amplitude")
    sp.add_argument("--tol-stationary", type=float, dest="tol_stationary",
                    help="stationarity tolerance on |F|_inf")
    sp.add_argument("--max-time", type=float, dest="max_time",
                    help="flow-time budget")
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
        return args.func(args)
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
