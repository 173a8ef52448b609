"""End-to-end orbit searches: postdiction checks, shift handling, sweeps."""

import logging
import math
import re
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from billiardflow import (
    CriterionInconclusive,
    SearchRequest,
    criterion,
    expand_constraints,
    find_orbit,
    gradient_field,
    hessian,
    kappa_chord,
    make_boundary,
    periodic_action,
    reparametrize_constant_speed,
    search_class,
    sweep,
)
from billiardflow import finder, flow, sequences, spectral
from billiardflow.sequences import intersection_index, minimal_period, spatiotemporal_group
from billiardflow.spectral import KINDS
from oracles import dense_basis, dp5_flow, increments, same_orbit

LIMACON4 = {"family": "limacon", "n": 4, "alpha": 0.05}
LIMACON2_10 = {"family": "limacon", "n": 2, "alpha": 0.10}
LIMACON2_15 = {"family": "limacon", "n": 2, "alpha": 0.15}
LIMACON2_19 = {"family": "limacon", "n": 2, "alpha": 0.19}
LIMACON7 = {"family": "limacon", "n": 7, "alpha": 0.015}
CIRCLE4 = {"family": "circle", "radius": 1.0, "n": 4}


@pytest.fixture(scope="module")
def flagship_report():
    return find_orbit(SearchRequest(billiard=LIMACON4, n=4, m=1,
                                    kind="main", N=4, s=3))


def test_flagship_finds_the_predicted_orbit(flagship_report):
    rep = flagship_report
    assert rep.outcome == "non_birkhoff_found"
    assert not rep.is_birkhoff
    assert rep.group.minimal_period == 12
    assert rep.group.winding == 3
    assert rep.crossings_vs_reference == 8
    assert rep.action_gain > 0
    assert rep.flow.grad_norm < 1e-10
    assert rep.anomalies == []
    assert rep.criterion.margin == pytest.approx(0.13025651232383795, rel=1e-9)


def test_flagship_group_is_the_full_dihedral_group(flagship_report):
    g = flagship_report.group
    assert g.exponents("rotation_preserving") == {0, 1, 2, 3}
    assert g.exponents("reflection_reversing") == {0, 1, 2, 3}
    assert g.exponents("rotation_reversing") == set()
    assert g.exponents("reflection_preserving") == set()
    assert g.type_label == "I"


def test_a_find_classifies_its_limit_once(monkeypatch):
    # one window per find, and one prefilter read of all four families: the
    # report's well-ordering, minimal period and winding are read off the
    # classification, not computed again
    windows, window = [], sequences._window
    monkeypatch.setattr(sequences, "_window",
                        lambda lift: windows.append(lift.p) or window(lift))
    reads, entries = [], sequences._entries
    monkeypatch.setattr(sequences, "_entries",
                        lambda *args: reads.append(np.unique(args[2]).tolist()) or entries(*args))
    rep = find_orbit(SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main", N=4, s=3))
    assert windows == [12]
    assert reads[0] == list(range(len(sequences.FAMILIES)))
    assert all(len(families) < len(sequences.FAMILIES) for families in reads[1:])
    assert rep.is_birkhoff is rep.group.is_birkhoff is False
    assert (rep.group.minimal_period, rep.group.winding) == (12, 3)


def test_a_sweep_builds_its_class_once(monkeypatch):
    finder._class_structures.cache_clear()
    built, expand = [], finder.expand_constraints
    monkeypatch.setattr(finder, "expand_constraints",
                        lambda *args: built.append(args[2:]) or expand(*args))
    base = SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main", N=4, s=3)
    entries = sweep(base, "alpha", [0.048, 0.05, 0.052])
    assert [e.report.outcome for e in entries] == ["non_birkhoff_found"] * 3
    assert built == [(12, 3)]
    # a second find of the class builds nothing
    find_orbit(replace(base, billiard=dict(LIMACON4, alpha=0.049)))
    assert built == [(12, 3)]
    system, expected = finder._class_structures(search_class("main", 4, 1, 4, 3))
    assert expected["rotation_preserving"] == {0, 1, 2, 3}
    for array in (system.base, system.column, system.weight, system.offset,
                  *system._hessian_entries):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_type_one_search():
    rep = find_orbit(SearchRequest(billiard=LIMACON2_15, n=2, m=1,
                                   kind="typeI", s=7))
    assert rep.outcome == "non_birkhoff_found"
    assert rep.group.minimal_period == 14
    assert rep.group.winding == 7
    assert rep.crossings_vs_reference == 4
    assert rep.group.type_label == "I"
    assert rep.anomalies == []
    assert rep.flow.grad_norm < 1e-8


def test_type_two_search():
    rep = find_orbit(SearchRequest(billiard=LIMACON2_19, n=2, m=1,
                                   kind="typeII", s=4))
    assert rep.outcome == "non_birkhoff_found"
    assert rep.group.minimal_period == 8
    assert rep.crossings_vs_reference == 2
    g = rep.group
    assert g.type_label == "II"
    assert g.exponents("rotation_preserving") == {0}
    assert g.exponents("rotation_reversing") == {1}
    assert g.exponents("reflection_preserving") == {1}
    assert g.exponents("reflection_reversing") == {0}
    assert rep.anomalies == []
    assert rep.flow.grad_norm < 1e-8


def test_type_five_search():
    rep = find_orbit(SearchRequest(billiard=LIMACON2_10, n=2, m=1,
                                   kind="typeV", s=5))
    assert rep.outcome == "non_birkhoff_found"
    assert rep.group.minimal_period == 10
    assert rep.crossings_vs_reference == 2
    g = rep.group
    assert g.type_label == "V"
    assert g.exponents("reflection_preserving") \
        == g.exponents("reflection_reversing") == {0}
    assert 0 in g.exponents("rotation_reversing")
    assert rep.anomalies == []
    assert rep.flow.grad_norm < 1e-8


def test_a_near_circular_table_finds_its_predicted_orbit():
    # a small perturbation of the circle has non-Birkhoff orbits (the paper's
    # corollary); the flow leaves the Birkhoff saddle so slowly that ||F||
    # rises for thousands of steps while the action rises at every one
    rep = find_orbit(SearchRequest(billiard={"family": "limacon", "n": 4, "alpha": 5e-4},
                                   n=4, m=1, kind="main", N=1, s=9))
    assert rep.criterion.verdict == "orbit_predicted"
    assert (rep.outcome, rep.flow.reason) == ("non_birkhoff_found", "stationary")
    assert rep.group.type_label == "III"
    assert rep.crossings_vs_reference == 2
    assert rep.anomalies == []
    assert rep.flow.grad_norm < 1e-12


def test_a_long_period_find_is_clean():
    # the paper's "arbitrarily long periods": a (1024, 256) orbit, whose
    # search runs in the 512-dimensional class in O(p) per iterate apart
    # from its solve; the step count follows the last bit of the gradient,
    # so it is not pinned
    table = {"family": "limacon", "n": 4, "alpha": 0.04}
    rep = find_orbit(SearchRequest(billiard=table, n=4, m=1, kind="main", N=1, s=256))
    assert (rep.outcome, rep.group.minimal_period, rep.crossings_vs_reference,
            rep.anomalies) == ("non_birkhoff_found", 1024, 2, [])
    cs = reparametrize_constant_speed(make_boundary(table))
    assert np.max(np.abs(gradient_field(cs, rep.final_lift))) < 1e-10


def test_odd_order_dual_orbits_are_distinct():
    base = SearchRequest(billiard=LIMACON7, n=7, m=2, kind="main", N=1, s=2)
    first = find_orbit(base)
    second = find_orbit(SearchRequest(billiard=LIMACON7, n=7, m=2, kind="main",
                                      N=1, s=2, shift=10))
    for rep in (first, second):
        assert rep.outcome == "non_birkhoff_found"
        assert rep.group.minimal_period == 14
        assert rep.group.winding == 4
        assert rep.crossings_vs_reference == 2
        assert rep.group.type_label == "III"
        assert rep.anomalies == []
    assert not same_orbit(first.final_lift, second.final_lift)


def test_circle_margin_gates_the_run():
    req = SearchRequest(billiard=CIRCLE4, n=4, m=1, kind="main", N=4, s=3)
    with pytest.raises(CriterionInconclusive) as exc:
        find_orbit(req)
    assert exc.value.report.margin < 0
    forced = find_orbit(SearchRequest(billiard=CIRCLE4, n=4, m=1, kind="main",
                                      N=4, s=3, force=True))
    assert forced.outcome == "collapsed_to_birkhoff"
    assert forced.is_birkhoff
    assert np.allclose(increments(forced.final_lift), 0.25, atol=1e-8)


def forced_flagship(margin):
    """The flagship class, forced, on the n = 4 limacon whose closed form
    kappa L = 2 sin(pi/4) (1 - 17 alpha) / (1 - alpha) puts the margin
    2 sin(pi/4) cos^2(pi/3) - kappa L at ``margin``."""
    r = 0.25 - margin / (2 * math.sin(math.pi / 4))
    return SearchRequest(billiard={"family": "limacon", "n": 4, "alpha": (1 - r) / (17 - r)},
                         n=4, m=1, kind="main", N=4, s=3, force=True)


def test_a_forced_run_keeps_its_postdictions():
    # below the root alpha* = 3/67 the +epsilon nudge still reaches a class
    # maximum until its branch folds near margin -1.33e-3; close to the fold
    # that maximum has less action than the reference, and the gain
    # postdiction fires on the forced run as it would on any other
    req = forced_flagship(-1.24e-3)
    rep = find_orbit(req)
    assert rep.criterion.verdict == "inconclusive"
    assert (rep.outcome, rep.group.type_label, rep.crossings_vs_reference) == \
        ("non_birkhoff_found", "I", 8)
    assert len(rep.anomalies) == 1
    assert re.fullmatch(r"action gain -\S+ is not positive", rep.anomalies[0])
    search = search_class("main", 4, 1, 4, 3)
    basis = dense_basis(expand_constraints(4, search.generators, search.p, search.q))
    h = hessian(reparametrize_constant_speed(make_boundary(req.billiard)), rep.final_lift)
    assert np.linalg.eigvalsh(basis.T @ h @ basis).max() < 0   # a genuine class maximum
    # past the fold the forced run collapses to the reference
    assert find_orbit(forced_flagship(-1.49e-3)).outcome == "collapsed_to_birkhoff"


def test_step_capped_run_reports_non_converged(monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 5)
    rep = find_orbit(SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main",
                                   N=4, s=3))
    assert rep.outcome == "non_converged"
    assert rep.flow.reason == "max_steps"
    assert rep.flow.grad_norm > 1e-4  # five steps from the nudge end far from the orbit


def test_epsilon_validation():
    with pytest.raises(ValueError, match="epsilon"):
        find_orbit(SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main",
                                 N=4, s=3, epsilon=0.2))
    with pytest.raises(ValueError, match="epsilon"):
        find_orbit(SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main",
                                 N=4, s=3, epsilon=0.0))


def test_epsilon_halving_is_logged(caplog, monkeypatch):
    # at the flagship margin a nudge of 0.08 loses action; 0.04 gains it
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    with caplog.at_level(logging.INFO, logger="billiardflow.finder"):
        find_orbit(SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main",
                                 N=4, s=3, epsilon=0.08))
    halvings = [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("halving epsilon")]
    assert len(halvings) == 1
    assert halvings[0].startswith("halving epsilon 0.08 -> 0.04: action gap -")


def test_degenerate_mode_is_rejected():
    # s = 2, N = n gives K = 2; the class keeps no failed mode, so every
    # access raises
    degenerate = search_class("main", 3, 1, N=3, s=2)
    for _ in range(2):
        with pytest.raises(ValueError, match="K >= 3"):
            degenerate.start(0.01)
    with pytest.raises(ValueError, match="unknown kind"):
        search_class("bogus", 4, 1, N=4, s=3)


def test_shift_override_validation():
    # one rule: an override keeps the residue of the kind's default
    with pytest.raises(ValueError, match=r"shift 2 does not match the typeII class "
                                         r"\(needs shift = 1 mod 2\)"):
        find_orbit(SearchRequest(billiard=LIMACON2_19, n=2, m=1,
                                 kind="typeII", s=4, shift=2))
    with pytest.raises(ValueError, match=r"shift 4 does not match the typeV class "
                                         r"\(needs shift = 1 mod 2\)"):
        find_orbit(SearchRequest(billiard=LIMACON2_10, n=2, m=1,
                                 kind="typeV", s=5, shift=4))
    with pytest.raises(ValueError, match=r"shift 4 does not match the main class "
                                         r"\(needs shift = 3 mod 4\)"):
        find_orbit(SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main",
                                 N=4, s=3, shift=4))


@pytest.mark.parametrize("kind,n,m,s,K,k", [
    ("main", 4, 1, 3, 3, 3),
    ("typeI", 2, 1, 7, 7, 1),
    ("typeII", 2, 1, 4, 1, 0),
    ("typeV", 2, 1, 5, 0, 5),
])
def test_seeded_modes_satisfy_their_class(kind, n, m, s, K, k):
    # main at N = n; the other kinds fix N
    search = search_class(kind, n, m, n if kind == "main" else None, s)
    assert (search.K, search.k) == (K, k)
    system = expand_constraints(n, search.generators, search.p, search.q)
    start = search.start(0.02)
    assert system.residual(start.coords) <= 1e-12


#: classes of every KINDS row, as (kind, n, m, N, s, branch)
BOUNDARY_CASES = [
    ("main", 4, 1, 4, 3, 1), ("main", 4, 1, 1, 5, 1), ("main", 4, 1, 2, 3, 1),
    ("main", 4, 1, 1, 48, 1), ("main", 5, 2, 1, 2, 1), ("main", 3, 1, 1, 4, 2),
    ("typeI", 2, 1, None, 7, 1), ("typeII", 2, 1, None, 4, 1),
    ("typeV", 2, 1, None, 5, 1),
]


def test_the_adjacent_birkhoff_configurations_leave_every_class():
    # X +- 1/(2n), the symmetric Birkhoff configurations beside the
    # reference X, break a reflection identity x_i + x_{k-i} = c by 1/n in
    # every class, while the flow keeps its state in the class to roundoff:
    # so no search can end on them, and find_orbit has no outcome for it
    assert {case[0] for case in BOUNDARY_CASES} == set(KINDS)
    for kind, n, m, N, s, branch in BOUNDARY_CASES:
        search = search_class(kind, n, m, N, s, branch)
        system = expand_constraints(n, search.generators, search.p, search.q)
        x = search.reference.coords
        assert system.residual(x) <= 1e-12
        for sign in (1, -1):
            assert system.residual(x + sign / (2 * n)) == pytest.approx(1 / n, rel=1e-9)


def test_the_search_validates_its_class_once_and_reads_the_same_criterion(monkeypatch):
    # checked_criterion reads the criterion of the class it validated; the
    # seven-argument criterion validates the default class again: same report
    built = []

    def counting(*args):
        built.append(args)
        return search_class(*args)

    monkeypatch.setattr(finder, "search_class", counting)
    monkeypatch.setattr(spectral, "search_class", counting)
    request = SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main", N=4, s=3,
                            branch=3, reflection=1, shift=6)
    boundary, search, report = finder.checked_criterion(request)
    assert len(built) == 1 and search.k == 6
    kappa, chord = kappa_chord(boundary, 4, 1, 3)
    assert report == criterion("main", 4, 1, 4, 3, kappa, chord)


def test_sweep_records_success_failure_and_inconclusive():
    base = SearchRequest(billiard=LIMACON2_19, n=2, m=1, kind="typeII", s=4)
    entries = sweep(base, "alpha", [0.19, 0.25, 0.0])
    by_value = {e.value: e for e in entries}

    good = by_value[0.19]
    assert good.error is None
    assert good.report.outcome == "non_birkhoff_found"
    assert good.criterion.margin > 0

    nonconvex = by_value[0.25]
    assert nonconvex.report is None
    assert "ValueError" in nonconvex.error
    assert "convex" in nonconvex.error

    circle_limit = by_value[0.0]
    assert circle_limit.report is None
    assert "inconclusive" in circle_limit.error
    assert circle_limit.criterion.margin <= 0


def test_sweep_records_a_bad_epsilon_on_its_entry():
    base = SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main", N=4, s=3)
    [entry] = sweep(base, "epsilon", [0.5])
    assert entry.report is None and entry.criterion is None
    assert entry.error == "ValueError: epsilon must lie in (0, 0.125), got 0.5"


def test_sweep_states_a_roundoff_margin():
    # kappa*L = rhs = 1/2 exactly for typeI s = 3 on the 2:1 ellipse; the
    # computed margin is +1 ulp, which is not a positive margin
    base = SearchRequest(billiard={"family": "ellipse", "a": 2.0, "b": 1.0},
                         n=2, m=1, kind="typeI", s=3)
    [entry] = sweep(base, "s", [3])
    assert entry.report is None
    assert entry.criterion.verdict == "inconclusive"
    assert entry.criterion.margin == 2.0 ** -52
    assert entry.error == ("inconclusive: margin = 2.22045e-16 is not positive "
                           "beyond roundoff")


@pytest.mark.parametrize("base, param, values", [
    (SearchRequest(billiard=LIMACON2_19, n=2, m=1, kind="typeII", s=4), "epsilon", [0.02, 0.01]),
    (SearchRequest(billiard=LIMACON2_15, n=2, m=1, kind="typeI", s=7), "s", [7, 5]),
], ids=["epsilon", "s"])
def test_a_sweep_runs_its_entries_in_order_on_the_calling_thread(monkeypatch, base, param,
                                                                 values):
    calls = []
    find = finder.find_orbit

    def spy(request, *, warm=None):
        calls.append((threading.get_ident(), getattr(request, param), warm))
        return find(request, warm=warm)

    monkeypatch.setattr(finder, "find_orbit", spy)
    entries = sweep(base, param, values)
    # only an alpha sweep continues from the entries before
    assert calls == [(threading.get_ident(), v, None) for v in values]
    for entry, v in zip(entries, values):
        alone = find(replace(base, **{param: v}))
        assert np.array_equal(entry.report.final_lift.coords, alone.final_lift.coords)


def test_a_sweep_over_a_generator_gives_the_entries_of_a_list():
    # sweep reads its values once, so a generator is not used up by the
    # validation before the entries run
    values = [0.05, 0.052]
    listed = sweep(FLAGSHIP, "alpha", values)
    generated = sweep(FLAGSHIP, "alpha", (v for v in values))
    assert [e.value for e in generated] == [e.value for e in listed] == values
    for a, b in zip(listed, generated):
        assert (a.error, a.report.outcome, a.report.start) == \
            (b.error, b.report.outcome, b.report.start)
        assert np.array_equal(a.report.final_lift.coords, b.report.final_lift.coords)


def test_sweep_parameter_validation(monkeypatch):
    # all are rejected before any entry runs
    calls = []
    monkeypatch.setattr(finder, "find_orbit", calls.append)
    base = SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main", N=4, s=3)
    with pytest.raises(ValueError, match="sweep parameter"):
        sweep(base, "bogus", [1, 2])
    with pytest.raises(ValueError, match="'s' takes integers, got 3.5"):
        sweep(base, "s", [3, 3.5])
    # an ellipse reads only a and b: every entry would repeat one find
    ellipse = SearchRequest(billiard={"family": "ellipse", "a": 1.3, "b": 1.0},
                            n=2, m=1, kind="typeI", s=3)
    with pytest.raises(ValueError, match="ellipse table does not read the key 'alpha'"):
        sweep(ellipse, "alpha", [0.01, 0.2, 0.5])
    assert calls == []


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown kind"):
        find_orbit(SearchRequest(billiard=LIMACON4, n=4, m=1, kind="spiral"))


FLAGSHIP = SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main", N=4, s=3)


#: the five classes of the benchmark's find_small workload, each on a table
#: of its alpha band
FIND_SMALL = [
    FLAGSHIP,
    SearchRequest(billiard=LIMACON2_15, n=2, m=1, kind="typeI", s=7),
    SearchRequest(billiard=LIMACON2_19, n=2, m=1, kind="typeII", s=4),
    SearchRequest(billiard=LIMACON2_10, n=2, m=1, kind="typeV", s=5),
    SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main", N=1, s=5),
]


@pytest.mark.parametrize("request_", FIND_SMALL, ids=lambda r: f"{r.kind}-s{r.s}")
def test_the_gap_reads_the_action_of_the_nudged_start_bit_for_bit(request_, monkeypatch):
    # the nudged start is evaluated once, by the order-2 kernel the search
    # then starts from, and the action gap reads that kernel's W: equal bit
    # for bit to periodic_action at the start, and the start is the class's
    # nudge of the reported epsilon
    evaluate, seen = finder._evaluate, []

    def spied(table, lift):
        seen.append((table, lift, evaluate(table, lift)))
        return seen[-1][2]

    monkeypatch.setattr(finder, "_evaluate", spied)
    rep = find_orbit(request_)
    assert (rep.outcome, rep.start) == ("non_birkhoff_found", "nudged")
    assert seen
    for table, lift, (_, action, _) in seen:
        assert action == periodic_action(table, lift)
    search = finder.checked_criterion(request_)[1]
    assert np.array_equal(seen[-1][1].coords, search.start(rep.epsilon).coords)


def test_threads_running_find_orbit_leave_the_warning_filters_as_they_were(monkeypatch):
    # find_orbit must not touch the process-wide warning filters: a save and
    # restore interleaved across threads would leave one thread's filter
    # behind.  A slow kernel keeps each search long enough to overlap, and
    # each thread runs every epsilon, in its own order, so that some do
    kernel = flow._gradient_coords

    def slow_kernel(*args):
        time.sleep(0.002)
        return kernel(*args)

    monkeypatch.setattr(flow, "_gradient_coords", slow_kernel)
    before = list(warnings.filters)
    epsilons = [0.01, 0.008, 0.006, 0.005]
    outcomes = []

    def run(first):
        for eps in epsilons[first:] + epsilons[:first]:
            outcomes.append(find_orbit(replace(FLAGSHIP, epsilon=eps)).outcome)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert outcomes == ["non_birkhoff_found"] * 16
    assert warnings.filters == before


def recorded_sweep(monkeypatch, base, values):
    """The entries of an alpha sweep, and per entry whether find_orbit got a
    warm lift."""
    warmed = []
    find = finder.find_orbit

    def recording(request, *, warm=None):
        warmed.append(warm is not None)
        return find(request, warm=warm)

    monkeypatch.setattr(finder, "find_orbit", recording)
    return sweep(base, "alpha", values), warmed


def predictions(caplog):
    """Per continuation attempt, the predictions rejected and the one
    accepted, read from the corrector's log lines."""
    tried, out = [], []
    for record in caplog.records:
        message = record.getMessage()
        if message.startswith("continuation rejected the "):
            tried.append(message.split()[3] + " rejected")
        elif message.startswith("continued from the warm lift ("):
            out.append([*tried, message.split("(")[1].split()[0]])
            tried = []
    return out + ([tried] if tried else [])


def assert_independent(base, entries):
    """Every entry reports what an independent find of its request reports:
    the same orbit, outcome, label, crossings, minimal period and anomalies,
    or the same error."""
    for entry in entries:
        request = replace(base, billiard=dict(base.billiard, alpha=float(entry.value)))
        if entry.report is None:
            with pytest.raises((ValueError, CriterionInconclusive)):
                find_orbit(request)
            continue
        rep, alone = entry.report, find_orbit(request)
        assert same_orbit(rep.final_lift, alone.final_lift), entry.value
        assert (rep.outcome, rep.group.type_label, rep.crossings_vs_reference,
                rep.group.minimal_period, rep.anomalies) == \
            (alone.outcome, alone.group.type_label, alone.crossings_vs_reference,
             alone.group.minimal_period, alone.anomalies), entry.value


def starts(entries):
    return [e.report.start if e.report else None for e in entries]


@pytest.mark.parametrize("values, expected", [
    ([0.045764 + 0.00325 * i for i in range(4)], [["scaled"]] * 3),
    # from 0.046 the unscaled lift reached a different type-I orbit at 0.052
    # (action gain 0.0125 against 0.0222) with the predicted crossings and no
    # anomaly: only the independent find tells them apart
    ([0.046, 0.052, 0.058], [["scaled"], ["scaled"]]),
    # closest to alpha* the scaled lift fails the monotonicity test and the
    # previous one passes
    ([0.0455, 0.0452, 0.045, 0.0449],
     [["scaled"], ["scaled"], ["scaled rejected", "previous"]]),
], ids=["ascending", "across", "descending"])
def test_a_sweep_near_the_threshold_continues_from_the_scaled_lift(values, expected,
                                                                    monkeypatch, caplog):
    # the orbit branches off the Birkhoff orbit at alpha* = 0.0448: from the
    # previous lift alone, Newton's first step overshoots or lands on another
    # orbit, so each entry starts from that lift scaled about the reference by
    # sqrt(margin ratio)
    caplog.set_level("INFO", logger="billiardflow.finder")
    entries, warmed = recorded_sweep(monkeypatch, FLAGSHIP, values)
    assert warmed == [False] + [True] * (len(values) - 1)
    assert starts(entries) == ["nudged"] + ["continued"] * (len(values) - 1)
    assert predictions(caplog) == expected
    assert entries[0].report.epsilon == 0.01
    assert entries[0].report.corrector_ratio is None
    for entry in entries[1:]:
        continued = entry.report
        # the corrector's Newton run is the entry's search: no pseudo-time
        assert continued.epsilon is None and continued.flow.t_final == 0.0
        assert continued.flow.reason == "stationary"
        assert continued.flow.n_steps > 0
        assert 0 < continued.corrector_ratio < flow.THETA_MAX
    assert_independent(FLAGSHIP, entries)


def test_a_rejected_prediction_falls_back_to_the_previous_lift(monkeypatch, caplog):
    # far above its threshold the main N=1 s=5 orbit does not scale like the
    # square root of the margin: Newton's first step from the first scaled
    # lift lowers the action, which ends its run, and the previous lift,
    # tried next, is accepted
    caplog.set_level("INFO", logger="billiardflow.finder")
    base = replace(FLAGSHIP, N=1, s=5)
    entries, _ = recorded_sweep(monkeypatch, base, [0.01, 0.026, 0.042, 0.058])
    assert starts(entries) == ["nudged", "continued", "continued", "continued"]
    assert predictions(caplog) == [["scaled rejected", "previous"], ["scaled"], ["scaled"]]
    assert "scaled prediction: action_decrease after 0 steps" in caplog.text
    assert_independent(base, entries)
    # a prediction that leaves the guard is rejected before Newton runs: a
    # margin ratio of 1e12 scales the flagship orbit by 1e6 about the reference
    caplog.clear()
    first = find_orbit(FLAGSHIP)
    again = find_orbit(FLAGSHIP, warm=(first.criterion.margin * 1e-12, first.final_lift))
    assert predictions(caplog) == [["scaled rejected", "previous"]]
    assert "continuation rejected the scaled prediction: the guess is not admissible" \
        in caplog.text
    assert again.start == "continued" and again.flow.n_steps == 0
    assert np.array_equal(again.final_lift.coords, first.final_lift.coords)


def test_a_failed_entry_breaks_the_continuation_chain(monkeypatch):
    # 0.2 is not convex and 0.0 is inconclusive: the entry after each starts
    # from the nudge without a warm lift
    values = [0.05, 0.2, 0.052, 0.054, 0.0, 0.056]
    entries, warmed = recorded_sweep(monkeypatch, FLAGSHIP, values)
    assert warmed == [False, True, False, True, True, False]
    assert starts(entries) == ["nudged", None, "nudged", "continued", None, "nudged"]
    assert "convex" in entries[1].error and "inconclusive" in entries[4].error
    assert_independent(FLAGSHIP, entries)


def test_each_failed_postdiction_is_one_anomaly(monkeypatch):
    # a classification without R^2 and with a preserving reflection, a period
    # of 6 and a crossing count of 10 on the flagship find: each disagreement
    # with the class is named once, with what was read and what was predicted
    classify = finder.spatiotemporal_group

    def wrong_group(lift, n):
        group = classify(lift, n)
        elements = [g for g in group.elements
                    if (g.kind, g.exponent) != ("rotation_preserving", 2)]
        elements.append(sequences.SymmetryGenerator("reflection_preserving", 1, 0, 0))
        return replace(group, elements=elements, minimal_period=6)

    monkeypatch.setattr(finder, "spatiotemporal_group", wrong_group)
    monkeypatch.setattr(finder, "intersection_index", lambda final, reference: 10)
    rep = find_orbit(FLAGSHIP)
    assert (rep.outcome, rep.group.type_label) == ("non_birkhoff_found", "I")
    assert rep.anomalies == [
        "minimal period 6 != predicted 12",
        "crossing count 10 != predicted 8",
        "preserving rotation exponents [0, 1, 3] != expected [0, 1, 2, 3]",
        "preserving reflection exponents [1] != expected []",
    ]


def test_no_entry_continues_from_an_anomalous_one(monkeypatch):
    # the second entry's crossing count is off: the third gets no warm lift,
    # and the fourth continues from the third
    crossings = finder.intersection_index
    calls = []

    def one_wrong_count(final, reference):
        calls.append(1)
        return "tangent" if len(calls) == 2 else crossings(final, reference)

    monkeypatch.setattr(finder, "intersection_index", one_wrong_count)
    entries, warmed = recorded_sweep(monkeypatch, FLAGSHIP, [0.05, 0.052, 0.054, 0.056])
    assert [e.report.anomalies for e in entries] == \
        [[], ["crossing count tangent != predicted 8"], [], []]
    assert warmed == [False, True, False, True]
    assert starts(entries) == ["nudged", "continued", "nudged", "continued"]


def test_a_forced_entry_without_a_predicted_orbit_does_not_continue(monkeypatch):
    # 0.044 lies below alpha*: the forced flow collapses to the Birkhoff
    # orbit, and that entry breaks the chain
    base = replace(FLAGSHIP, force=True)
    entries, warmed = recorded_sweep(monkeypatch, base, [0.05, 0.044, 0.05])
    assert warmed == [False, True, False]
    assert starts(entries) == ["nudged"] * 3
    assert entries[1].report.outcome == "collapsed_to_birkhoff"
    assert_independent(base, entries)


def test_unsorted_and_repeated_alphas_continue_in_the_given_order(monkeypatch, caplog):
    caplog.set_level("INFO", logger="billiardflow.finder")
    values = [0.052, 0.05, 0.05, 0.054, 0.052]
    entries, warmed = recorded_sweep(monkeypatch, FLAGSHIP, values)
    assert [e.value for e in entries] == values
    assert warmed == [False, True, True, True, True]
    assert starts(entries) == ["nudged"] + ["continued"] * 4
    assert predictions(caplog) == [["scaled"]] * 4
    # a repeated value scales by sqrt(1) - 1 = 0: it starts at the orbit of
    # the entry before it, bit for bit
    repeat = entries[2].report
    assert repeat.start == "continued" and repeat.flow.n_steps == 0
    assert np.array_equal(repeat.final_lift.coords, entries[1].report.final_lift.coords)
    assert_independent(FLAGSHIP, entries)


def test_the_corrector_rejects_a_saddle():
    # the Birkhoff reference is stationary but gains action along the class
    # mode, so the reduced Hessian there has a positive eigenvalue
    search = search_class("main", 4, 1, 4, 3)
    system = expand_constraints(4, search.generators, search.p, search.q)
    table = reparametrize_constant_speed(make_boundary(LIMACON4))
    run, ratio, why = flow.newton(table, search.reference, system, search.reference)
    assert run.converged and ratio == 0.0
    assert "eigenvalue" in why


def test_the_search_factors_once_per_trial_step(monkeypatch):
    # each trial step is one LDL^T factorization, one solve with it and,
    # inside the guard, one kernel call after the start's; Newton's run as
    # the corrector solves once more with its first factorization, for its
    # first-step ratio, and factors once more at the limit, for its inertia
    factor, solve, kernel = flow._factor, flow._solve, flow._gradient_coords
    factors, solves, calls = [], [], []
    monkeypatch.setattr(flow, "_factor", lambda *args: factors.append(1) or factor(*args))
    monkeypatch.setattr(flow, "_solve", lambda *args: solves.append(1) or solve(*args))
    monkeypatch.setattr(flow, "_gradient_coords",
                        lambda *args: calls.append(1) or kernel(*args))
    first = find_orbit(FLAGSHIP)
    assert len(factors) == len(solves) == len(calls) - 1 == first.flow.n_steps == 10
    for spied in (factors, solves, calls):
        spied.clear()
    nearby = replace(FLAGSHIP, billiard=dict(LIMACON4, alpha=0.052))
    continued = find_orbit(nearby, warm=(first.criterion.margin, first.final_lift))
    assert continued.start == "continued" and continued.flow.n_steps > 0
    assert len(factors) == len(solves) == len(calls) == continued.flow.n_steps + 1


def test_the_search_calls_no_dense_solver(monkeypatch):
    # the step, the corrector's ratio and its definiteness test all come from
    # the tridiagonal factorization: the flagship find, README's sweep (whose
    # continued entries run the corrector) and a search in the class of
    # every lift run with np.linalg.solve and eigvalsh out of reach
    def refuse(*args, **kwargs):
        raise AssertionError("a dense solver was called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert find_orbit(FLAGSHIP).outcome == "non_birkhoff_found"
    entries = sweep(FLAGSHIP, "alpha", [0.048, 0.0515, 0.055])
    assert [e.report.start for e in entries] == ["nudged", "continued", "continued"]
    table = reparametrize_constant_speed(make_boundary(LIMACON4))
    search = search_class("main", 4, 1, 4, 3)
    run = flow.integrate(table, search.start(0.01), expand_constraints(4, (), 12, 3),
                         search.reference)
    assert run.converged and run.n_steps > 0


#: the five tier-1 classes, each on the limacon of its table symmetry n at
#: 1/3 and 2/3 of an alpha band where its criterion predicts an orbit
ORACLE_CLASSES = [
    ("main(12,3)", dict(n=4, m=1, kind="main", N=4, s=3), (0.046, 0.058)),
    ("typeI-s7", dict(n=2, m=1, kind="typeI", s=7), (0.09, 0.195)),
    ("typeII-s4", dict(n=2, m=1, kind="typeII", s=4), (0.12, 0.195)),
    ("typeV-s5", dict(n=2, m=1, kind="typeV", s=5), (0.04, 0.195)),
    ("main-N1-s5", dict(n=4, m=1, kind="main", N=1, s=5), (0.01, 0.058)),
]


@pytest.mark.parametrize("fields, alpha", [
    pytest.param(fields, alpha, id=f"{name}-{alpha:.4g}")
    for name, fields, (lo, hi) in ORACLE_CLASSES
    for alpha in (lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3)])
def test_the_search_ends_on_the_limit_of_the_oracle_flow(fields, alpha):
    # the gradient flow integrated by the Dormand-Prince oracle from the same
    # nudged start reaches the orbit the search reports: the same label,
    # crossings and minimal period, and the same representative (typeII s = 4
    # has two at alpha = 0.17, 0.43 apart), to the oracle's accuracy
    request = SearchRequest(billiard={"family": "limacon", "n": fields["n"],
                                      "alpha": alpha}, **fields)
    rep = find_orbit(request)
    search = search_class(request.kind, request.n, request.m, request.N, request.s)
    system = expand_constraints(search.n, search.generators, search.p, search.q)
    table = reparametrize_constant_speed(make_boundary(request.billiard))
    rec = dp5_flow(table, search.start(rep.epsilon), system=system)
    assert rec.converged and rep.outcome == "non_birkhoff_found"
    limit = rep.final_lift.with_coords(rec.lifts[-1])
    assert (spatiotemporal_group(limit, search.n).type_label,
            intersection_index(limit, search.reference), minimal_period(limit)) == \
        (rep.group.type_label, rep.crossings_vs_reference, rep.group.minimal_period)
    assert np.max(np.abs(limit.coords - rep.final_lift.coords)) < 1e-10
    assert same_orbit(limit, rep.final_lift)
