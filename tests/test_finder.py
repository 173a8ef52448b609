"""End-to-end orbit searches: postdiction checks, shift handling, sweeps."""

import logging
import time
import warnings

import numpy as np
import pytest

from billiardflow import (
    CriterionInconclusive,
    FlowOptions,
    SearchRequest,
    expand_constraints,
    find_orbit,
    search_class,
    sweep,
)
from billiardflow import finder
from oracles import increments, same_orbit

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
    assert rep.minimal_period == 12
    assert rep.winding == 3
    assert rep.crossings_vs_reference == 8
    assert rep.action_gain > 0
    assert rep.residual < 1e-10
    assert rep.anomalies == []
    assert rep.criterion.margin == pytest.approx(0.13025651232383795, rel=1e-9)


def test_flagship_group_is_the_full_dihedral_group(flagship_report):
    g = flagship_report.group
    assert g.exponents("rotation_preserving") == {0, 1, 2, 3}
    assert g.exponents("reflection_reversing") == {0, 1, 2, 3}
    assert g.exponents("rotation_reversing") == set()
    assert g.exponents("reflection_preserving") == set()
    assert g.type_label == "I"


def test_type_one_search():
    rep = find_orbit(SearchRequest(billiard=LIMACON2_15, n=2, m=1,
                                   kind="typeI", s=7))
    assert rep.outcome == "non_birkhoff_found"
    assert rep.minimal_period == 14
    assert rep.winding == 7
    assert rep.crossings_vs_reference == 4
    assert rep.group.type_label == "I"
    assert rep.anomalies == []
    assert rep.residual < 1e-8


def test_type_two_search():
    rep = find_orbit(SearchRequest(billiard=LIMACON2_19, n=2, m=1,
                                   kind="typeII", s=4))
    assert rep.outcome == "non_birkhoff_found"
    assert rep.minimal_period == 8
    assert rep.crossings_vs_reference == 2
    g = rep.group
    assert g.type_label == "II"
    assert g.exponents("rotation_preserving") == {0}
    assert g.exponents("rotation_reversing") == {1}
    assert g.exponents("reflection_preserving") == {1}
    assert g.exponents("reflection_reversing") == {0}
    assert rep.anomalies == []
    assert rep.residual < 1e-8


def test_type_five_search():
    rep = find_orbit(SearchRequest(billiard=LIMACON2_10, n=2, m=1,
                                   kind="typeV", s=5))
    assert rep.outcome == "non_birkhoff_found"
    assert rep.minimal_period == 10
    assert rep.crossings_vs_reference == 2
    g = rep.group
    assert g.type_label == "V"
    assert g.exponents("reflection_preserving") \
        == g.exponents("reflection_reversing") == {0}
    assert 0 in g.exponents("rotation_reversing")
    assert rep.anomalies == []
    assert rep.residual < 1e-8


def test_odd_order_dual_orbits_are_distinct():
    base = SearchRequest(billiard=LIMACON7, n=7, m=2, kind="main", N=1, s=2)
    first = find_orbit(base)
    second = find_orbit(SearchRequest(billiard=LIMACON7, n=7, m=2, kind="main",
                                      N=1, s=2, shift=10))
    for rep in (first, second):
        assert rep.outcome == "non_birkhoff_found"
        assert rep.minimal_period == 14
        assert rep.winding == 4
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


def test_step_capped_run_reports_non_converged():
    rep = find_orbit(SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main",
                                   N=4, s=3, options=FlowOptions(max_steps=5)))
    assert rep.outcome == "non_converged"
    assert rep.residual > 1e-4  # the basin gate must not polish this state


def test_epsilon_validation():
    with pytest.raises(ValueError, match="epsilon"):
        find_orbit(SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main",
                                 N=4, s=3, epsilon=0.2))
    with pytest.raises(ValueError, match="epsilon"):
        find_orbit(SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main",
                                 N=4, s=3, epsilon=0.0))


def test_epsilon_halving_is_logged(caplog):
    # at the flagship margin a nudge of 0.08 loses action; 0.04 gains it
    with caplog.at_level(logging.INFO, logger="billiardflow.finder"):
        find_orbit(SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main",
                                 N=4, s=3, epsilon=0.08,
                                 options=FlowOptions(max_steps=3)))
    halvings = [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("halving epsilon")]
    assert len(halvings) == 1
    assert halvings[0].startswith("halving epsilon 0.08 -> 0.04: action gap -")


def test_degenerate_mode_is_rejected():
    # s = 2, N = n gives K = 2
    with pytest.raises(ValueError, match="K >= 3"):
        search_class("main", 3, 1, N=3, s=2).start(0.01)
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


def test_sweep_records_success_failure_and_inconclusive():
    base = SearchRequest(billiard=LIMACON2_19, n=2, m=1, kind="typeII", s=4)
    entries = sweep(base, "alpha", [0.19, 0.25, 0.0], workers=2)
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


def test_sweep_serial_matches_parallel():
    base = SearchRequest(billiard=LIMACON2_19, n=2, m=1, kind="typeII", s=4)
    serial = sweep(base, "alpha", [0.15, 0.19], workers=1)
    parallel = sweep(base, "alpha", [0.15, 0.19], workers=2)
    for a, b in zip(serial, parallel):
        assert a.value == b.value
        assert a.error == b.error
        assert a.report.outcome == b.report.outcome
        assert np.allclose(a.report.final_lift.coords,
                           b.report.final_lift.coords, atol=1e-12)


def test_sweep_parameter_validation(monkeypatch):
    # both are rejected before any entry runs
    calls = []
    monkeypatch.setattr(finder, "find_orbit", calls.append)
    base = SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main", N=4, s=3)
    with pytest.raises(ValueError, match="sweep parameter"):
        sweep(base, "bogus", [1, 2])
    with pytest.raises(ValueError, match="'s' takes integers, got 3.5"):
        sweep(base, "s", [3, 3.5])
    assert calls == []


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown kind"):
        find_orbit(SearchRequest(billiard=LIMACON4, n=4, m=1, kind="spiral"))


def test_a_parallel_sweep_leaves_the_warning_filters_as_they_were(monkeypatch):
    # the Newton polish silences the Hessian's warning inside catch_warnings,
    # which saves and restores the process-wide filter list; two sweep threads
    # interleaving it would leave one thread's "ignore" filter behind.  A slow
    # Hessian keeps each polish inside that block long enough to overlap
    hessian = finder.hessian

    def slow_hessian(boundary, lift):
        time.sleep(0.02)
        return hessian(boundary, lift)

    monkeypatch.setattr(finder, "hessian", slow_hessian)
    base = SearchRequest(billiard=LIMACON4, n=4, m=1, kind="main", N=4, s=3)
    before = list(warnings.filters)
    entries = sweep(base, "alpha", [0.048, 0.05, 0.052, 0.055], workers=2)
    assert [e.error for e in entries] == [None] * 4
    assert warnings.filters == before
