"""The gate's one runner, and every criterion's checks against NaN.

A criterion yields failure messages; one runner times it, fails it past its
runtime limit and previews its failures. Each check is written as the
condition that must hold, so a NaN in any compared value turns its criterion
to FAIL.
"""

import dataclasses
import itertools
import math

import pytest

from cutchoose import acceptance


def _replaced(**fields):
    """A wrapper that returns the real report with ``fields`` replaced."""
    return lambda real: lambda *a, **k: dataclasses.replace(real(*a, **k), **fields)


def _nan_field(name):
    """A wrapper that returns the real report with ``name`` set to NaN."""
    return _replaced(**{name: math.nan})


def _times_nan(real):
    return lambda *a, **k: real(*a, **k) * math.nan


def _rows_nan(real):
    """A wrapper that returns the real table with every row times NaN."""
    def table(*a, **k):
        got = real(*a, **k)
        return dataclasses.replace(got, rows=tuple(row * math.nan for row in got.rows))
    return table


def _nan_maxima(real):
    def scan(*a, **k):
        args, maxima = real(*a, **k)
        return args, maxima * math.nan
    return scan


def _nan_lhs(real):
    return lambda *a: (math.nan, real(*a)[1])


# (criterion, owner of the patched name, name, wrapper of the real function,
#  first failure's prefix)
NAN_CASES = {
    "stand-alone/eps_h": ("criterion_stand_alone_tradeoff", acceptance, "run_tradeoff_check",
                          _nan_field("eps_h"), "N=1: eps_h=nan not 0"),
    "stand-alone/eps_d": ("criterion_stand_alone_tradeoff", acceptance, "run_tradeoff_check",
                          _nan_field("eps_d"), "N=1: eps_d=nan != "),
    "composable/eps_h": ("criterion_composable_tradeoff", acceptance, "run_tradeoff_check",
                         _nan_field("eps_h"), "N=1: eps_h=nan not 0"),
    "composable/eps_d": ("criterion_composable_tradeoff", acceptance, "run_tradeoff_check",
                         _nan_field("eps_d"), "N=1: eps_d=nan != "),
    "general-test/eps_d": ("criterion_general_test_bounds", acceptance, "general_tradeoff_check",
                           _nan_field("eps_d"), "N=1: stand-alone sum nan below 1/(7N^2)"),
    "identities/trace_norm": ("criterion_closed_form_identities", acceptance, "trace_norm",
                              _times_nan, "trace-distance trial 0: "),
    "identities/block-fidelity": ("criterion_closed_form_identities", acceptance, "fidelity_psd",
                                  _times_nan, "block fidelity trial 0: "),
    "identities/max_p": ("criterion_closed_form_identities", acceptance, "scan_unit_interval",
                         _nan_maxima, "max_p trial 0: "),
    "identities/numerical-range": ("criterion_closed_form_identities", acceptance,
                                   "numerical_range_min_overlap", _times_nan,
                                   "numerical-range trial 0: "),
    "gap/overall": ("criterion_gap_bound_random_networks", acceptance, "general_tradeoff_check",
                    _nan_field("p_d"), "seed 0: gap nan > bound "),
    "diamond/closed-form": ("criterion_diamond_distance", acceptance, "diamond_distance_unitaries",
                            _times_nan, "alpha=0.0000: closed form nan vs 0.0"),
    "diamond/search": ("criterion_diamond_distance", acceptance, "diamond_distance_pure_search",
                       _times_nan, "alpha=0.0000: search nan vs 0.0"),
    "concavity/lhs": ("criterion_jensen_step", acceptance, "_concavity_sums", _nan_lhs,
                      "trial 0, c=0.5: lhs nan > rhs "),
    "monte-carlo/exact": ("criterion_monte_carlo", acceptance, "overall_acceptance", _times_nan,
                          "config 0: |1.0 - nan| > nan"),
    "cross-engine/via-combs": ("criterion_cross_engine_consistency", acceptance,
                               "round_outcome_table_via_combs", _rows_nan,
                               "config 0: p(n=2, ell=1) |1.0 - nan| > 1e-10"),
}


@pytest.mark.parametrize("case", NAN_CASES.values(), ids=NAN_CASES.keys())
def test_a_nan_compared_value_fails_its_criterion(monkeypatch, case):
    criterion, owner, name, wrap, first = case
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    result = getattr(acceptance, criterion)()
    assert not result.passed
    assert result.detail.startswith(first), result.detail


@pytest.mark.parametrize("criterion", ["criterion_stand_alone_tradeoff",
                                       "criterion_composable_tradeoff"])
def test_an_unsatisfied_report_fails_its_sweep(monkeypatch, criterion):
    wrap = _replaced(satisfied=False)
    monkeypatch.setattr(acceptance, "run_tradeoff_check", wrap(acceptance.run_tradeoff_check))
    result = getattr(acceptance, criterion)()
    assert not result.passed
    assert result.detail == ("N=1: report not satisfied; N=2: report not satisfied; "
                             "N=5: report not satisfied (+3 more)")


def test_a_rerun_that_differs_fails_the_monte_carlo_criterion(monkeypatch):
    real, calls = acceptance.monte_carlo_run, itertools.count()

    def rerun_one_ulp_up(*a, **k):
        results = real(*a, **k)
        if next(calls) % 2:  # each config's second call, with its seed
            results = tuple(math.nextafter(r, 2.0) for r in results)
        return results

    monkeypatch.setattr(acceptance, "monte_carlo_run", rerun_one_ulp_up)
    result = acceptance.criterion_monte_carlo()
    assert not result.passed
    assert result.detail == ("config 0: two runs with one seed differ; "
                             "config 1: two runs with one seed differ; "
                             "config 2: two runs with one seed differ (+7 more)")


def test_the_engines_are_compared_cell_by_cell(monkeypatch):
    # a comb view that reverses its row for every n below the support's
    # largest keeps every average of the uniform output rule, which all ten
    # configs use; only the cells show it (config 6: mix {1, 3}, n = 1)
    real = acceptance.round_outcome_table_via_combs

    def reversed_rows(spec, strategy):
        table = real(spec, strategy)
        top = spec.omega.support[-1][0]
        rows = tuple(row if n == top else row[::-1]
                     for (n, _), row in zip(spec.omega.support, table.rows))
        return dataclasses.replace(table, rows=rows)

    for spec, strategy in acceptance._mc_configs():
        assert abs(reversed_rows(spec, strategy).acceptance
                   - real(spec, strategy).acceptance) <= 1e-15
    monkeypatch.setattr(acceptance, "round_outcome_table_via_combs", reversed_rows)
    result = acceptance.criterion_cross_engine_consistency()
    assert not result.passed
    assert result.detail.startswith("config 6: p(n=1, ell=1) "), result.detail


@pytest.mark.parametrize("criterion, limit", [
    ("criterion_stand_alone_tradeoff", "1s"),
    ("criterion_general_test_bounds", "10s"),
    ("criterion_gap_bound_random_networks", "30s"),
])
def test_a_criterion_past_its_runtime_limit_fails(monkeypatch, criterion, limit):
    # every clock read is 50 s after the last: one measurement of 50 s
    clock = itertools.count(0.0, 50.0)
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(clock))
    result = getattr(acceptance, criterion)()
    assert (result.passed, result.detail, result.seconds) == (
        False, f"runtime 50.00s exceeds {limit}", 50.0)


def test_a_pass_detail_quotes_the_one_measurement(monkeypatch):
    clock = itertools.count(0.0, 0.25)
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(clock))
    result = acceptance.criterion_stand_alone_tradeoff()
    assert result.passed and result.seconds == 0.25
    assert result.detail.endswith("sum >= 1.5/(7N); 0.25s")


def test_the_preview_shows_three_failures_and_counts_the_rest(monkeypatch):
    # eps_d NaN fails two checks at each of the six N
    wrap = _nan_field("eps_d")
    monkeypatch.setattr(acceptance, "run_tradeoff_check", wrap(acceptance.run_tradeoff_check))
    detail = acceptance.criterion_stand_alone_tradeoff().detail
    first, second, third = detail.split("; ")
    assert first.startswith("N=1: eps_d=nan != ")
    assert second == "N=1: margin nan below 0.5/(7N)"
    assert third.startswith("N=2: eps_d=nan != ") and third.endswith(" (+9 more)")


def test_the_runner_passes_with_its_detail_and_lists_three_failures_uncounted():
    runner = acceptance._criterion("demo", "all hold")
    passed = runner(lambda: iter(()))()
    assert (passed.name, passed.passed, passed.detail) == ("demo", True, "all hold")
    failed = runner(lambda: (f"check {i}" for i in range(3)))()
    assert (failed.passed, failed.detail) == (False, "check 0; check 1; check 2")
