"""The benchmark's outside-in tracer (perfbench/spans.py) against the package.

The tracer replaces the package functions it names with wrappers, so a
rename or signature change here would break the benchmark's per-layer
metrics. These tests install it around small scenarios and check that it
installs, counts one outcome-table build per strategy per report row and
one trap call for a row of round-independent traps, records each
Monte-Carlo sampler call's arguments, and leaves report bytes unchanged.
``random`` traps are drawn as their action, one block per row's ``n``
(per-round and global acceptance alike), and call no ``trap``.
"""

import importlib.util
import json
from pathlib import Path

import cutchoose

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def scenario(variant, n, protocol=(), **extra):
    return cutchoose.parse_config(json.dumps({
        "protocol": {"omega": {"point_mass": n}, "k": 1,
                     "traps": {"family": "plus"}, "acceptance": {"family": "plus"},
                     **dict(protocol)},
        "strategy": {"kind": "phase-attack", "alpha": "theorem-optimal"},
        "models": ["stand-alone", "composable"],
        "variant": variant,
        **extra,
    }))


def report_bytes(config):
    # through the package namespace, which the tracer rebinds
    bundle = cutchoose.run_scenario(config)
    return cutchoose.emit_bytes(bundle, "csv") + cutchoose.emit_bytes(bundle, "json")


def test_traced_reports_match_untraced(monkeypatch):
    per_round = scenario({"kind": "per-round"}, 2)
    bell = scenario({"kind": "general-tests", "setup": {"family": "bell"}}, 1)
    sampled = scenario({"kind": "per-round"}, 2, monte_carlo={"trials": 500, "seed": 7},
                       sweep={"n_values": [1, 3]})
    # the matched effect is read from the round's own trap call
    matched = scenario({"kind": "per-round"}, 2, protocol={
        "traps": {"family": "random", "seed": 3}, "acceptance": {"family": "matched"}})
    global_matched = scenario({"kind": "per-round"}, 2, protocol={
        "traps": {"family": "random", "seed": 3},
        "acceptance": {"family": "matched", "mode": "global"}})
    untraced = [report_bytes(per_round), report_bytes(bell), report_bytes(sampled),
                report_bytes(matched), report_bytes(global_matched)]
    blocks = []
    draw = cutchoose.RandomTraps.action

    def counting_draw(self, k, n, e=None):
        blocks.append(n)
        return draw(self, k, n, e)

    monkeypatch.setattr(cutchoose.RandomTraps, "action", counting_draw)
    original = cutchoose.run_scenario

    tracer = load_tracer_class()()
    with tracer:
        assert cutchoose.run_scenario is not original
        traced_per_round = report_bytes(per_round)
        # plus traps are round-independent: the row's bank receives round 1 once
        assert tracer.counts["families.trap_calls"] == 1
        assert tracer.span_count("protocol.round_outcome_table") == 2 * 2
        traced_bell = report_bytes(bell)
        # one honest table shared by both models, plus one attacked table per
        # model, each one network evaluation: the bell comb is shared by both
        # output rounds and evaluated once
        assert tracer.span_count("combs.general_test_acceptance") == 1 + 2 * 1
        traced_sampled = report_bytes(sampled)
        # one call per sweep entry (the honest run and both rows' attacks); entry i
        # is seeded 7 + i
        assert tracer.mc_calls == [(((n, 1.0),), 500, 7 + i) for i, n in enumerate((1, 3))]
        before = tracer.counts["families.trap_calls"]
        traced_matched = report_bytes(matched)
        # one block for the row's n = 2, shared by both models and strategies,
        # with no trap call
        assert blocks == [2]
        traced_global_matched = report_bytes(global_matched)
        # the same: global acceptance reads each round's effect from that block
        assert blocks == [2, 2]
        assert tracer.counts["families.trap_calls"] == before
    assert cutchoose.run_scenario is original
    assert [traced_per_round, traced_bell, traced_sampled, traced_matched,
            traced_global_matched] == untraced
