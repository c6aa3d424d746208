import csv
import io
import json
import math
import sys

import pytest

from cutchoose import cli as cli_module
from cutchoose import protocol as protocol_module
from cutchoose import report as report_module
from cutchoose import states, strategies
from cutchoose.bounds import PROOF_STEP_NAMES
from cutchoose.cli import main
from cutchoose.combs import bell_test_setup
from cutchoose.reference import round_outcome_table_via_combs
from cutchoose.config import parse_config, sweep_rows
from cutchoose.errors import ContractViolationError, OutOfDomainError
from cutchoose.families import (
    ACCEPTANCE_FAMILIES,
    TRAP_FAMILIES,
    RandomTraps,
    matched_acceptance,
)
from cutchoose.protocol import (
    ProtocolSpec,
    RoundDistribution,
    round_outcome_table,
)
from cutchoose.report import csv_columns, emit, emit_bytes, run_scenario
from cutchoose.strategies import HONEST, PhaseAttack, Placement
from law import within_sigmas


def make_config(**overrides):
    doc = {
        "protocol": {
            "omega": {"point_mass": 2},
            "k": 1,
            "traps": {"family": "plus"},
            "acceptance": {"family": "plus"},
        },
        "strategy": {"kind": "phase-attack", "alpha": "theorem-optimal"},
        "models": ["stand-alone", "composable"],
        "variant": {"kind": "per-round"},
    }
    doc.update(overrides)
    return parse_config(json.dumps(doc).encode())


class TestRunScenario:
    def test_sweep_row_count_and_order(self):
        cfg = make_config(sweep={"n_values": [1, 2, 5]})
        bundle = run_scenario(cfg)
        assert len(bundle.runs) == 6  # 3 sweep entries x 2 models
        assert [r.sweep_index for r in bundle.runs] == [0, 0, 1, 1, 2, 2]
        assert bundle.all_satisfied

    def test_log_spaced_sweep_twenty_rows(self):
        n_values = sorted({int(round(x)) for x in
                           (1.0 * (200.0 ** (i / 23)) for i in range(24))})[:20]
        assert len(n_values) == 20
        cfg = make_config(models=["stand-alone"], sweep={"n_values": n_values})
        bundle = run_scenario(cfg)
        assert len(bundle.runs) == 20
        assert all(r.report.satisfied for r in bundle.runs)
        cfg_c = make_config(models=["composable"], sweep={"n_values": n_values})
        for record in run_scenario(cfg_c).runs:
            r = record.report
            ratio = (r.eps_h + r.eps_d) * 4.0 * math.sqrt(r.n_expected)
            assert ratio >= 1.0 - 1e-12

    def test_theorem_optimal_alpha_resolution(self):
        cfg = make_config()
        bundle = run_scenario(cfg)
        stand_alone = bundle.runs[0].report
        assert stand_alone.alpha == pytest.approx(
            2 * math.asin(math.sqrt(4 / (9 * 2))), abs=1e-12
        )
        composable = bundle.runs[1].report
        assert composable.alpha == pytest.approx(2 * math.asin(1 / (2 * math.sqrt(2))), abs=1e-12)

    def test_fixed_alpha_override(self):
        cfg = make_config(strategy={"kind": "phase-attack", "alpha": 0.9})
        bundle = run_scenario(cfg)
        assert all(r.report.alpha == pytest.approx(0.9) for r in bundle.runs)

    def test_honest_strategy_is_trivial_attack(self):
        cfg = make_config(strategy={"kind": "honest"})
        bundle = run_scenario(cfg)
        assert all(r.report.trivial_attack for r in bundle.runs)
        assert bundle.all_satisfied  # trivial rows are not applicable
        # a proof step that does not apply is written as na, and null in JSON
        rows = list(csv.DictReader(io.StringIO(emit_bytes(bundle, "csv").decode())))
        assert [row["step_theorem_bound_holds"] for row in rows] == ["na", "na"]
        for run in json.loads(emit_bytes(bundle, "json"))["runs"]:
            assert run["trivial_attack"] is True
            steps = {step["name"]: step for step in run["proof_steps"]}
            assert steps["theorem_bound"]["holds"] is None

    @pytest.mark.parametrize("alpha, written", [(2e-12, "false"), (1e-20, "na")])
    def test_trivial_attack_threshold_in_the_csv(self, alpha, written):
        cfg = make_config(protocol={"omega": {"point_mass": 3}, "k": 1, "traps": {"family": "plus"},
                                    "acceptance": {"family": "plus"}},
                          strategy={"kind": "phase-attack", "alpha": alpha}, models=["composable"])
        rows = list(csv.DictReader(io.StringIO(emit_bytes(run_scenario(cfg), "csv").decode())))
        assert [row["step_theorem_bound_holds"] for row in rows] == [written]

    def test_rows_are_the_engine_tables(self):
        omega = [[1, 0.0], [2, 0.5], [3, 0.5]]  # includes a zero-weight n
        per_round = make_config(protocol={
            "omega": omega, "k": 1, "traps": {"family": "random", "seed": 4},
            "acceptance": {"family": "matched"},
        })
        traps = RandomTraps(seed=4)
        spec = ProtocolSpec(omega=RoundDistribution.from_pairs(omega), k=1,
                            traps=traps, acceptance=matched_acceptance(traps))
        bell = bell_test_setup(2)
        general = make_config(variant={"kind": "general-tests", "setup": {"family": "bell"}})
        cases = [
            (per_round, lambda strategy: round_outcome_table(spec, strategy)),
            (general, bell.outcome_table),
        ]
        for config, table in cases:
            bundle = run_scenario(config)
            rows = json.loads(emit_bytes(bundle, "json"))["runs"]
            assert len(rows) == len(bundle.runs) == 2
            for record, row in zip(bundle.runs, rows):
                r = record.report
                honest = table(HONEST)
                attacked = table(PhaseAttack(r.alpha, Placement.POST))
                assert r.p_h == honest.acceptance
                assert r.p_d == attacked.acceptance
                for who, t in (("honest", honest), ("attacked", attacked)):
                    assert row["rounds"][who] == [
                        {"n": n, "p": t.rows[j].tolist()}
                        for j, (n, _) in enumerate(t.omega.support)
                    ]

    def test_monte_carlo_columns(self):
        cfg = make_config(monte_carlo={"trials": 5000, "seed": 11})
        bundle = run_scenario(cfg)
        assert bundle.runs[0].mc is not None
        assert bundle.runs[0].mc.honest.accept_rate == 1.0
        header = emit_bytes(bundle, "csv").decode().splitlines()[0]
        assert "mc_p_H" in header and "mc_p_D" in header

    def test_one_sampler_call_per_row_with_rates_near_exact(self, monkeypatch):
        calls = []

        def counting(spec, strategies, trials, seed):
            calls.append((len(strategies), trials, seed))
            return protocol_module.monte_carlo_run(spec, strategies, trials, seed)

        monkeypatch.setattr(report_module, "monte_carlo_run", counting)
        cfg = make_config(
            protocol={"omega": {"point_mass": 2}, "k": 1,
                      "traps": {"family": "random", "seed": 4}, "acceptance": {"family": "plus"}},
            sweep={"n_values": [1, 2, 4]},
            monte_carlo={"trials": 4000, "seed": 21},
        )
        bundle = run_scenario(cfg)
        # the honest run and both models' attacks in one call per sweep row
        assert calls == [(3, 4000, 21), (3, 4000, 22), (3, 4000, 23)]
        # every run's honest and attacked rates follow the law of its exact figures
        assert len(bundle.runs) == 6
        for r in bundle.runs:
            for sampled, exact in ((r.mc.honest, r.report.p_h), (r.mc.attacked, r.report.p_d)):
                assert within_sigmas(sampled.accept_rate, exact, 4000), (r, sampled, exact)

    def test_general_variant_rows(self):
        cfg = make_config(
            variant={"kind": "general-tests", "setup": {"family": "bell"}},
            models=["composable"],
        )
        bundle = run_scenario(cfg)
        assert len(bundle.runs) == 1
        report = bundle.runs[0].report
        assert report.variant.value == "general-tests"
        assert report.bound == pytest.approx(1 / 8)
        assert report.satisfied

    def test_custom_comb_scenario(self):
        cfg = make_config(
            variant={
                "kind": "general-tests",
                "setup": {
                    "family": "custom",
                    "width": 2,
                    "hole_registers": [1, 2],
                    "teeth": [None, {"permute": [2, 1]}, None],
                    "state": "plus",
                    "measurement": "match-state",
                },
            },
            models=["composable"],
        )
        bundle = run_scenario(cfg)
        report = bundle.runs[0].report
        assert report.p_h == pytest.approx(1.0, abs=1e-10)
        assert report.satisfied

    def test_no_timing_in_the_json(self):
        assert b"time" not in emit_bytes(run_scenario(make_config()), "json")


def report_bytes(config):
    bundle = run_scenario(config)
    return emit_bytes(bundle, "csv") + emit_bytes(bundle, "json")


TRAP_DOCS = {
    "plus": {"family": "plus"},
    "computational": {"family": "computational"},
    "random": {"family": "random", "seed": 3},
}

# (k, protocol omega, sweep). The first shape keeps every k*n <= 8; each of the
# others has a row with k*n > 12, where the joint element would pass 4096 dims.
GLOBAL_SHAPES = (
    (2, [[0, 0.2], [1, 0.3], [3, 0.5]], None),
    (1, {"point_mass": 13}, None),
    (2, [[1, 0.5], [7, 0.5]], None),
    (1, [[1, 1.0], [13, 0.0]], None),
    (1, {"point_mass": 2}, {"n_values": [2, 13]}),
    (2, {"point_mass": 1}, {"omegas": [[[2, 1.0]], [[1, 0.5], [7, 0.5]]]}),
)


class TestGlobalMode:
    """Both acceptance-mode names build one rule, accept iff every test
    passes: the same figures and the same sampled rates, whatever k*n, and
    the tables the comb view gives."""

    @pytest.mark.parametrize("trap", sorted(TRAP_DOCS))
    @pytest.mark.parametrize("family", ["computational", "matched", "plus"])
    def test_matches_per_round_twin_and_networks(self, family, trap):
        for k, omega, sweep in GLOBAL_SHAPES:
            for placement in Placement:
                configs = {
                    mode: make_config(
                        protocol={"omega": omega, "k": k, "traps": TRAP_DOCS[trap],
                                  "acceptance": {"family": family, "mode": mode}},
                        strategy={"kind": "phase-attack", "alpha": "theorem-optimal",
                                  "placement": placement.value},
                        monte_carlo={"trials": 2000, "seed": k},
                        **({} if sweep is None else {"sweep": sweep}),
                    )
                    for mode in ("global", "per-round")
                }
                bundle = run_scenario(configs["global"])
                twin = run_scenario(configs["per-round"])
                assert emit_bytes(bundle, "csv") == emit_bytes(twin, "csv")
                assert (json.loads(emit_bytes(bundle, "json"))["runs"]
                        == json.loads(emit_bytes(twin, "json"))["runs"])
                doc = configs["global"].canonical()
                rows = sweep_rows(doc["protocol"]["omega"], doc.get("sweep"))
                for record in bundle.runs:
                    pairs = rows[record.sweep_index][1]
                    if k * pairs[-1][0] > 8:
                        continue
                    params = dict(TRAP_DOCS[trap])
                    traps = TRAP_FAMILIES[params.pop("family")](**params)
                    spec = ProtocolSpec(
                        omega=RoundDistribution.from_pairs(pairs), k=k, traps=traps,
                        acceptance=ACCEPTANCE_FAMILIES[family](traps),
                    )
                    r = record.report
                    for strategy, p, table in (
                        (HONEST, r.p_h, r.honest_rounds),
                        (PhaseAttack(r.alpha, placement), r.p_d, r.attacked_rounds),
                    ):
                        via = round_outcome_table_via_combs(spec, strategy)
                        assert p == pytest.approx(via.acceptance, abs=1e-12)
                        for row, via_row in zip(table.rows, via.rows):
                            assert row.tolist() == pytest.approx(via_row.tolist(), abs=1e-12)


def test_reports_never_use_the_dense_attack(monkeypatch):
    noisy_teeth = [{"channel": "depolarizing", "register": 1 + j % 2, "strength": 0.3,
                    **({"permute": [2, 1]} if j % 2 else {})} for j in range(5)]
    configs = [
        make_config(
            protocol={"omega": [[0, 0.2], [2, 0.8]], "k": 2,
                      "traps": {"family": "random", "seed": 5},
                      "acceptance": {"family": "matched"}},
            strategy={"kind": "phase-attack", "alpha": "theorem-optimal", "placement": "pre"},
            monte_carlo={"trials": 2000, "seed": 1},
        ),
        make_config(
            protocol={"omega": [[1, 0.5], [3, 0.5]], "k": 2,
                      "traps": {"family": "random", "seed": 6},
                      "acceptance": {"family": "matched", "mode": "global"}},
            monte_carlo={"trials": 2000, "seed": 2},
        ),
        make_config(variant={"kind": "general-tests", "setup": {"family": "bell"}},
                    sweep={"n_values": [1, 2, 3]}),
        make_config(
            protocol={"omega": {"point_mass": 4}, "k": 1, "traps": {"family": "plus"},
                      "acceptance": {"family": "plus"}},
            strategy={"kind": "phase-attack", "alpha": "theorem-optimal", "placement": "pre"},
            variant={"kind": "general-tests", "setup": {
                "family": "custom", "width": 2, "y_qubits": 1,
                "hole_registers": [1, 2, 2, 1], "teeth": noisy_teeth,
                "unitaries": "random", "unitary_seed": 7,
            }},
        ),
    ]
    expected = [report_bytes(config) for config in configs]

    def forbidden(*args, **kwargs):
        raise AssertionError("a report used the dense attack")

    dense = (strategies.transform_round, states.attack_operator)
    for name, module in list(sys.modules.items()):
        if name == "cutchoose" or name.startswith("cutchoose."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in dense):
                    monkeypatch.setattr(module, attr, forbidden)
    assert [report_bytes(config) for config in configs] == expected


class TestEmission:
    def test_empty_sweep_header_only(self):
        cfg = make_config(models=["stand-alone"])
        bundle = run_scenario(cfg)
        empty = type(bundle)(config=bundle.config, runs=(), metadata=bundle.metadata)
        text = emit_bytes(empty, "csv").decode()
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0].split(",")[:4] == ["model", "variant", "N", "alpha"]

    def test_csv_parses_back(self):
        cfg = make_config()
        bundle = run_scenario(cfg)
        rows = list(csv.DictReader(io.StringIO(emit_bytes(bundle, "csv").decode())))
        assert len(rows) == 2
        assert rows[0]["model"] == "stand-alone"
        assert rows[0]["satisfied"] == "true"
        assert float(rows[0]["eps_d"]) == pytest.approx(bundle.runs[0].report.eps_d, rel=1e-10)
        assert set(csv_columns(False)).issubset(rows[0].keys())

    @pytest.mark.parametrize("overrides", [
        {"sweep": {"n_values": [1, 3]}},
        {"monte_carlo": {"trials": 500, "seed": 3}},
        {"variant": {"kind": "general-tests", "setup": {"family": "bell"}}},
    ], ids=["per-round", "monte-carlo", "bell"])
    def test_csv_and_json_share_the_scalar_fields(self, overrides):
        bundle = run_scenario(make_config(**overrides))
        header, *rows = csv.reader(io.StringIO(emit_bytes(bundle, "csv").decode()))
        assert tuple(header) == csv_columns("monte_carlo" in overrides)
        scalars = header[:header.index(f"step_{PROOF_STEP_NAMES[0]}_lhs")]
        runs = json.loads(emit_bytes(bundle, "json"))["runs"]
        assert len(runs) == len(rows) == len(bundle.runs)
        for run, row in zip(runs, rows):
            extra = {"sweep_index", "trivial_attack", "proof_steps", "rounds", "monte_carlo"}
            assert set(run) - extra == set(scalars)
            assert [report_module._fmt(run[name]) for name in scalars] == row[:len(scalars)]

    def test_twelve_significant_digits(self):
        cfg = make_config()
        text = emit_bytes(run_scenario(cfg), "csv").decode()
        value = text.splitlines()[1].split(",")[3]  # alpha column
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 11

    def test_json_mirrors_bundle_and_roundtrips_config(self):
        cfg = make_config(sweep={"n_values": [1, 2]})
        bundle = run_scenario(cfg)
        doc = json.loads(emit_bytes(bundle, "json").decode())
        assert doc["metadata"]["config_hash"] == cfg.config_hash()
        assert len(doc["runs"]) == 4
        assert parse_config(json.dumps(doc["config"]).encode()) == cfg

    @pytest.mark.parametrize("overrides", [
        {"sweep": {"n_values": [1, 3]}, "protocol": {
            "omega": {"point_mass": 1}, "k": 2, "traps": {"family": "random", "seed": 4},
            "acceptance": {"family": "matched"}}},
        {"monte_carlo": {"trials": 500, "seed": 3},
         "protocol": {"omega": [[0, 0.2], [2, 0.3], [5, 0.5]], "k": 1,
                      "traps": {"family": "plus"}, "acceptance": {"family": "plus"}}},
        {"variant": {"kind": "general-tests", "setup": {"family": "bell"}},
         "sweep": {"n_values": [1, 2, 3]}},
        {"variant": {"kind": "general-tests", "setup": {
            "family": "custom", "width": 2, "y_qubits": 1, "hole_registers": [1, 2, 1],
            "teeth": [None, {"permute": [2, 1]}, {"channel": "dephasing"}, None],
            "unitaries": "random"}},
         "protocol": {"omega": {"point_mass": 3}, "k": 1,
                      "traps": {"family": "plus"}, "acceptance": {"family": "plus"}}},
        {"models": ["composable"], "protocol": {
            "omega": {"point_mass": 100_000}, "k": 1,
            "traps": {"family": "plus"}, "acceptance": {"family": "plus"}}},
    ], ids=["per-round", "monte-carlo", "bell", "custom", "point-mass-1e5"])
    def test_json_bytes_are_json_dumps(self, overrides):
        # one compact line with sorted keys; each rounds table is one
        # {"n", "p"} row per support point, holding the table's floats exactly
        bundle = run_scenario(make_config(**overrides))
        doc = report_module._json_doc(bundle)
        data = emit_bytes(bundle, "json")
        assert data == (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        for record, run in zip(bundle.runs, json.loads(data)["runs"], strict=True):
            r = record.report
            for who, t in (("honest", r.honest_rounds), ("attacked", r.attacked_rounds)):
                assert run["rounds"][who] == [
                    {"n": n, "p": row.tolist()} for (n, _), row in zip(t.omega.support, t.rows)
                ]

    def test_reruns_byte_identical(self):
        cfg = make_config(
            sweep={"n_values": [1, 4]}, monte_carlo={"trials": 20000, "seed": 5}
        )
        first = emit_bytes(run_scenario(cfg), "json")
        second = emit_bytes(run_scenario(cfg), "json")
        assert first == second
        assert emit_bytes(run_scenario(cfg), "csv") == emit_bytes(run_scenario(cfg), "csv")

    def test_emit_writes_file(self, tmp_path):
        cfg = make_config()
        bundle = run_scenario(cfg)
        out = tmp_path / "report.csv"
        emit(bundle, "csv", out)
        assert out.read_bytes() == emit_bytes(bundle, "csv")

    def test_emit_io_error_names_path(self, tmp_path):
        cfg = make_config()
        bundle = run_scenario(cfg)
        missing = tmp_path / "no-such-dir" / "report.csv"
        with pytest.raises(OSError) as err:
            emit(bundle, "csv", missing)
        assert str(missing) in str(err.value)
        with pytest.raises(OutOfDomainError, match="unknown output format 'xml'"):
            emit_bytes(bundle, "xml")


def write_config(tmp_path, name="scenario.json", **overrides):
    doc = {
        "protocol": {
            "omega": {"point_mass": 2},
            "k": 1,
            "traps": {"family": "plus"},
            "acceptance": {"family": "plus"},
        },
        "strategy": {"kind": "phase-attack", "alpha": "theorem-optimal"},
        "models": ["stand-alone"],
        "variant": {"kind": "per-round"},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestCli:
    def test_check_success(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["check", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "satisfied" in out

    def test_check_rejects_sweep_config(self, tmp_path, capsys):
        path = write_config(tmp_path, sweep={"n_values": [1, 2]})
        assert main(["check", "--config", str(path)]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_sweep_requires_sweep(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["sweep", "--config", str(path)]) == 2
        assert "sweep: required by the sweep subcommand" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "no-such-dir" / "report.csv"
        assert main(["check", "--config", str(path), "--out", str(out)]) == 2
        assert f"cannot write report to {out}" in capsys.readouterr().err

    def test_sweep_writes_output(self, tmp_path):
        path = write_config(tmp_path, sweep={"n_values": [1, 2, 5]})
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_mc_requires_monte_carlo(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["mc", "--config", str(path)]) == 2
        assert "monte_carlo" in capsys.readouterr().err

    def test_mc_runs_and_seed_override(self, tmp_path, capsys):
        path = write_config(tmp_path, monte_carlo={"trials": 5000, "seed": 3})
        assert main(["mc", "--config", str(path), "--seed", "99"]) == 0
        assert "mc p_H" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["-3", "abc"])
    def test_seed_is_checked_at_parsing(self, tmp_path, capsys, seed):
        path = write_config(tmp_path, monte_carlo={"trials": 100, "seed": 3})
        with pytest.raises(SystemExit) as exit_info:
            main(["mc", "--config", str(path), "--seed", seed])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument --seed: must be a non-negative integer, got '{seed}'" in err

    def test_violated_bound_exit_code(self, tmp_path, capsys):
        # a deliberately feeble attack angle leaves the error sum below the bound
        path = write_config(
            tmp_path, strategy={"kind": "phase-attack", "alpha": 0.001}
        )
        assert main(["check", "--config", str(path)]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_config_errors_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"protocol": {}}))
        assert main(["check", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err

    def test_engine_errors_exit_2(self, tmp_path, capsys, monkeypatch):
        def refuse(config, seed_override=None):
            raise ContractViolationError("round factor (n=2, i=1) = 1.5 outside [0, 1]")

        monkeypatch.setattr(cli_module, "run_scenario", refuse)
        assert main(["check", "--config", str(write_config(tmp_path))]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: round factor (n=2, i=1) = 1.5 outside [0, 1]\n"
        assert captured.out == ""

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_selftest_subset(self, capsys):
        assert main(["selftest", "--only", "jensen-step"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_json_output_roundtrip(self, tmp_path):
        path = write_config(tmp_path, output={"path": "ignored.csv", "format": "csv"})
        out = tmp_path / "bundle.json"
        assert main(["check", "--config", str(path), "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["satisfied"] is True
