import json
import re
from pathlib import Path

import numpy as np
import pytest

from cutchoose.combs import Channel, custom_test_setup, general_test_acceptance, plug
from cutchoose.config import ScenarioConfig, parse_config
from cutchoose.errors import ConfigError
from cutchoose.protocol import MAX_TRIALS
from cutchoose.report import emit_bytes, run_scenario
from cutchoose.strategies import PhaseAttack, Placement, transform_round


def minimal_doc(**overrides):
    doc = {
        "protocol": {
            "omega": {"point_mass": 2},
            "k": 1,
            "traps": {"family": "plus"},
            "acceptance": {"family": "plus"},
        },
        "strategy": {"kind": "honest"},
        "models": ["stand-alone"],
        "variant": {"kind": "per-round"},
    }
    doc.update(overrides)
    return doc


def parse(doc):
    return parse_config(json.dumps(doc).encode("utf-8"))


class TestParsing:
    def test_minimal_valid(self):
        cfg = parse(minimal_doc())
        assert isinstance(cfg, ScenarioConfig)
        assert cfg.canonical()["protocol"]["omega"] == [[2, 1.0]]
        assert cfg.canonical()["strategy"] == {"kind": "honest"}

    def test_rejects_bad_probability_sum(self):
        doc = minimal_doc()
        doc["protocol"]["omega"] = [[0, 0.5], [2, 0.48]]
        with pytest.raises(ConfigError) as err:
            parse(doc)
        assert any("protocol.omega" in e and "sum" in e for e in err.value.errors)

    def test_rejects_unknown_field(self):
        doc = minimal_doc()
        doc["protocol"]["trapz"] = {}
        with pytest.raises(ConfigError) as err:
            parse(doc)
        assert any("protocol.trapz" in e and "unknown field" in e for e in err.value.errors)

    def test_rejects_missing_field(self):
        doc = minimal_doc()
        del doc["protocol"]["k"]
        with pytest.raises(ConfigError) as err:
            parse(doc)
        assert any("protocol.k" in e for e in err.value.errors)

    def test_collects_multiple_errors(self):
        doc = minimal_doc()
        doc["models"] = ["nonsense"]
        doc["strategy"] = {"kind": "phase-attack", "alpha": "later"}
        with pytest.raises(ConfigError) as err:
            parse(doc)
        assert len(err.value.errors) >= 2

    def test_rejects_non_json(self):
        with pytest.raises(ConfigError):
            parse_config(b"not json at all {")

    def test_rejects_non_utf8(self):
        with pytest.raises(ConfigError):
            parse_config(b"\xff\xfe\x00")

    def test_theorem_optimal_alpha_kept_symbolic(self):
        doc = minimal_doc(strategy={"kind": "phase-attack", "alpha": "theorem-optimal"})
        cfg = parse(doc)
        assert cfg.canonical()["strategy"]["alpha"] == "theorem-optimal"

    def test_rejects_general_tests_with_monte_carlo(self):
        doc = minimal_doc(
            variant={"kind": "general-tests", "setup": {"family": "bell"}},
            monte_carlo={"trials": 1000, "seed": 1},
        )
        with pytest.raises(ConfigError) as err:
            parse(doc)
        assert any("monte_carlo" in e for e in err.value.errors)

    def test_sweep_requires_one_key(self):
        doc = minimal_doc(sweep={})
        with pytest.raises(ConfigError):
            parse(doc)

    def test_custom_comb_descriptor(self):
        doc = minimal_doc()
        doc["protocol"]["omega"] = {"point_mass": 2}
        doc["variant"] = {
            "kind": "general-tests",
            "setup": {
                "family": "custom",
                "width": 2,
                "hole_registers": [1, 1],
                "teeth": [None, {"permute": [2, 1]}, {"channel": "dephasing",
                                                      "register": 1, "strength": 0.25}],
            },
        }
        cfg = parse(doc)
        assert cfg.canonical()["variant"]["setup"]["width"] == 2
        assert cfg.canonical()["variant"]["setup"]["hole_registers"] == [1, 1]

    def test_custom_comb_rejects_bad_permutation(self):
        doc = minimal_doc()
        doc["variant"] = {
            "kind": "general-tests",
            "setup": {
                "family": "custom",
                "width": 2,
                "hole_registers": [1, 1],
                "teeth": [None, {"permute": [2, 2]}, None],
            },
        }
        with pytest.raises(ConfigError) as err:
            parse(doc)
        assert any("permute" in e for e in err.value.errors)

    def test_custom_comb_needs_matching_point_mass(self):
        doc = minimal_doc()
        doc["protocol"]["omega"] = {"point_mass": 3}
        doc["variant"] = {
            "kind": "general-tests",
            "setup": {"family": "custom", "width": 1, "hole_registers": [1]},
        }
        with pytest.raises(ConfigError) as err:
            parse(doc)
        assert any("point mass" in e for e in err.value.errors)


def custom_tooth_doc(tooth):
    doc = minimal_doc()
    doc["variant"] = {
        "kind": "general-tests",
        "setup": {"family": "custom", "width": 2, "hole_registers": [1, 1],
                  "teeth": [None, tooth, None]},
    }
    return doc


def with_literal(doc, literal):
    """Serialize ``doc`` with the placeholder string replaced by a raw JSON literal."""
    return json.dumps(doc).replace('"__X__"', literal).encode("utf-8")


def omega_pair_doc():
    doc = minimal_doc()
    doc["protocol"]["omega"] = [[1, "__X__"], [2, 0.5]]
    return doc


class TestRejectsBadNumbers:
    @pytest.mark.parametrize(
        "doc, literal, path",
        [
            (omega_pair_doc(), "NaN", "protocol.omega[0][1]"),
            (minimal_doc(strategy={"kind": "phase-attack", "alpha": "__X__"}),
             "NaN", "strategy.alpha"),
            (minimal_doc(strategy={"kind": "phase-attack", "alpha": "__X__"}),
             "1e400", "strategy.alpha"),
            (minimal_doc(strategy={"kind": "phase-attack", "alpha": "__X__"}),
             "-Infinity", "strategy.alpha"),
            (custom_tooth_doc({"channel": "dephasing", "strength": "__X__"}),
             "Infinity", "variant.setup.teeth[1].strength"),
            (custom_tooth_doc({"channel": "dephasing", "strength": "__X__"}),
             "true", "variant.setup.teeth[1].strength"),
            (custom_tooth_doc({"channel": "dephasing", "register": "__X__"}),
             "true", "variant.setup.teeth[1].register"),
        ],
    )
    def test_error_names_path(self, doc, literal, path):
        with pytest.raises(ConfigError) as err:
            parse_config(with_literal(doc, literal))
        assert any(e.startswith(f"{path}:") for e in err.value.errors), err.value.errors


def protocol_doc(**protocol):
    doc = minimal_doc()
    doc["protocol"].update(protocol)
    return doc


def custom_doc(**setup):
    doc = custom_tooth_doc(None)
    doc["variant"]["setup"].update(setup)
    return doc


def bell_doc(**overrides):
    return minimal_doc(variant={"kind": "general-tests", "setup": {"family": "bell"}},
                       **overrides)


GLOBAL_PLUS = {"family": "plus", "mode": "global"}
GLOBAL_MATCHED = {"family": "matched", "mode": "global"}
RANDOM_TRAPS = {"family": "random", "seed": 3}


class TestRejectsBeyondCaps:
    """Inputs that used to parse and then fail at run time without a path."""

    @pytest.mark.parametrize(
        "doc, path",
        [
            (protocol_doc(k=13), "protocol.k"),
            (protocol_doc(traps={"family": "random", "seed": -1}), "protocol.traps.seed"),
            (protocol_doc(traps={"family": "random", "seed": True}), "protocol.traps.seed"),
            (custom_doc(unitaries="random", unitary_seed=-3), "variant.setup.unitary_seed"),
            (custom_doc(width=10), "variant.setup.width"),
            (custom_doc(width=2, y_qubits=7), "variant.setup.y_qubits"),
            (bell_doc(protocol={**minimal_doc()["protocol"], "omega": {"point_mass": 5}}),
             "protocol.omega"),
            (bell_doc(sweep={"n_values": [2, 5]}), "sweep.n_values[1]"),
            (bell_doc(sweep={"omegas": [[[5, 1.0]]]}), "sweep.omegas[0]"),
            (bell_doc(sweep={"omegas": [[[1, 1.0]], [[1, 0.5], [2, 0.5]]]}), "sweep.omegas[1]"),
            (bell_doc(protocol={**minimal_doc()["protocol"], "omega": {"point_mass": 0}}),
             "protocol.omega"),
            (bell_doc(protocol={**minimal_doc()["protocol"], "omega": [[1, 0.5], [2, 0.5]]}),
             "protocol.omega"),
            # global acceptance lifts no cap of the bell setups (4**n dims per comb)
            (bell_doc(protocol=protocol_doc(omega={"point_mass": 5},
                                            acceptance=GLOBAL_PLUS)["protocol"]),
             "protocol.omega"),
            (bell_doc(protocol=protocol_doc(omega=[[1, 0.5], [4, 0.5]],
                                            acceptance=GLOBAL_PLUS)["protocol"]),
             "protocol.omega"),
            (bell_doc(protocol=protocol_doc(omega=[[1, 1.0], [5, 0.0]],
                                            acceptance=GLOBAL_PLUS)["protocol"]),
             "protocol.omega"),
            (bell_doc(protocol=protocol_doc(acceptance=GLOBAL_PLUS)["protocol"],
                      sweep={"n_values": [2, 5]}),
             "sweep.n_values[1]"),
            (bell_doc(protocol=protocol_doc(acceptance=GLOBAL_PLUS)["protocol"],
                      sweep={"omegas": [[[2, 1.0]], [[1, 0.5], [4, 0.5]]]}),
             "sweep.omegas[1]"),
            # equal to [1, 2] as numbers, but not JSON integers
            (custom_tooth_doc({"permute": [True, 2]}), "variant.setup.teeth[1].permute"),
            (custom_tooth_doc({"permute": [1.0, 2]}), "variant.setup.teeth[1].permute"),
            # names that are not strings (a list used to raise TypeError)
            (minimal_doc(models=[["stand-alone"]]), "models[0]"),
            (minimal_doc(strategy={"kind": "phase-attack", "alpha": 1.0, "placement": ["pre"]}),
             "strategy.placement"),
            (custom_tooth_doc({"channel": ["dephasing"]}), "variant.setup.teeth[1].channel"),
            # register and strength describe a channel
            (custom_tooth_doc({"register": 2}), "variant.setup.teeth[1]"),
            (custom_tooth_doc({"permute": [2, 1], "strength": 0.5}), "variant.setup.teeth[1]"),
            # rows the certification cannot evaluate: a zero mean, or a mean too
            # small for the bound-optimal angle (sin(a/2) > 1)
            (protocol_doc(omega={"point_mass": 0}), "protocol.omega"),
            (minimal_doc(sweep={"omegas": [[[1, 1.0]], [[0, 1.0]]]}), "sweep.omegas[1]"),
            (minimal_doc(protocol=protocol_doc(omega=[[0, 0.9], [1, 0.1]])["protocol"],
                         strategy={"kind": "phase-attack", "alpha": "theorem-optimal"}),
             "protocol.omega"),
            # the sampler's arrays grow with the trials
            (minimal_doc(monte_carlo={"trials": MAX_TRIALS + 1, "seed": 1}), "monte_carlo.trials"),
        ],
    )
    def test_error_names_path(self, doc, path):
        with pytest.raises(ConfigError) as err:
            parse(doc)
        assert any(e.startswith(f"{path}:") for e in err.value.errors), err.value.errors

    def test_limits_are_inclusive(self):
        parse(protocol_doc(k=12))
        parse(protocol_doc(traps={"family": "random", "seed": 0}))
        parse(custom_doc(width=2, y_qubits=6, unitaries="random", unitary_seed=0))
        parse(bell_doc(sweep={"n_values": [1, 4]}))
        # with a sweep, the protocol's own omega gives no report row
        parse(bell_doc(sweep={"n_values": [1]},
                       protocol={**minimal_doc()["protocol"], "omega": {"point_mass": 9}}))
        parse(protocol_doc(traps=RANDOM_TRAPS, acceptance={"family": "matched"}))
        # general tests never build the acceptance rule
        parse(bell_doc(protocol=protocol_doc(traps=RANDOM_TRAPS, acceptance=GLOBAL_MATCHED,
                                             omega={"point_mass": 4})["protocol"]))
        parse(bell_doc(protocol=protocol_doc(acceptance=GLOBAL_PLUS)["protocol"],
                       sweep={"n_values": [1, 4]}))
        parse(minimal_doc(monte_carlo={"trials": MAX_TRIALS, "seed": 0}))


def general_doc(setup):
    return minimal_doc(variant={"kind": "general-tests", "setup": setup})


def sweep_doc(**sweep):
    return minimal_doc(sweep=sweep)


CUSTOM_ONE_HOLE = {"family": "custom", "width": 1, "hole_registers": [1]}


# one bad document per rejection branch of the parser, with the JSON path
# its message must start with
REJECTIONS = [
    # round distributions
    (protocol_doc(omega="two"), "protocol.omega"),
    (protocol_doc(omega=[]), "protocol.omega"),
    (protocol_doc(omega=[[2]]), "protocol.omega[0]"),
    (protocol_doc(omega=[[2, 0.5, 0.5]]), "protocol.omega[0]"),
    (protocol_doc(omega=[[-1, 1.0]]), "protocol.omega[0]"),
    (protocol_doc(omega=[[1.5, 1.0]]), "protocol.omega[0]"),
    (protocol_doc(omega=[[1, 1.5], [2, -0.5]]), "protocol.omega[1]"),
    (protocol_doc(omega=[[1, "half"], [2, 0.5]]), "protocol.omega[0]"),
    (protocol_doc(omega=[[2, 0.5], [2, 0.5]]), "protocol.omega"),
    (protocol_doc(omega={"point_mass": -1}), "protocol.omega.point_mass"),
    (protocol_doc(omega={"point_mass": 2.0}), "protocol.omega.point_mass"),
    (protocol_doc(omega={}), "protocol.omega.point_mass"),
    (protocol_doc(omega={"point_mass": 2, "mean": 2}), "protocol.omega.mean"),
    (protocol_doc(k=0), "protocol.k"),
    (protocol_doc(k="1"), "protocol.k"),
    # trap and acceptance families
    (protocol_doc(traps="plus"), "protocol.traps"),
    (protocol_doc(traps={}), "protocol.traps.family"),
    (protocol_doc(traps={"family": "haar"}), "protocol.traps.family"),
    (protocol_doc(traps={"family": "plus", "seed": 1}), "protocol.traps.seed"),
    (protocol_doc(traps={"family": "random", "seed": "1"}), "protocol.traps.seed"),
    (protocol_doc(acceptance=["plus"]), "protocol.acceptance"),
    (protocol_doc(acceptance={"mode": "global"}), "protocol.acceptance.family"),
    (protocol_doc(acceptance={"family": "haar"}), "protocol.acceptance.family"),
    (protocol_doc(acceptance={"family": "plus", "mode": "joint"}),
     "protocol.acceptance.mode"),
    (protocol_doc(acceptance={"family": "plus", "strict": True}),
     "protocol.acceptance.strict"),
    (minimal_doc(protocol=[]), "protocol"),
    # strategies
    (minimal_doc(strategy={}), "strategy"),
    (minimal_doc(strategy="honest"), "strategy"),
    (minimal_doc(strategy={"kind": "bit-flip"}), "strategy.kind"),
    (minimal_doc(strategy={"kind": "honest", "alpha": 0.5}), "strategy.alpha"),
    (minimal_doc(strategy={"kind": "phase-attack"}), "strategy.alpha"),
    (minimal_doc(strategy={"kind": "phase-attack", "alpha": "optimal"}),
     "strategy.alpha"),
    (minimal_doc(strategy={"kind": "phase-attack", "alpha": False}), "strategy.alpha"),
    (minimal_doc(strategy={"kind": "phase-attack", "alpha": 1.0, "placement": "mid"}),
     "strategy.placement"),
    # models
    (minimal_doc(models="stand-alone"), "models"),
    (minimal_doc(models=[]), "models"),
    (minimal_doc(models=["stand-alone", "stand-alone"]), "models"),
    (minimal_doc(models=["composable", "universal"]), "models[1]"),
    # variants and general-test setups
    (minimal_doc(variant={}), "variant"),
    (minimal_doc(variant={"kind": "per-test"}), "variant.kind"),
    (minimal_doc(variant={"kind": "per-round", "setup": {}}), "variant.setup"),
    (minimal_doc(variant={"kind": "general-tests"}), "variant.setup"),
    (general_doc({}), "variant.setup"),
    (general_doc("bell"), "variant.setup"),
    (general_doc({"family": "ghz"}), "variant.setup.family"),
    (general_doc({"family": "bell", "width": 1}), "variant.setup.width"),
    (general_doc({"family": "custom", "hole_registers": [1]}), "variant.setup.width"),
    (general_doc({"family": "custom", "width": 1}), "variant.setup.hole_registers"),
    (general_doc({**CUSTOM_ONE_HOLE, "colour": "red"}), "variant.setup.colour"),
    (general_doc({**CUSTOM_ONE_HOLE, "width": 0}), "variant.setup.width"),
    (custom_doc(y_qubits=-1), "variant.setup.y_qubits"),
    (custom_doc(hole_registers=[]), "variant.setup.hole_registers"),
    (custom_doc(hole_registers=[1, 3]), "variant.setup.hole_registers"),
    (custom_doc(hole_registers=[0, 1]), "variant.setup.hole_registers"),
    (custom_doc(hole_registers="1,2"), "variant.setup.hole_registers"),
    (custom_doc(teeth=[None, None]), "variant.setup.teeth"),
    (custom_doc(teeth={"0": None}), "variant.setup.teeth"),
    (custom_tooth_doc([2, 1]), "variant.setup.teeth[1]"),
    (custom_tooth_doc({"permute": [2, 1], "swap": True}), "variant.setup.teeth[1].swap"),
    (custom_tooth_doc({"permute": [1]}), "variant.setup.teeth[1].permute"),
    (custom_tooth_doc({"permute": "21"}), "variant.setup.teeth[1].permute"),
    (custom_tooth_doc({"channel": "bit-flip"}), "variant.setup.teeth[1].channel"),
    (custom_tooth_doc({"channel": "dephasing", "register": 3}),
     "variant.setup.teeth[1].register"),
    (custom_tooth_doc({"channel": "dephasing", "register": 0}),
     "variant.setup.teeth[1].register"),
    (custom_tooth_doc({"channel": "dephasing", "strength": 1.5}),
     "variant.setup.teeth[1].strength"),
    (custom_tooth_doc({"channel": "dephasing", "strength": "0.5"}),
     "variant.setup.teeth[1].strength"),
    (custom_doc(state="minus"), "variant.setup.state"),
    (custom_doc(state="bell-pairs", y_qubits=1), "variant.setup.state"),
    # a missing width leaves the default y_qubits nothing to be compared with
    (general_doc({"family": "custom", "hole_registers": [1], "state": "bell-pairs"}),
     "variant.setup.width"),
    (custom_doc(measurement="z-basis"), "variant.setup.measurement"),
    (custom_doc(unitaries="haar"), "variant.setup.unitaries"),
    (custom_doc(unitary_seed=1.5), "variant.setup.unitary_seed"),
    # sweeps
    (minimal_doc(sweep=[1, 2]), "sweep"),
    (sweep_doc(), "sweep"),
    (sweep_doc(n_values=[1], omegas=[[[1, 1.0]]]), "sweep"),
    (sweep_doc(n_values=[1], steps=2), "sweep.steps"),
    (sweep_doc(n_values=[]), "sweep.n_values"),
    (sweep_doc(n_values=[1, 0]), "sweep.n_values"),
    (sweep_doc(n_values=[1, True]), "sweep.n_values"),
    (sweep_doc(n_values=5), "sweep.n_values"),
    (sweep_doc(omegas=[]), "sweep.omegas"),
    (sweep_doc(omegas={"a": [[1, 1.0]]}), "sweep.omegas"),
    (sweep_doc(omegas=[[[1, 1.0]], [[1, 0.5]]]), "sweep.omegas[1]"),
    (sweep_doc(omegas=[[[1, 1.0]], []]), "sweep.omegas[1]"),
    (sweep_doc(omegas=[[[1, 1.0]], [[1, 0.5], [1, 0.5]]]), "sweep.omegas[1]"),
    (sweep_doc(omegas=[[[1, 1.0]], [[1, 0.5], [2]]]), "sweep.omegas[1][1]"),
    # sampled runs and output
    (minimal_doc(monte_carlo=1000), "monte_carlo"),
    (minimal_doc(monte_carlo={"trials": 1000}), "monte_carlo.seed"),
    (minimal_doc(monte_carlo={"trials": 0, "seed": 1}), "monte_carlo.trials"),
    (minimal_doc(monte_carlo={"trials": 10.0, "seed": 1}), "monte_carlo.trials"),
    (minimal_doc(monte_carlo={"trials": 10, "seed": -1}), "monte_carlo.seed"),
    (minimal_doc(monte_carlo={"trials": 10, "seed": True}), "monte_carlo.seed"),
    (minimal_doc(monte_carlo={"trials": 10, "seed": 1, "block": 4}),
     "monte_carlo.block"),
    (minimal_doc(output="report.csv"), "output"),
    (minimal_doc(output={"format": "csv"}), "output.path"),
    (minimal_doc(output={"path": ""}), "output.path"),
    (minimal_doc(output={"path": 3}), "output.path"),
    (minimal_doc(output={"path": "r.xml", "format": "xml"}), "output.format"),
    (minimal_doc(output={"path": "r.csv", "mode": "w"}), "output.mode"),
    # rules across sections
    (bell_doc(protocol=protocol_doc(k=2)["protocol"]), "protocol.k"),
    (bell_doc(monte_carlo={"trials": 10, "seed": 1}), "monte_carlo"),
    (minimal_doc(variant={"kind": "general-tests", "setup": CUSTOM_ONE_HOLE},
                 sweep={"n_values": [1]}), "sweep"),
    (general_doc(CUSTOM_ONE_HOLE), "protocol.omega"),
    # the whole document
    ([], "$"),
    ("scenario", "$"),
]


class TestRejectionTable:
    @pytest.mark.parametrize("doc, path", REJECTIONS)
    def test_error_names_path(self, doc, path):
        with pytest.raises(ConfigError) as err:
            parse(doc)
        assert any(e.startswith(f"{path}:") for e in err.value.errors), err.value.errors


# a JSON path: "$" for the whole document, else bare keys with .key and [i] steps
JSON_PATH = re.compile(r"^(\$|[A-Za-z_]\w*(\.\w+|\[\d+\])*): ")


class TestPathConvention:
    @pytest.mark.parametrize("doc, errors", [
        (minimal_doc(extra=1),
         ["extra: unknown field"]),
        ({"protocol": minimal_doc()["protocol"], "variant": {"kind": "per-round"}},
         ["strategy: missing required field", "models: missing required field"]),
        ({"protocol": 1},
         ["protocol: expected an object, got int", "strategy: missing required field",
          "models: missing required field", "variant: missing required field"]),
    ], ids=["unknown", "missing", "not-an-object"])
    def test_top_level_paths_are_bare_keys(self, doc, errors):
        with pytest.raises(ConfigError) as err:
            parse(doc)
        assert err.value.errors == errors

    def test_non_finite_scan_uses_the_same_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config(with_literal(minimal_doc(extra="__X__"), "NaN"))
        assert err.value.errors == ["extra: numbers must be finite"]

    @pytest.mark.parametrize("text", [b"not json at all {", b"\xff\xfe\x00", b"[1, 2]"])
    def test_whole_document_errors_use_dollar(self, text):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert all(e.startswith("$: ") for e in err.value.errors), err.value.errors

    def test_every_message_starts_with_a_json_path(self):
        for doc, _ in REJECTIONS:
            with pytest.raises(ConfigError) as err:
                parse(doc)
            for message in err.value.errors:
                assert JSON_PATH.match(message), message


GOLDEN_PROTOCOL = {"omega": {"point_mass": 2}, "k": 1, "traps": {"family": "plus"},
            "acceptance": {"family": "plus"}}
HONEST = {"kind": "honest"}
PER_ROUND = {"kind": "per-round"}

GOLDEN_DOCS = {
    "defaults-left-out": {
        "protocol": GOLDEN_PROTOCOL, "strategy": HONEST, "models": ["stand-alone"],
        "variant": PER_ROUND,
    },
    "defaults-spelled-out": {
        "protocol": {"omega": [[3, 0.25], [1, 0.7500000005]], "k": 2,
                     "traps": {"family": "random", "seed": 0},
                     "acceptance": {"family": "matched", "mode": "global"}},
        "strategy": {"kind": "phase-attack", "alpha": 1, "placement": "post"},
        "models": ["composable", "stand-alone"],
        "variant": PER_ROUND,
        "sweep": {"n_values": [1, 2, 5]},
        "monte_carlo": {"trials": 1000, "seed": 3},
        "output": {"path": "report.csv", "format": "csv"},
    },
    "omegas-sweep": {
        "protocol": {"omega": [[2, 0.4999999995], [1, 0.5]], "k": 3,
                     "traps": {"family": "random"},
                     "acceptance": {"family": "computational", "mode": "per-round"}},
        "strategy": {"kind": "phase-attack", "alpha": "theorem-optimal", "placement": "pre"},
        "models": ["stand-alone", "composable"],
        "variant": PER_ROUND,
        "sweep": {"omegas": [[[4, 0.5], [0, 0.5]], [[1, 1]]]},
        "output": {"path": "out/report.json", "format": "json"},
    },
    "bell": {
        "protocol": {**GOLDEN_PROTOCOL, "omega": [[3, 1]]},
        "strategy": {"kind": "phase-attack", "alpha": 0.5},
        "models": ["composable"],
        "variant": {"kind": "general-tests", "setup": {"family": "bell"}},
    },
    "custom-every-tooth": {
        "protocol": {**GOLDEN_PROTOCOL, "omega": {"point_mass": 5}},
        "strategy": {"kind": "phase-attack", "alpha": "theorem-optimal"},
        "models": ["stand-alone", "composable"],
        "variant": {"kind": "general-tests", "setup": {
            "family": "custom", "width": 2, "hole_registers": [1, 2, 1, 2, 2],
            "teeth": [None, {}, {"permute": [2, 1]}, {"channel": "dephasing"},
                      {"channel": "depolarizing", "register": 2, "strength": 1},
                      {"permute": [2, 1], "channel": "dephasing", "strength": 0.25}]}},
    },
    "custom-spelled-out": {
        "protocol": {**GOLDEN_PROTOCOL, "omega": [[1, 1.0]]},
        "strategy": HONEST,
        "models": ["composable"],
        "variant": {"kind": "general-tests", "setup": {
            "family": "custom", "width": 2, "y_qubits": 2, "hole_registers": [2],
            "teeth": [{"channel": "dephasing", "register": 1, "strength": 0.5}, None],
            "state": "bell-pairs", "measurement": "identity", "unitaries": "random",
            "unitary_seed": 7}},
    },
    "custom-teeth-left-out": {
        "protocol": {**GOLDEN_PROTOCOL, "omega": {"point_mass": 3}},
        "strategy": {"kind": "phase-attack", "alpha": 2.5, "placement": "pre"},
        "models": ["stand-alone"],
        "variant": {"kind": "general-tests", "setup": {
            "family": "custom", "width": 1, "y_qubits": 0, "hole_registers": [1, 1, 1],
            "state": "zero"}},
    },
    "per-round-mixture": {
        "protocol": {"omega": [[4, 0.5], [0, 0.25], [7, 0.25]], "k": 1,
                     "traps": {"family": "computational"},
                     "acceptance": {"family": "plus", "mode": "global"}},
        "strategy": {"kind": "phase-attack", "alpha": -3},
        "models": ["stand-alone"],
        "variant": PER_ROUND,
        "monte_carlo": {"trials": 20, "seed": 0},
        "output": {"path": "r.csv"},
    },
}

# config_hash() and canonical() of each golden document, computed by the
# parser these pins were written against; every report embeds both
GOLDEN_CANONICAL = {
    "defaults-left-out": (
        "79f627fdb7ba9c85682afcd73832de119827614c20043a71fdcada2446896a19",
        {"models": ["stand-alone"],
         "protocol": {"acceptance": {"family": "plus", "mode": "per-round"},
                      "k": 1,
                      "omega": [[2, 1.0]],
                      "traps": {"family": "plus"}},
         "strategy": {"kind": "honest"},
         "variant": {"kind": "per-round"}},
    ),
    "defaults-spelled-out": (
        "7c9f766e9dcd0fd1dbf7e54ac0b0b3caa579b0d0c6a2845433505bb3a1c7c46d",
        {"models": ["composable", "stand-alone"],
         "monte_carlo": {"seed": 3, "trials": 1000},
         "output": {"format": "csv", "path": "report.csv"},
         "protocol": {"acceptance": {"family": "matched", "mode": "global"},
                      "k": 2,
                      "omega": [[1, 0.750000000125], [3, 0.249999999875]],
                      "traps": {"family": "random", "seed": 0}},
         "strategy": {"alpha": 1.0, "kind": "phase-attack", "placement": "post"},
         "sweep": {"n_values": [1, 2, 5]},
         "variant": {"kind": "per-round"}},
    ),
    "omegas-sweep": (
        "cd3b277e125e6a06ac8f673a17cb8f7a9551e4f88ab1b211c10d155592ad49f4",
        {"models": ["stand-alone", "composable"],
         "output": {"format": "json", "path": "out/report.json"},
         "protocol": {"acceptance": {"family": "computational", "mode": "per-round"},
                      "k": 3,
                      "omega": [[1, 0.50000000025], [2, 0.49999999975000003]],
                      "traps": {"family": "random", "seed": 0}},
         "strategy": {"alpha": "theorem-optimal",
                      "kind": "phase-attack",
                      "placement": "pre"},
         "sweep": {"omegas": [[[0, 0.5], [4, 0.5]], [[1, 1.0]]]},
         "variant": {"kind": "per-round"}},
    ),
    "bell": (
        "befc4aa078c0bfa3e3313f4ad1c7d7c4db01cc346e37edd891137fffbe63507d",
        {"models": ["composable"],
         "protocol": {"acceptance": {"family": "plus", "mode": "per-round"},
                      "k": 1,
                      "omega": [[3, 1.0]],
                      "traps": {"family": "plus"}},
         "strategy": {"alpha": 0.5, "kind": "phase-attack", "placement": "post"},
         "variant": {"kind": "general-tests", "setup": {"family": "bell"}}},
    ),
    "custom-every-tooth": (
        "7258b6faff874cab8cdffc4f03ce39f89e2bec6f67f9387a9ea9b38c830866ab",
        {"models": ["stand-alone", "composable"],
         "protocol": {"acceptance": {"family": "plus", "mode": "per-round"},
                      "k": 1,
                      "omega": [[5, 1.0]],
                      "traps": {"family": "plus"}},
         "strategy": {"alpha": "theorem-optimal",
                      "kind": "phase-attack",
                      "placement": "post"},
         "variant": {"kind": "general-tests",
                     "setup": {"family": "custom",
                               "hole_registers": [1, 2, 1, 2, 2],
                               "measurement": "match-state",
                               "state": "plus",
                               "teeth": [None,
                                         None,
                                         {"permute": [2, 1]},
                                         {"channel": "dephasing",
                                          "register": 1,
                                          "strength": 0.5},
                                         {"channel": "depolarizing",
                                          "register": 2,
                                          "strength": 1.0},
                                         {"channel": "dephasing",
                                          "permute": [2, 1],
                                          "register": 1,
                                          "strength": 0.25}],
                               "unitaries": "identity",
                               "unitary_seed": 0,
                               "width": 2,
                               "y_qubits": 0}}},
    ),
    "custom-spelled-out": (
        "d6b3960dec8c5b9f844d5bdc6eea67892fd59ff019638b7d952ecb17e7a672cf",
        {"models": ["composable"],
         "protocol": {"acceptance": {"family": "plus", "mode": "per-round"},
                      "k": 1,
                      "omega": [[1, 1.0]],
                      "traps": {"family": "plus"}},
         "strategy": {"kind": "honest"},
         "variant": {"kind": "general-tests",
                     "setup": {"family": "custom",
                               "hole_registers": [2],
                               "measurement": "identity",
                               "state": "bell-pairs",
                               "teeth": [{"channel": "dephasing",
                                          "register": 1,
                                          "strength": 0.5},
                                         None],
                               "unitaries": "random",
                               "unitary_seed": 7,
                               "width": 2,
                               "y_qubits": 2}}},
    ),
    "custom-teeth-left-out": (
        "254b63e6e884b900a8449648753ab47cc4c2ca483bb5dbb0bca3f8e99c8ee8fa",
        {"models": ["stand-alone"],
         "protocol": {"acceptance": {"family": "plus", "mode": "per-round"},
                      "k": 1,
                      "omega": [[3, 1.0]],
                      "traps": {"family": "plus"}},
         "strategy": {"alpha": 2.5, "kind": "phase-attack", "placement": "pre"},
         "variant": {"kind": "general-tests",
                     "setup": {"family": "custom",
                               "hole_registers": [1, 1, 1],
                               "measurement": "match-state",
                               "state": "zero",
                               "teeth": [None, None, None, None],
                               "unitaries": "identity",
                               "unitary_seed": 0,
                               "width": 1,
                               "y_qubits": 0}}},
    ),
    "per-round-mixture": (
        "1cec1516bd61dddaedf94e468c5064115dd99ba4b1d014fbc7da39ce485ab8ba",
        {"models": ["stand-alone"],
         "monte_carlo": {"seed": 0, "trials": 20},
         "output": {"format": "csv", "path": "r.csv"},
         "protocol": {"acceptance": {"family": "plus", "mode": "global"},
                      "k": 1,
                      "omega": [[0, 0.25], [4, 0.5], [7, 0.25]],
                      "traps": {"family": "computational"}},
         "strategy": {"alpha": -3.0, "kind": "phase-attack", "placement": "post"},
         "variant": {"kind": "per-round"}},
    ),
}


def plugged_acceptance(test, comb, strategy) -> float:
    """Tr(M rho) for the test state through plug's channel, the kept register untouched."""
    played = [transform_round(strategy, u, comb.k) for u in test.unitaries]
    eye = np.eye(comb.y_dim)
    network = Channel([np.kron(op, eye) for op in plug(comb, played).kraus], check=False)
    rho = network.apply(test.chi.density().matrix)
    return float(np.vdot(test.measurement.matrix, rho).real)


class TestGoldenCanonicalForm:
    @pytest.mark.parametrize("name", GOLDEN_DOCS)
    def test_hash_and_canonical_form_are_pinned(self, name):
        cfg = parse(GOLDEN_DOCS[name])
        config_hash, canonical = GOLDEN_CANONICAL[name]
        assert json.dumps(cfg.canonical(), sort_keys=True) == json.dumps(canonical, sort_keys=True)
        assert cfg.config_hash() == config_hash

    @pytest.mark.parametrize("name", GOLDEN_DOCS)
    def test_canonical_form_parses_to_itself(self, name):
        cfg = parse(GOLDEN_DOCS[name])
        again = parse(cfg.canonical())
        assert again == cfg
        assert again.canonical() == cfg.canonical()
        assert again.config_hash() == cfg.config_hash()
        # every accepted document evaluates, to the same report as its canonical form
        bundle, twin = run_scenario(cfg), run_scenario(again)
        for fmt in ("csv", "json"):
            assert emit_bytes(bundle, fmt) == emit_bytes(twin, fmt)
        setup = cfg.canonical()["variant"].get("setup", {})
        if setup.get("family") == "custom":
            general = custom_test_setup(setup)
            ((n, test),) = general.tests.items()
            comb = general.combs[(n, 1)]
            for strategy in (PhaseAttack(0.0), PhaseAttack(0.9), PhaseAttack(0.9, Placement.PRE)):
                assert general_test_acceptance(test, comb, strategy) == pytest.approx(
                    plugged_acceptance(test, comb, strategy), abs=1e-10)


class TestCanonicalization:
    def test_hash_ignores_key_order(self):
        doc = minimal_doc()
        reordered = json.loads(json.dumps(doc))
        reordered["protocol"] = dict(reversed(list(doc["protocol"].items())))
        assert parse(doc).config_hash() == parse(reordered).config_hash()

    def test_hash_ignores_omega_spelling(self):
        explicit = minimal_doc()
        explicit["protocol"]["omega"] = [[2, 1.0]]
        assert parse(minimal_doc()).config_hash() == parse(explicit).config_hash()

    def test_hash_changes_with_content(self):
        other = minimal_doc()
        other["protocol"]["omega"] = {"point_mass": 3}
        assert parse(minimal_doc()).config_hash() != parse(other).config_hash()

    @pytest.mark.parametrize("spelled, short", [
        ({"channel": "dephasing", "register": 1, "strength": 0.5}, {"channel": "dephasing"}),
        ({"channel": "depolarizing", "strength": 1.0}, {"channel": "depolarizing", "strength": 1}),
        ({}, None),
    ], ids=["defaults", "int-strength", "empty-tooth"])
    def test_hash_ignores_tooth_spelling(self, spelled, short):
        a, b = parse(custom_tooth_doc(spelled)), parse(custom_tooth_doc(short))
        assert a.canonical() == b.canonical()
        assert a.config_hash() == b.config_hash()
        assert a == b
        assert hash(a) == hash(b)

    def test_hash_spells_out_trap_defaults(self):
        short, spelled = minimal_doc(), minimal_doc()
        short["protocol"]["traps"] = {"family": "random"}
        spelled["protocol"]["traps"] = {"family": "random", "seed": 0}
        a, b = parse(short), parse(spelled)
        assert a.canonical()["protocol"]["traps"] == {"family": "random", "seed": 0}
        assert a.config_hash() == b.config_hash()
        other = minimal_doc()
        other["protocol"]["traps"] = {"family": "random", "seed": 1}
        assert parse(other).config_hash() != a.config_hash()

    def test_canonical_round_trip(self):
        doc = minimal_doc(
            strategy={"kind": "phase-attack", "alpha": 0.75, "placement": "pre"},
            sweep={"n_values": [1, 2, 5]},
            monte_carlo={"trials": 1000, "seed": 3},
            output={"path": "report.csv", "format": "csv"},
        )
        cfg = parse(doc)
        again = parse(cfg.canonical())
        assert again == cfg


ROOT = Path(__file__).resolve().parents[1]


def json_blocks(name):
    return [json.loads(b) for b in
            re.findall(r"```json\n(.*?)```", (ROOT / name).read_text("utf-8"), re.S)]


class TestDocumentedConfigsParse:
    def test_readme_config(self):
        (doc,) = json_blocks("README.md")
        parse(doc)

    def test_schema_fragments(self):
        protocol, strategy, variant = json_blocks("docs/scenario-schema.md")
        parse(minimal_doc(protocol=protocol))
        parse(minimal_doc(strategy=strategy))
        parse(minimal_doc(variant=variant))
