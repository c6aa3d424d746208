import json
import re
from pathlib import Path

import pytest

from cutchoose.config import ScenarioConfig, parse_config
from cutchoose.errors import ConfigError


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
        assert cfg.protocol.omega == ((2, 1.0),)
        assert cfg.strategy.kind == "honest"

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
        assert cfg.strategy.alpha == "theorem-optimal"

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
        assert cfg.variant.custom.width == 2
        assert cfg.variant.custom.hole_registers == (1, 1)

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
