"""Scenario configuration: a single JSON schema, strictly validated.

Unknown fields are errors, not warnings, and every message names the JSON
path at fault. Parsed configs are normalized (defaults filled, round
distributions renormalized), so semantically identical documents produce
identical canonical forms and hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .errors import ConfigError
from .linalg import COMB_DIM_CAP, DIM_CAP
from .strategies import Placement, SecurityModel

_MODEL_NAMES = {m.value: m for m in SecurityModel}
_PLACEMENT_NAMES = {p.value: p for p in Placement}

# dimension caps, checked before anything is allocated so that errors name a path
_MAX_K = DIM_CAP.bit_length() - 1  # 2**k <= DIM_CAP
_MAX_COMB_QUBITS = COMB_DIM_CAP.bit_length() - 1  # 2**qubits <= COMB_DIM_CAP


def _is_int(x, lo: int, hi: float = math.inf) -> bool:
    """True for a JSON integer (not a boolean) in ``lo..hi``."""
    return isinstance(x, int) and not isinstance(x, bool) and lo <= x <= hi


class _Validator:
    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def require_dict(self, obj, path: str, required: dict, optional: dict):
        """Check key presence/types; returns False if obj is not a dict."""
        if not isinstance(obj, dict):
            self.fail(path, f"expected an object, got {type(obj).__name__}")
            return False
        known = set(required) | set(optional)
        for key in obj:
            if key not in known:
                self.fail(f"{path}.{key}", "unknown field")
        ok = True
        for key in required:
            if key not in obj:
                self.fail(f"{path}.{key}", "missing required field")
                ok = False
        return ok

    def raise_if_failed(self):
        if self.errors:
            raise ConfigError(self.errors)


def _non_finite_paths(obj, path: str):
    """JSON paths of NaN and infinite numbers, including literals like 1e400."""
    if isinstance(obj, float) and not math.isfinite(obj):
        yield path or "$"
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _non_finite_paths(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for idx, value in enumerate(obj):
            yield from _non_finite_paths(value, f"{path}[{idx}]")


def _check_probability_pairs(raw, path: str, v: _Validator):
    """Validate a [[n, prob], ...] list; returns a normalized tuple or None."""
    if not isinstance(raw, list) or not raw:
        v.fail(path, "expected a non-empty list of [n, probability] pairs")
        return None
    pairs = []
    for idx, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 2):
            v.fail(f"{path}[{idx}]", "expected a [n, probability] pair")
            return None
        n, p = item
        if not _is_int(n, 0):
            v.fail(f"{path}[{idx}]", f"round count must be a non-negative integer, got {n!r}")
            return None
        if not isinstance(p, (int, float)) or isinstance(p, bool) or p < 0:
            v.fail(f"{path}[{idx}]", f"probability must be non-negative, got {p!r}")
            return None
        pairs.append((n, float(p)))
    ns = [n for n, _ in pairs]
    if len(set(ns)) != len(ns):
        v.fail(path, "duplicate round counts")
        return None
    total = math.fsum(p for _, p in pairs)
    if abs(total - 1.0) > 1e-9:
        v.fail(path, f"probabilities sum to {total:.12g}, not 1 within 1e-9")
        return None
    # renormalize exactly so downstream validation at 1e-12 always passes
    return tuple(sorted((n, p / total) for n, p in pairs))


@dataclass(frozen=True)
class ProtocolConfig:
    omega: tuple[tuple[int, float], ...]
    k: int
    trap_family: str
    trap_params: tuple[tuple[str, object], ...]
    acceptance_family: str
    acceptance_mode: str


@dataclass(frozen=True)
class StrategyConfig:
    kind: str  # "honest" | "phase-attack"
    alpha: float | str | None  # number or "theorem-optimal"
    placement: str


@dataclass(frozen=True)
class CustomComb:
    width: int
    y_qubits: int
    hole_registers: tuple[int, ...]
    teeth: tuple[tuple[tuple[str, object], ...] | None, ...]
    state: str
    measurement: str
    unitaries: str
    unitary_seed: int


@dataclass(frozen=True)
class VariantConfig:
    kind: str  # "per-round" | "general-tests"
    setup_family: str | None = None  # "bell" | "custom"
    custom: CustomComb | None = None


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...] | None
    omegas: tuple[tuple[tuple[int, float], ...], ...] | None


@dataclass(frozen=True)
class MonteCarloConfig:
    trials: int
    seed: int


@dataclass(frozen=True)
class OutputConfig:
    path: str
    format: str


@dataclass(frozen=True)
class ScenarioConfig:
    protocol: ProtocolConfig
    strategy: StrategyConfig
    models: tuple[SecurityModel, ...]
    variant: VariantConfig
    sweep: SweepConfig | None = None
    monte_carlo: MonteCarloConfig | None = None
    output: OutputConfig | None = None

    def canonical(self) -> dict:
        """Normalized, JSON-safe form used for hashing and round-tripping."""
        doc: dict = {
            "protocol": {
                "omega": [[n, p] for n, p in self.protocol.omega],
                "k": self.protocol.k,
                "traps": {"family": self.protocol.trap_family,
                          **dict(self.protocol.trap_params)},
                "acceptance": {"family": self.protocol.acceptance_family,
                               "mode": self.protocol.acceptance_mode},
            },
            "strategy": (
                {"kind": "honest"}
                if self.strategy.kind == "honest"
                else {"kind": "phase-attack", "alpha": self.strategy.alpha,
                      "placement": self.strategy.placement}
            ),
            "models": [m.value for m in self.models],
            "variant": _variant_doc(self.variant),
        }
        if self.sweep is not None:
            doc["sweep"] = (
                {"n_values": list(self.sweep.n_values)}
                if self.sweep.n_values is not None
                else {"omegas": [[[n, p] for n, p in om] for om in self.sweep.omegas]}
            )
        if self.monte_carlo is not None:
            doc["monte_carlo"] = {"trials": self.monte_carlo.trials,
                                  "seed": self.monte_carlo.seed}
        if self.output is not None:
            doc["output"] = {"path": self.output.path, "format": self.output.format}
        return doc

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sweep_rows(omega, sweep: SweepConfig | None) -> list[tuple[str, tuple]]:
    """(JSON path, round distribution) of each sweep entry, in report order."""
    if sweep is None:
        return [("protocol.omega", omega)]
    if sweep.n_values is not None:
        return [(f"sweep.n_values[{i}]", ((n, 1.0),)) for i, n in enumerate(sweep.n_values)]
    return [(f"sweep.omegas[{i}]", om) for i, om in enumerate(sweep.omegas)]


def _variant_doc(variant: VariantConfig) -> dict:
    if variant.kind == "per-round":
        return {"kind": "per-round"}
    doc: dict = {"kind": "general-tests", "setup": {"family": variant.setup_family}}
    if variant.custom is not None:
        c = variant.custom
        doc["setup"].update(
            {
                "width": c.width,
                "y_qubits": c.y_qubits,
                "hole_registers": list(c.hole_registers),
                "teeth": [None if t is None else dict(t) for t in c.teeth],
                "state": c.state,
                "measurement": c.measurement,
                "unitaries": c.unitaries,
                "unitary_seed": c.unitary_seed,
            }
        )
    return doc


def _parse_protocol(raw, v: _Validator) -> ProtocolConfig | None:
    path = "protocol"
    if not v.require_dict(raw, path, {"omega": 0, "k": 0, "traps": 0, "acceptance": 0}, {}):
        return None
    omega_raw = raw.get("omega")
    if isinstance(omega_raw, dict):
        if not v.require_dict(omega_raw, f"{path}.omega", {"point_mass": 0}, {}):
            omega = None
        else:
            n = omega_raw["point_mass"]
            if not _is_int(n, 0):
                v.fail(f"{path}.omega.point_mass", f"must be a non-negative integer, got {n!r}")
                omega = None
            else:
                omega = ((n, 1.0),)
    else:
        omega = _check_probability_pairs(omega_raw, f"{path}.omega", v)

    k = raw.get("k")
    if not _is_int(k, 1, _MAX_K):
        v.fail(f"{path}.k", f"must be an integer in 1..{_MAX_K} (2**k within the cap {DIM_CAP}), "
                            f"got {k!r}")
        k = None

    trap_family, trap_params = None, ()
    traps_raw = raw.get("traps")
    if v.require_dict(traps_raw, f"{path}.traps", {"family": 0}, {"seed": 0}):
        trap_family = traps_raw["family"]
        if trap_family not in ("plus", "computational", "random"):
            v.fail(f"{path}.traps.family", f"unknown trap family {trap_family!r}")
            trap_family = None
        if "seed" in traps_raw:
            if trap_family not in (None, "random"):
                v.fail(f"{path}.traps.seed", "only the 'random' family takes a seed")
            elif not _is_int(traps_raw["seed"], 0):
                v.fail(f"{path}.traps.seed", "must be a non-negative integer")
            else:
                trap_params = (("seed", traps_raw["seed"]),)

    acc_family, acc_mode = None, "per-round"
    acc_raw = raw.get("acceptance")
    if v.require_dict(acc_raw, f"{path}.acceptance", {"family": 0}, {"mode": 0}):
        acc_family = acc_raw["family"]
        if acc_family not in ("plus", "computational", "matched"):
            v.fail(f"{path}.acceptance.family", f"unknown acceptance family {acc_family!r}")
            acc_family = None
        acc_mode = acc_raw.get("mode", "per-round")
        if acc_mode not in ("per-round", "global"):
            v.fail(f"{path}.acceptance.mode", f"must be 'per-round' or 'global', got {acc_mode!r}")

    if None in (omega, k, trap_family, acc_family):
        return None
    return ProtocolConfig(omega, k, trap_family, trap_params, acc_family, acc_mode)


def _parse_strategy(raw, v: _Validator) -> StrategyConfig | None:
    path = "strategy"
    if not isinstance(raw, dict) or "kind" not in raw:
        v.fail(path, "expected an object with a 'kind' field")
        return None
    kind = raw["kind"]
    if kind == "honest":
        v.require_dict(raw, path, {"kind": 0}, {})
        return StrategyConfig("honest", None, "post")
    if kind != "phase-attack":
        v.fail(f"{path}.kind", f"must be 'honest' or 'phase-attack', got {kind!r}")
        return None
    if not v.require_dict(raw, path, {"kind": 0, "alpha": 0}, {"placement": 0}):
        return None
    alpha = raw["alpha"]
    if alpha == "theorem-optimal":
        pass
    elif isinstance(alpha, (int, float)) and not isinstance(alpha, bool):
        alpha = float(alpha)
    else:
        v.fail(f"{path}.alpha", f"must be a number or 'theorem-optimal', got {alpha!r}")
        return None
    placement = raw.get("placement", "post")
    if placement not in _PLACEMENT_NAMES:
        v.fail(f"{path}.placement", f"must be 'pre' or 'post', got {placement!r}")
        return None
    return StrategyConfig("phase-attack", alpha, placement)


def _parse_variant(raw, v: _Validator) -> VariantConfig | None:
    path = "variant"
    if not isinstance(raw, dict) or "kind" not in raw:
        v.fail(path, "expected an object with a 'kind' field")
        return None
    kind = raw["kind"]
    if kind == "per-round":
        v.require_dict(raw, path, {"kind": 0}, {})
        return VariantConfig("per-round")
    if kind != "general-tests":
        v.fail(f"{path}.kind", f"must be 'per-round' or 'general-tests', got {kind!r}")
        return None
    if not v.require_dict(raw, path, {"kind": 0, "setup": 0}, {}):
        return None
    setup = raw["setup"]
    if not isinstance(setup, dict) or "family" not in setup:
        v.fail(f"{path}.setup", "expected an object with a 'family' field")
        return None
    family = setup["family"]
    if family == "bell":
        v.require_dict(setup, f"{path}.setup", {"family": 0}, {})
        return VariantConfig("general-tests", "bell")
    if family != "custom":
        v.fail(f"{path}.setup.family", f"must be 'bell' or 'custom', got {family!r}")
        return None
    required = {"family": 0, "width": 0, "hole_registers": 0}
    optional = {"y_qubits": 0, "teeth": 0, "state": 0, "measurement": 0,
                "unitaries": 0, "unitary_seed": 0}
    if not v.require_dict(setup, f"{path}.setup", required, optional):
        return None
    custom = _parse_custom_comb(setup, f"{path}.setup", v)
    if custom is None:
        return None
    return VariantConfig("general-tests", "custom", custom)


def _parse_custom_comb(setup, path, v: _Validator) -> CustomComb | None:
    width = setup["width"]
    # 2**(width + y_qubits) is the network's total dimension
    if not _is_int(width, 1, _MAX_COMB_QUBITS):
        v.fail(f"{path}.width", f"must be an integer in 1..{_MAX_COMB_QUBITS}, got {width!r}")
        return None
    y_qubits = setup.get("y_qubits", 0)
    if not _is_int(y_qubits, 0, _MAX_COMB_QUBITS - width):
        v.fail(f"{path}.y_qubits", f"must be an integer in 0..{_MAX_COMB_QUBITS - width} "
                                   f"(at most {_MAX_COMB_QUBITS} with width), got {y_qubits!r}")
        return None
    holes_raw = setup.get("hole_registers")
    if not isinstance(holes_raw, list) or not holes_raw or not all(
        _is_int(h, 1, width) for h in holes_raw
    ):
        v.fail(f"{path}.hole_registers",
               f"expected a non-empty list of register indices in 1..{width}")
        return None
    n_holes = len(holes_raw)
    teeth_raw = setup.get("teeth", [None] * (n_holes + 1))
    if not isinstance(teeth_raw, list) or len(teeth_raw) != n_holes + 1:
        v.fail(f"{path}.teeth", f"expected a list of {n_holes + 1} tooth descriptors")
        return None
    teeth = []
    for j, tooth in enumerate(teeth_raw):
        if tooth is None:
            teeth.append(None)
            continue
        if not v.require_dict(tooth, f"{path}.teeth[{j}]", {},
                              {"permute": 0, "channel": 0, "register": 0, "strength": 0}):
            return None
        if "permute" in tooth:
            perm = tooth["permute"]
            if (not isinstance(perm, list) or not all(_is_int(p, 1, width) for p in perm)
                    or sorted(perm) != list(range(1, width + 1))):
                v.fail(f"{path}.teeth[{j}].permute",
                       f"must be a permutation of 1..{width}")
                return None
        if "channel" in tooth:
            if tooth["channel"] not in ("dephasing", "depolarizing"):
                v.fail(f"{path}.teeth[{j}].channel",
                       f"unknown channel {tooth['channel']!r} (palette: dephasing, depolarizing)")
                return None
            reg = tooth.get("register", 1)
            if not _is_int(reg, 1, width):
                v.fail(f"{path}.teeth[{j}].register", f"must be in 1..{width}")
                return None
            strength = tooth.get("strength", 0.5)
            if (not isinstance(strength, (int, float)) or isinstance(strength, bool)
                    or not 0 <= strength <= 1):
                v.fail(f"{path}.teeth[{j}].strength", "must be in [0, 1]")
                return None
        teeth.append(tuple(sorted(tooth.items())))
    state = setup.get("state", "plus")
    if state not in ("plus", "zero", "bell-pairs"):
        v.fail(f"{path}.state", f"must be 'plus', 'zero' or 'bell-pairs', got {state!r}")
        return None
    if state == "bell-pairs" and y_qubits != width:
        v.fail(f"{path}.state", "'bell-pairs' requires y_qubits == width")
        return None
    measurement = setup.get("measurement", "match-state")
    if measurement not in ("match-state", "identity"):
        v.fail(f"{path}.measurement",
               f"must be 'match-state' or 'identity', got {measurement!r}")
        return None
    unitaries = setup.get("unitaries", "identity")
    if unitaries not in ("identity", "random"):
        v.fail(f"{path}.unitaries", f"must be 'identity' or 'random', got {unitaries!r}")
        return None
    unitary_seed = setup.get("unitary_seed", 0)
    if not _is_int(unitary_seed, 0):
        v.fail(f"{path}.unitary_seed", "must be a non-negative integer")
        return None
    return CustomComb(width, y_qubits, tuple(holes_raw), tuple(teeth),
                      state, measurement, unitaries, unitary_seed)


def _parse_sweep(raw, v: _Validator) -> SweepConfig | None:
    path = "sweep"
    if not v.require_dict(raw, path, {}, {"n_values": 0, "omegas": 0}):
        return None
    has_n = "n_values" in raw
    has_om = "omegas" in raw
    if has_n == has_om:
        v.fail(path, "provide exactly one of 'n_values' or 'omegas'")
        return None
    if has_n:
        values = raw["n_values"]
        if (not isinstance(values, list) or not values
                or not all(_is_int(x, 1) for x in values)):
            v.fail(f"{path}.n_values", "expected a non-empty list of integers >= 1")
            return None
        return SweepConfig(tuple(values), None)
    omegas = raw["omegas"]
    if not isinstance(omegas, list) or not omegas:
        v.fail(f"{path}.omegas", "expected a non-empty list of round distributions")
        return None
    parsed = []
    for idx, om in enumerate(omegas):
        pairs = _check_probability_pairs(om, f"{path}.omegas[{idx}]", v)
        if pairs is None:
            return None
        parsed.append(pairs)
    return SweepConfig(None, tuple(parsed))


def _parse_monte_carlo(raw, v: _Validator) -> MonteCarloConfig | None:
    path = "monte_carlo"
    if not v.require_dict(raw, path, {"trials": 0, "seed": 0}, {}):
        return None
    trials, seed = raw["trials"], raw["seed"]
    if not _is_int(trials, 1):
        v.fail(f"{path}.trials", f"must be a positive integer, got {trials!r}")
        return None
    if not _is_int(seed, 0):
        v.fail(f"{path}.seed", f"must be a non-negative integer, got {seed!r}")
        return None
    return MonteCarloConfig(trials, seed)


def _parse_output(raw, v: _Validator) -> OutputConfig | None:
    path = "output"
    if not v.require_dict(raw, path, {"path": 0}, {"format": 0}):
        return None
    out_path = raw["path"]
    if not isinstance(out_path, str) or not out_path:
        v.fail(f"{path}.path", "must be a non-empty string")
        return None
    fmt = raw.get("format", "csv")
    if fmt not in ("csv", "json"):
        v.fail(f"{path}.format", f"must be 'csv' or 'json', got {fmt!r}")
        return None
    return OutputConfig(out_path, fmt)


def parse_config(text: bytes | str) -> ScenarioConfig:
    """Parse and fully validate a scenario config document."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError([f"document is not valid UTF-8: {exc}"]) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"document is not valid JSON: {exc}"]) from exc

    v = _Validator()
    for path in _non_finite_paths(raw, ""):
        v.fail(path, "numbers must be finite")
    v.raise_if_failed()
    if not v.require_dict(
        raw, "$",
        {"protocol": 0, "strategy": 0, "models": 0, "variant": 0},
        {"sweep": 0, "monte_carlo": 0, "output": 0},
    ):
        v.raise_if_failed()

    protocol = _parse_protocol(raw.get("protocol"), v) if "protocol" in raw else None
    strategy = _parse_strategy(raw.get("strategy"), v) if "strategy" in raw else None
    variant = _parse_variant(raw.get("variant"), v) if "variant" in raw else None

    models: tuple[SecurityModel, ...] = ()
    models_raw = raw.get("models")
    if "models" in raw:
        if (not isinstance(models_raw, list) or not models_raw
                or len(set(map(str, models_raw))) != len(models_raw)):
            v.fail("models", "expected a non-empty list of distinct model names")
        else:
            good = []
            for idx, name in enumerate(models_raw):
                if name not in _MODEL_NAMES:
                    v.fail(f"models[{idx}]",
                           f"unknown model {name!r} (choose from {sorted(_MODEL_NAMES)})")
                else:
                    good.append(_MODEL_NAMES[name])
            models = tuple(good)

    sweep = _parse_sweep(raw["sweep"], v) if isinstance(raw.get("sweep"), dict) else None
    if "sweep" in raw and not isinstance(raw["sweep"], dict):
        v.fail("sweep", "expected an object")
    monte_carlo = (
        _parse_monte_carlo(raw["monte_carlo"], v) if "monte_carlo" in raw else None
    )
    output = _parse_output(raw["output"], v) if "output" in raw else None

    # cross-field constraints
    rows_known = protocol is not None and (sweep is not None or "sweep" not in raw)
    if variant is not None and variant.kind == "general-tests":
        if protocol is not None and protocol.k != 1:
            v.fail("protocol.k", "general-tests setups are built for k = 1")
        if monte_carlo is not None:
            v.fail("monte_carlo", "sampled runs are only available for the per-round variant")
        if variant.setup_family == "bell" and rows_known:
            for path, omega in sweep_rows(protocol.omega, sweep):
                if len(omega) != 1 or not 1 <= omega[0][0] <= _MAX_COMB_QUBITS // 2:
                    v.fail(path, f"bell setups need a point mass at 1..{_MAX_COMB_QUBITS // 2} "
                                 f"test rounds (4**n within the cap {COMB_DIM_CAP})")
        if variant.setup_family == "custom":
            if sweep is not None:
                v.fail("sweep", "custom general-tests setups do not support sweeps")
            if protocol is not None and variant.custom is not None:
                n_holes = len(variant.custom.hole_registers)
                point = (protocol.omega == ((n_holes, 1.0),))
                if not point:
                    v.fail("protocol.omega",
                           f"custom setup with {n_holes} holes requires a point mass at {n_holes}")
    v.raise_if_failed()
    return ScenarioConfig(protocol, strategy, models, variant, sweep, monte_carlo, output)
