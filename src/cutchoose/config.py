"""Scenario configuration: a single JSON schema, strictly validated.

The schema is one table of field rules, walked once. Unknown fields are
errors, not warnings, and every message starts with the JSON path at fault:
bare keys joined by ``.key`` and ``[i]`` steps, or ``$`` for the whole
document. The walk builds the normalized document (defaults filled, round
distributions renormalized and sorted, ``{}`` teeth written as ``null``); it
is the canonical form, so semantically identical documents share one hash.
A parsed scenario is that document and its hash: :class:`ScenarioConfig`,
whose consumers read the fields of :meth:`ScenarioConfig.canonical`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .bounds import ProtocolVariant, SecurityModel, attack_sine, theorem_bound
from .combs import NOISE_CHANNELS
from .errors import ConfigError, OutOfDomainError
from .families import ACCEPTANCE_FAMILIES, TRAP_FAMILIES
from .linalg import COMB_DIM_CAP, DIM_CAP, tol_text
from .protocol import MAX_TRIALS
from .strategies import Placement

# dimension caps, checked before anything is allocated so that errors name a path
_MAX_K = DIM_CAP.bit_length() - 1  # 2**k <= DIM_CAP
_MAX_COMB_QUBITS = COMB_DIM_CAP.bit_length() - 1  # 2**qubits <= COMB_DIM_CAP

_SUM_TOL = 1e-9  # a written distribution's sum may miss 1 by this; it is renormalized

_BAD = object()  # what a rule returns once it has recorded its error
_REQUIRED = object()  # the default of a field that must be given
_ABSENT = object()  # the default of an optional field the document leaves out


def _is_int(x, lo: int, hi: float = math.inf) -> bool:
    """True for a JSON integer (not a boolean) in ``lo..hi``."""
    return isinstance(x, int) and not isinstance(x, bool) and lo <= x <= hi


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_list(x) -> bool:  # a non-empty JSON list
    return isinstance(x, list) and len(x) > 0


class _Walk:
    """One pass of a raw document through the field rules, collecting errors.

    A rule is a sub-table, or a function ``rule(walk, raw, path, siblings)``
    that returns the normalized value, or ``_BAD`` once it has recorded an
    error; ``siblings`` holds the fields of the same object parsed before it."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")
        return _BAD

    def fields(self, raw, path: str, table: dict):
        """``raw`` as an object of ``table``'s fields, ``key -> (rule, default)``.
        A default is a value or a function of the fields parsed before it. A
        field whose rule fails is left out, so later rules and the cross-field
        checks see exactly the fields that parsed."""
        if not isinstance(raw, dict):
            return self.fail(path or "$", f"expected an object, got {type(raw).__name__}")
        for key in raw:
            if key not in table:
                self.fail(f"{path}.{key}" if path else key, "unknown field")
        doc: dict = {}
        for key, (rule, default) in table.items():
            sub = f"{path}.{key}" if path else key
            if key in raw and isinstance(rule, dict):
                value = self.fields(raw[key], sub, rule)
            elif key in raw:
                value = rule(self, raw[key], sub, doc)
            elif default is _REQUIRED:
                value = self.fail(sub, "missing required field")
            else:
                value = default(doc) if callable(default) else default
            if value is not _BAD and value is not _ABSENT:
                doc[key] = value
        return doc


def _check(test, message: str, normalize=None):
    """Rule: a value that passes ``test``, normalized when asked, else ``message``."""

    def rule(w, x, path, doc):
        if not test(x):
            return w.fail(path, f"{message}, got {x!r}")
        return x if normalize is None else normalize(x)

    return rule


def _name(names):
    return _check(lambda x: isinstance(x, str) and x in names,
                  "must be " + " or ".join(map(repr, names)))


def _integer(lo: int, hi: float = math.inf, note: str = ""):
    span = f"in {lo}..{hi}{note}" if hi < math.inf else f">= {lo}"
    return _check(lambda x: _is_int(x, lo, hi), f"must be an integer {span}")


_COUNT, _MODEL = _integer(0), _name([m.value for m in SecurityModel])


def _each(w, items: list, path: str, rule):
    """``rule`` on every item of a list; their tuple, or ``_BAD`` if one failed."""
    out = tuple(rule(w, x, f"{path}[{i}]", None) for i, x in enumerate(items))
    return _BAD if any(x is _BAD for x in out) else out


def _tagged(tag: str, tables: dict):
    """Rule: an object whose ``tag`` field names its table in ``tables``."""
    tag_rule = _name(tables)

    def rule(w, raw, path, doc):
        if not isinstance(raw, dict) or tag not in raw:
            return w.fail(path, f"expected an object with a {tag!r} field")
        name = tag_rule(w, raw[tag], f"{path}.{tag}", doc)
        if name is _BAD:
            return _BAD
        return w.fields(raw, path, {tag: (lambda *_: name, _REQUIRED), **tables[name]})

    return rule


_PAIR = _check(lambda x: isinstance(x, list) and len(x) == 2 and _is_int(x[0], 0)
               and _is_number(x[1]) and x[1] >= 0,
               "expected a [n, probability] pair of an integer n >= 0 and a probability >= 0")


def _pairs(w, raw, path, doc=None):
    """Rule: ``[[n, probability], ...]``, renormalized and sorted by ``n``."""
    if not _is_list(raw):
        return w.fail(path, "expected a non-empty list of [n, probability] pairs")
    if _each(w, raw, path, _PAIR) is _BAD:
        return _BAD
    if len({n for n, _ in raw}) != len(raw):
        return w.fail(path, "duplicate round counts")
    total = math.fsum(p for _, p in raw)
    if abs(total - 1.0) > _SUM_TOL:
        return w.fail(path, f"probabilities sum to {total:.12g}, not 1 within {tol_text(_SUM_TOL)}")
    # renormalize exactly so downstream validation at PROB_TOL always passes
    return tuple((n, p / total) for n, p in sorted(raw))


def _omega(w, raw, path, doc):
    """Rule: explicit pairs, or ``{"point_mass": n}`` written as ``[[n, 1.0]]``."""
    if not isinstance(raw, dict):
        return _pairs(w, raw, path)
    mass = w.fields(raw, path, {"point_mass": (_COUNT, _REQUIRED)})
    return ((mass["point_mass"], 1.0),) if "point_mass" in mass else _BAD


def _trap_seed(w, x, path, doc):
    if doc.get("family", "random") != "random":
        return w.fail(path, "only the 'random' family takes a seed")
    return _COUNT(w, x, path, doc)


def _models(w, raw, path, doc):
    """Rule: distinct model names; those that parse are kept for the cross-field checks."""
    if not _is_list(raw) or len(set(map(str, raw))) != len(raw):
        return w.fail(path, "expected a non-empty list of distinct model names")
    names = [_MODEL(w, m, f"{path}[{i}]", doc) for i, m in enumerate(raw)]
    return [m for m in names if m is not _BAD]


def _sweep(w, raw, path, doc):
    table = {
        "n_values": (_check(lambda x: _is_list(x) and all(_is_int(n, 1) for n in x),
                            "expected a non-empty list of integers >= 1", tuple), _ABSENT),
        "omegas": (lambda w, x, path, doc: _each(w, x, path, _pairs) if _is_list(x) else
                   w.fail(path, "expected a non-empty list of round distributions"), _ABSENT),
    }
    sweep = w.fields(raw, path, table)
    if sweep is not _BAD and len(raw.keys() & table.keys()) != 1:
        return w.fail(path, "provide exactly one of 'n_values' or 'omegas'")
    return sweep


def _of_width(make):
    """Rule ``make(width)`` for the register count parsed before it; when that
    failed, nothing more is recorded."""
    return lambda w, x, path, doc: make(doc["width"])(w, x, path, doc) if "width" in doc else _BAD


def _teeth(w, x, path, doc):
    """Rule: one tooth descriptor per gap of the holes parsed before it;
    ``null`` and ``{}`` are plain wires, written as ``null``."""
    if "hole_registers" not in doc:
        return _BAD
    gaps, width = len(doc["hole_registers"]) + 1, doc["width"]
    if not isinstance(x, list) or len(x) != gaps:
        return w.fail(path, f"expected a list of {gaps} tooth descriptors")
    table = {  # a channel tooth spells out its register and strength defaults
        "permute": (_check(lambda x: isinstance(x, list) and all(_is_int(p, 1, width) for p in x)
                           and sorted(x) == list(range(1, width + 1)),
                           f"must be a permutation of 1..{width}"), _ABSENT),
        "channel": (_name(NOISE_CHANNELS), _ABSENT),
        "register": (_integer(1, width), lambda t: 1 if "channel" in t else _ABSENT),
        "strength": (_check(lambda x: _is_number(x) and 0 <= x <= 1,
                            "must be a number in [0, 1]", float),
                     lambda t: 0.5 if "channel" in t else _ABSENT),
    }

    def tooth(w, raw, path, doc):
        if raw is None or raw == {}:
            return None
        parsed = w.fields(raw, path, table)
        if parsed is not _BAD and "channel" not in raw and raw.keys() & {"register", "strength"}:
            return w.fail(path, "'register' and 'strength' need a 'channel'")
        return parsed

    return _each(w, x, path, tooth)


def _state(w, x, path, doc):
    x = _name(("plus", "zero", "bell-pairs"))(w, x, path, doc)
    width, y_qubits = doc.get("width"), doc.get("y_qubits")  # either may have failed
    if x == "bell-pairs" and None not in (width, y_qubits) and y_qubits != width:
        return w.fail(path, "'bell-pairs' requires y_qubits == width")
    return x


_CUSTOM_SETUP = {
    # 2**(width + y_qubits) is the network's total dimension
    "width": (_integer(1, _MAX_COMB_QUBITS), _REQUIRED),
    "y_qubits": (_of_width(lambda width: _integer(
        0, _MAX_COMB_QUBITS - width, f" (at most {_MAX_COMB_QUBITS} with width)")), 0),
    "hole_registers": (_of_width(lambda width: _check(
        lambda x: _is_list(x) and all(_is_int(h, 1, width) for h in x),
        f"expected a non-empty list of register indices in 1..{width}", tuple)), _REQUIRED),
    "teeth": (_teeth, lambda doc: (None,) * (len(doc["hole_registers"]) + 1)
              if "hole_registers" in doc else _BAD),
    "state": (_state, "plus"),
    "measurement": (_name(("match-state", "identity")), "match-state"),
    "unitaries": (_name(("identity", "random")), "identity"),
    "unitary_seed": (_COUNT, 0),
}

_SCENARIO = {
    "protocol": ({
        "omega": (_omega, _REQUIRED),
        "k": (_integer(1, _MAX_K, f" (2**k within the cap {DIM_CAP})"), _REQUIRED),
        "traps": ({
            "family": (_name(TRAP_FAMILIES), _REQUIRED),
            # the family's default, spelled out so that it hashes alike
            "seed": (_trap_seed, lambda doc: TRAP_FAMILIES["random"].seed
                     if doc.get("family") == "random" else _ABSENT),
        }, _REQUIRED),
        # both names build one rule, accept iff every test passes; the
        # canonical form keeps the name as written
        "acceptance": ({"family": (_name(ACCEPTANCE_FAMILIES), _REQUIRED),
                        "mode": (_name(("per-round", "global")), "per-round")}, _REQUIRED),
    }, _REQUIRED),
    "strategy": (_tagged("kind", {
        "honest": {},
        "phase-attack": {
            "alpha": (_check(lambda x: x == "theorem-optimal" or _is_number(x),
                             "must be a number or 'theorem-optimal'",
                             lambda x: x if isinstance(x, str) else float(x)), _REQUIRED),
            "placement": (_name([p.value for p in Placement]), Placement.POST.value),
        },
    }), _REQUIRED),
    "models": (_models, _REQUIRED),
    "variant": (_tagged("kind", {
        "per-round": {},
        "general-tests": {"setup": (_tagged("family", {"bell": {}, "custom": _CUSTOM_SETUP}),
                                    _REQUIRED)},
    }), _REQUIRED),
    "sweep": (_sweep, _ABSENT),
    "monte_carlo": ({"trials": (_integer(1, MAX_TRIALS, " (the sampler's cap)"), _REQUIRED),
                     "seed": (_COUNT, _REQUIRED)}, _ABSENT),
    "output": ({"path": (_check(lambda x: isinstance(x, str) and x,
                                "must be a non-empty string"), _REQUIRED),
                "format": (_name(("csv", "json")), "csv")}, _ABSENT),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario: its normalized document as JSON text, and the hash of
    it. Configs are equal, and hash alike, when their documents are equal."""

    _document: str
    _hash: str = field(repr=False, compare=False)

    def canonical(self) -> dict:
        """The normalized document parsing built, as a fresh JSON-safe copy."""
        return json.loads(self._document)

    def config_hash(self) -> str:
        """SHA-256 of the canonical form with sorted keys, computed at parse time."""
        return self._hash


def sweep_rows(omega, sweep: dict | None) -> list[tuple[str, tuple]]:
    """(JSON path, round distribution) of each entry of a ``sweep`` document,
    in report order; without one, the protocol's own ``omega``."""
    if sweep is None:
        return [("protocol.omega", omega)]
    if "n_values" in sweep:
        return [(f"sweep.n_values[{i}]", ((n, 1.0),)) for i, n in enumerate(sweep["n_values"])]
    return [(f"sweep.omegas[{i}]", om) for i, om in enumerate(sweep["omegas"])]


def _cross_checks(w: _Walk, doc: dict, raw: dict) -> None:
    """Rules that span sections, over the fields that parsed."""
    protocol, strategy = doc.get("protocol", {}), doc.get("strategy")
    variant = doc.get("variant", {})
    setup = variant.get("setup", {})
    models = [SecurityModel(m) for m in doc.get("models", ())]
    if "sweep" in raw:  # with a sweep, the protocol's own omega gives no report row
        sweep = doc.get("sweep", {})
        rows = sweep_rows(None, sweep) if len(sweep) == 1 else []
    else:
        rows = [("protocol.omega", protocol["omega"])] if "omega" in protocol else []
    bell = setup.get("family") == "bell"
    for path, omega in rows:
        if bell and (len(omega) != 1 or not 1 <= omega[0][0] <= _MAX_COMB_QUBITS // 2):
            w.fail(path, f"bell setups need a point mass at 1..{_MAX_COMB_QUBITS // 2} "
                         f"test rounds (4**n within the cap {COMB_DIM_CAP})")
        elif strategy is not None and variant:
            # a row is certified at its mean under every model: the engine's
            # bound, and its bound-optimal angle when asked for, must exist there
            n_expected = math.fsum(n * p for n, p in omega)
            kind = ProtocolVariant(variant["kind"])
            try:
                for model in models:
                    theorem_bound(model, kind, n_expected)
                    if strategy.get("alpha") == "theorem-optimal":
                        attack_sine(model, kind, n_expected)
            except OutOfDomainError as exc:
                w.fail(path, str(exc))
    if variant.get("kind") == "general-tests":
        if protocol.get("k", 1) != 1:
            w.fail("protocol.k", "general-tests setups are built for k = 1")
        if "monte_carlo" in doc:
            w.fail("monte_carlo", "sampled runs are only available for the per-round variant")
        if setup.get("family") == "custom":
            if "sweep" in doc:
                w.fail("sweep", "custom general-tests setups do not support sweeps")
            holes, omega = len(setup.get("hole_registers", ())), protocol.get("omega")
            if holes and omega is not None and omega != ((holes, 1.0),):
                w.fail("protocol.omega",
                       f"custom setup with {holes} holes requires a point mass at {holes}")


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


def parse_config(text: bytes | str) -> ScenarioConfig:
    """Parse and fully validate a scenario config document."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError([f"$: document is not valid UTF-8: {exc}"]) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"$: document is not valid JSON: {exc}"]) from exc
    non_finite = [f"{path}: numbers must be finite" for path in _non_finite_paths(raw, "")]
    if non_finite:
        raise ConfigError(non_finite)
    w = _Walk()
    doc = w.fields(raw, "", _SCENARIO)
    if doc is not _BAD:
        _cross_checks(w, doc, raw)
    if w.errors:
        raise ConfigError(w.errors)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return ScenarioConfig(json.dumps(doc), hashlib.sha256(blob.encode("utf-8")).hexdigest())
