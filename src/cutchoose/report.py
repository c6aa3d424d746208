"""Scenario orchestration and machine-readable report emission.

``run_scenario`` is pure: it returns a bundle and writes nothing. Emission
is deterministic — identical configs (including seeds) produce byte-identical
CSV/JSON files, so a bundle holds no timing. CSV numbers are rendered with 12
significant digits; JSON is one ``json.dumps`` line with sorted keys.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import __version__
from .bounds import PROOF_STEP_NAMES, TradeoffReport, run_tradeoff_check
from .combs import GeneralSetup, bell_test_setup, custom_test_setup, general_tradeoff_check
from .config import ScenarioConfig, sweep_rows
from .errors import OutOfDomainError
from .families import ACCEPTANCE_FAMILIES, ACCEPTANCE_MODES, TRAP_FAMILIES
from .protocol import (
    MonteCarloResult,
    ProtocolSpec,
    RoundDistribution,
    RoundOutcomeTable,
    monte_carlo_run,
)
from .strategies import HONEST, PhaseAttack, Placement, SecurityModel

# the scalar fields of a report row, in CSV column order: (name, getter of a TradeoffReport)
_FIELDS = (
    ("model", lambda r: r.model.value),
    ("variant", lambda r: r.variant.value),
    ("N", lambda r: float(r.n_expected)),
    ("alpha", attrgetter("alpha")),
    ("p_H", attrgetter("p_h")),
    ("p_D", attrgetter("p_d")),
    ("eps_h", attrgetter("eps_h")),
    ("eps_d", attrgetter("eps_d")),
    ("bound", attrgetter("bound")),
    ("satisfied", attrgetter("satisfied")),
)
# the Monte-Carlo fields: (CSV column, key in the JSON "monte_carlo", getter of a McComparison)
_MC_FIELDS = (
    ("mc_p_H", "p_H_empirical", lambda mc: mc.honest.accept_rate),
    ("mc_p_D", "p_D_empirical", lambda mc: mc.attacked.accept_rate),
    ("mc_trials", "trials", attrgetter("trials")),
    ("mc_seed", "seed", attrgetter("seed")),
)


@dataclass(frozen=True)
class McComparison:
    trials: int
    seed: int
    honest: MonteCarloResult
    attacked: MonteCarloResult


@dataclass(frozen=True)
class RunRecord:
    sweep_index: int
    report: TradeoffReport
    mc: McComparison | None


@dataclass(frozen=True)
class BundleMetadata:
    config_hash: str
    seed: int | None
    versions: dict


@dataclass(frozen=True)
class ReportBundle:
    config: ScenarioConfig
    runs: tuple[RunRecord, ...]
    metadata: BundleMetadata

    @property
    def all_satisfied(self) -> bool:
        """Bound verdict over applicable rows (trivial attacks don't count)."""
        return all(r.report.satisfied for r in self.runs if not r.report.trivial_attack)


def _row_source(doc: dict, omega_pairs) -> ProtocolSpec | GeneralSetup:
    """The per-round spec or the general setup of one sweep row of a normalized
    document, built once and certified under every model."""
    setup = doc["variant"].get("setup")
    if setup is not None:  # general tests
        if setup["family"] == "bell":
            return bell_test_setup(omega_pairs[0][0])  # a point mass, checked at parse time
        return custom_test_setup(setup)
    p = doc["protocol"]
    traps = dict(p["traps"])
    traps = TRAP_FAMILIES[traps.pop("family")](**traps)
    acceptance = ACCEPTANCE_FAMILIES[p["acceptance"]["family"]](traps)
    rule = ACCEPTANCE_MODES[p["acceptance"]["mode"]](acceptance)
    return ProtocolSpec(RoundDistribution.from_pairs(omega_pairs), p["k"], traps, rule)


def _resolve_alpha_override(strategy: dict) -> float | None:
    """None means 'theorem-optimal for each (model, variant, N)'."""
    if strategy["kind"] == "honest":
        return 0.0
    if strategy["alpha"] == "theorem-optimal":
        return None
    return float(strategy["alpha"])


def _certify(source, model, alpha_override, placement) -> TradeoffReport:
    if isinstance(source, GeneralSetup):
        return general_tradeoff_check(
            model, source, alpha_override=alpha_override, placement=placement
        )
    return run_tradeoff_check(source, model, alpha_override=alpha_override, placement=placement)


def run_scenario(config: ScenarioConfig, seed_override: int | None = None) -> ReportBundle:
    """Evaluate every (sweep entry, security model) pair of a scenario.

    Deterministic given the config and seed; runs follow the sweep index,
    with the models in config order within each entry. With ``monte_carlo``
    set, one sampler call per entry runs the honest strategy and each model's
    attack on the same draws.
    """
    doc = config.canonical()
    monte_carlo = doc.get("monte_carlo")
    mc_seed = seed_override
    if mc_seed is None:
        mc_seed = monte_carlo["seed"] if monte_carlo is not None else 0
    # an honest strategy runs as the trivial attack, at the default placement
    placement = Placement(doc["strategy"].get("placement", Placement.POST.value))
    alpha_override = _resolve_alpha_override(doc["strategy"])
    models = [SecurityModel(name) for name in doc["models"]]
    runs = []
    for idx, (_, omega) in enumerate(sweep_rows(doc["protocol"]["omega"], doc.get("sweep"))):
        source = _row_source(doc, omega)
        reports = [_certify(source, model, alpha_override, placement) for model in models]
        mcs = [None] * len(reports)
        if monte_carlo is not None:  # per-round rows only, checked at parse time
            trials, seed = monte_carlo["trials"], mc_seed + idx
            attacks = [PhaseAttack(r.alpha, placement) for r in reports]
            honest, *attacked = monte_carlo_run(source, (HONEST, *attacks), trials, seed)
            mcs = [McComparison(trials, seed, honest, a) for a in attacked]
        runs += [RunRecord(idx, r, mc) for r, mc in zip(reports, mcs)]
    meta = BundleMetadata(
        config_hash=config.config_hash(),
        seed=mc_seed if monte_carlo is not None else None,
        versions={"cutchoose": __version__, "numpy": np.__version__},
    )
    return ReportBundle(config=config, runs=tuple(runs), metadata=meta)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "na"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def csv_columns(with_mc: bool) -> tuple[str, ...]:
    cols = [name for name, _ in _FIELDS]
    for name in PROOF_STEP_NAMES:
        cols += [f"step_{name}_lhs", f"step_{name}_rhs", f"step_{name}_holds"]
    if with_mc:
        cols += [name for name, _, _ in _MC_FIELDS]
    return tuple(cols)


def _csv_row(record: RunRecord, with_mc: bool) -> list[str]:
    r = record.report
    row = [_fmt(get(r)) for _, get in _FIELDS]
    for s in r.proof_steps:  # in PROOF_STEP_NAMES order
        row += [_fmt(s.lhs), _fmt(s.rhs), _fmt(s.holds)]
    if with_mc:
        row += [_fmt(None if record.mc is None else get(record.mc)) for _, _, get in _MC_FIELDS]
    return row


def _rows(table: RoundOutcomeTable) -> list[dict]:
    """The table as one ``{"n", "p"}`` row per support point, in order."""
    return [{"n": n, "p": row.tolist()} for (n, _), row in zip(table.omega.support, table.rows)]


def _json_run(record: RunRecord) -> dict:
    r = record.report
    doc = {
        "sweep_index": record.sweep_index,
        **{name: get(r) for name, get in _FIELDS},
        "trivial_attack": r.trivial_attack,
        "proof_steps": [
            {"name": s.name, "lhs": s.lhs, "rhs": s.rhs, "holds": s.holds}
            for s in r.proof_steps
        ],
        "rounds": {"honest": _rows(r.honest_rounds), "attacked": _rows(r.attacked_rounds)},
    }
    if record.mc is not None:
        doc["monte_carlo"] = {key: get(record.mc) for _, key, get in _MC_FIELDS}
    return doc


def _json_doc(bundle: ReportBundle) -> dict:
    return {
        "config": bundle.config.canonical(),
        "metadata": {
            "config_hash": bundle.metadata.config_hash,
            "seed": bundle.metadata.seed,
            "versions": bundle.metadata.versions,
        },
        "runs": [_json_run(r) for r in bundle.runs],
    }


def emit_bytes(bundle: ReportBundle, fmt: str) -> bytes:
    """Serialize a bundle; identical bundles give identical bytes."""
    if fmt == "csv":
        with_mc = bundle.metadata.seed is not None  # set exactly when monte_carlo is
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_columns(with_mc))
        for record in bundle.runs:
            writer.writerow(_csv_row(record, with_mc))
        return buf.getvalue().encode("utf-8")
    if fmt == "json":
        return (json.dumps(_json_doc(bundle), sort_keys=True) + "\n").encode("utf-8")
    raise OutOfDomainError(f"unknown output format {fmt!r}")


def emit(bundle: ReportBundle, fmt: str, path) -> None:
    """Write the serialized bundle to ``path``."""
    data = emit_bytes(bundle, fmt)
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
