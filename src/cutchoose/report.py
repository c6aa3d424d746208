"""Scenario orchestration and machine-readable report emission.

``run_scenario`` is pure: it returns a bundle and writes nothing. Emission
is deterministic — identical configs (including seeds) produce byte-identical
CSV/JSON files. Wall time is tracked on the in-memory bundle only and never
serialized, precisely to keep that guarantee. Numbers are rendered with 12
significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import TradeoffReport, run_tradeoff_check
from .combs import GeneralSetup, bell_test_setup, custom_test_setup, general_tradeoff_check
from .config import ScenarioConfig, sweep_rows
from .errors import OutOfDomainError
from .families import ACCEPTANCE_FAMILIES, ACCEPTANCE_MODES, TRAP_FAMILIES
from .protocol import (
    MonteCarloResult,
    ProtocolSpec,
    RoundDistribution,
    monte_carlo_run,
)
from .strategies import HONEST, PhaseAttack, Placement

PROOF_STEP_NAMES = (
    "correctness_floor",
    "security_floor",
    "sum_vs_disturbance",
    "acceptance_gap",
    "theorem_bound",
)

_BASE_COLUMNS = (
    "model", "variant", "N", "alpha", "p_H", "p_D",
    "eps_h", "eps_d", "bound", "satisfied",
)
_MC_COLUMNS = ("mc_p_H", "mc_p_D", "mc_trials", "mc_seed")


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
    wall_time_s: float  # in-memory only, never emitted


@dataclass(frozen=True)
class ReportBundle:
    config: ScenarioConfig
    runs: tuple[RunRecord, ...]
    metadata: BundleMetadata

    @property
    def all_satisfied(self) -> bool:
        """Bound verdict over applicable rows (trivial attacks don't count)."""
        return all(r.report.satisfied for r in self.runs if r.report.applicable)


def _row_source(config: ScenarioConfig, omega_pairs) -> ProtocolSpec | GeneralSetup:
    """The per-round spec or the general setup of one sweep row, built once
    and certified under every model."""
    if config.variant.kind == "general-tests":
        n = omega_pairs[0][0]  # a point mass, checked at parse time
        if config.variant.setup_family == "bell":
            return bell_test_setup(n)
        return custom_test_setup(config.variant.custom, n)
    p = config.protocol
    traps = TRAP_FAMILIES[p.trap_family](**dict(p.trap_params))
    rule = ACCEPTANCE_MODES[p.acceptance_mode](ACCEPTANCE_FAMILIES[p.acceptance_family](traps))
    return ProtocolSpec(RoundDistribution.from_pairs(omega_pairs), p.k, traps, rule)


def _resolve_alpha_override(config: ScenarioConfig) -> float | None:
    """None means 'theorem-optimal for each (model, variant, N)'."""
    s = config.strategy
    if s.kind == "honest":
        return 0.0
    if s.alpha == "theorem-optimal":
        return None
    return float(s.alpha)


def _run_one(config, sweep_index, source, model, mc_seed, honest_mc) -> RunRecord:
    placement = Placement(config.strategy.placement)
    alpha_override = _resolve_alpha_override(config)
    if isinstance(source, GeneralSetup):
        report = general_tradeoff_check(
            model, source, alpha_override=alpha_override, placement=placement
        )
        return RunRecord(sweep_index, report, None)
    report = run_tradeoff_check(source, model, alpha_override=alpha_override, placement=placement)
    mc = None
    if honest_mc is not None:
        seed = mc_seed + sweep_index
        attack = PhaseAttack(report.alpha, placement)
        mc = McComparison(
            trials=config.monte_carlo.trials,
            seed=seed,
            honest=honest_mc,
            attacked=monte_carlo_run(source, attack, config.monte_carlo.trials, seed),
        )
    return RunRecord(sweep_index, report, mc)


def run_scenario(config: ScenarioConfig, seed_override: int | None = None) -> ReportBundle:
    """Evaluate every (sweep entry, security model) pair of a scenario.

    Deterministic given the config and seed; runs follow the sweep index,
    with the models in config order within each entry. The honest sampled
    run does not depend on the model, so each entry samples it once.
    """
    t0 = time.perf_counter()
    mc_seed = seed_override
    if mc_seed is None:
        mc_seed = config.monte_carlo.seed if config.monte_carlo is not None else 0
    runs = []
    for idx, (_, omega) in enumerate(sweep_rows(config.protocol.omega, config.sweep)):
        source = _row_source(config, omega)
        honest_mc = None
        if config.monte_carlo is not None:  # per-round rows only, checked at parse time
            honest_mc = monte_carlo_run(source, HONEST, config.monte_carlo.trials, mc_seed + idx)
        runs += [_run_one(config, idx, source, model, mc_seed, honest_mc)
                 for model in config.models]
    meta = BundleMetadata(
        config_hash=config.config_hash(),
        seed=mc_seed if config.monte_carlo is not None else None,
        versions={"cutchoose": __version__, "numpy": np.__version__},
        wall_time_s=time.perf_counter() - t0,
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
    cols = list(_BASE_COLUMNS)
    for name in PROOF_STEP_NAMES:
        cols += [f"step_{name}_lhs", f"step_{name}_rhs", f"step_{name}_holds"]
    if with_mc:
        cols += list(_MC_COLUMNS)
    return tuple(cols)


def _csv_row(record: RunRecord, with_mc: bool) -> list[str]:
    r = record.report
    row = [
        r.model.value,
        r.variant.value,
        _fmt(float(r.n_expected)),
        _fmt(r.alpha),
        _fmt(r.p_h),
        _fmt(r.p_d),
        _fmt(r.eps_h),
        _fmt(r.eps_d),
        _fmt(r.bound),
        _fmt(r.satisfied),
    ]
    by_name = {s.name: s for s in r.proof_steps}
    for name in PROOF_STEP_NAMES:
        s = by_name[name]
        row += [_fmt(s.lhs), _fmt(s.rhs), _fmt(s.holds)]
    if with_mc:
        if record.mc is None:
            row += ["na", "na", "na", "na"]
        else:
            row += [
                _fmt(record.mc.honest.accept_rate),
                _fmt(record.mc.attacked.accept_rate),
                str(record.mc.trials),
                str(record.mc.seed),
            ]
    return row


def _json_run(record: RunRecord) -> dict:
    r = record.report
    doc = {
        "sweep_index": record.sweep_index,
        "model": r.model.value,
        "variant": r.variant.value,
        "N": float(r.n_expected),
        "alpha": r.alpha,
        "p_H": r.p_h,
        "p_D": r.p_d,
        "eps_h": r.eps_h,
        "eps_d": r.eps_d,
        "bound": r.bound,
        "satisfied": r.satisfied,
        "trivial_attack": r.trivial_attack,
        "proof_steps": [
            {"name": s.name, "lhs": s.lhs, "rhs": s.rhs, "holds": s.holds}
            for s in r.proof_steps
        ],
        "rounds": {  # each table as [n, ell, p] triples, n in support order
            who: [[n, ell, p] for (n, _), row in zip(t.omega.support, t.rows)
                  for ell, p in enumerate(row.tolist(), start=1)]
            for who, t in (("honest", r.honest_rounds), ("attacked", r.attacked_rounds))
        },
    }
    if record.mc is not None:
        doc["monte_carlo"] = {
            "trials": record.mc.trials,
            "seed": record.mc.seed,
            "p_H_empirical": record.mc.honest.accept_rate,
            "p_D_empirical": record.mc.attacked.accept_rate,
        }
    return doc


def emit_bytes(bundle: ReportBundle, fmt: str) -> bytes:
    """Serialize a bundle; identical bundles give identical bytes."""
    if fmt == "csv":
        with_mc = bundle.config.monte_carlo is not None
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_columns(with_mc))
        for record in bundle.runs:
            writer.writerow(_csv_row(record, with_mc))
        return buf.getvalue().encode("utf-8")
    if fmt == "json":
        doc = {
            "config": bundle.config.canonical(),
            "metadata": {
                "config_hash": bundle.metadata.config_hash,
                "seed": bundle.metadata.seed,
                "versions": bundle.metadata.versions,
            },
            "runs": [_json_run(r) for r in bundle.runs],
        }
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    raise OutOfDomainError(f"unknown output format {fmt!r}")


def emit(bundle: ReportBundle, fmt: str, path) -> None:
    """Write the serialized bundle to ``path``."""
    data = emit_bytes(bundle, fmt)
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
