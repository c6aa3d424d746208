"""The four benchmark workloads: inputs from a seed, one run, output checks.

A workload turns a seed into scenario configs (JSON text), runs them through
the package's public entry points, and checks the emitted reports. One run
goes from parsed configs to emitted CSV and JSON reports (``run_scenario`` +
``emit_bytes``), or, for ``gate``, runs the nine verification criteria.
Every check returns ``(label, passed)``; the benchmark counts them.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# gate criterion details carry their own wall times ("...; 0.18s"), which
# differ between runs; they are dropped from the gate's report text
_TIMING = re.compile(r"\d+\.\d+s\b")

_CLOSED_FORM_TOL = 1e-9
_GAP_TOL = 1e-10  # the package's own linear_gap_check tolerance
_ROUNDING = 1e-12  # floor for the 4-sigma test where the exact rate is 0 or 1


@dataclass
class Output:
    """What one run emitted: report bytes, and the gate's criterion times."""

    chunks: list[bytes]
    criterion_s: dict[str, float] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    configs: list[str]  # scenario config documents, in run order
    imports: tuple[str, ...]  # modules a user loads before running
    run: Callable  # (cutchoose, parsed configs) -> Output
    check: Callable  # (Output) -> list[(label, passed)]
    round_factors_needed: int = 0  # per-round factors one exact evaluation of the reports needs


def _scenario(protocol, strategy, variant, **extra) -> dict:
    doc = {
        "protocol": protocol,
        "strategy": strategy,
        "models": ["stand-alone", "composable"],
        "variant": variant,
    }
    doc.update(extra)
    return doc


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for one workload's inputs; any integer seed, negative too."""
    return np.random.default_rng([seed % 2**63, stream])


def _attack(rng) -> dict:
    placement = "post" if rng.integers(0, 2) == 0 else "pre"
    return {"kind": "phase-attack", "alpha": "theorem-optimal", "placement": placement}


def run_scenarios(cutchoose, parsed) -> Output:
    chunks = []
    for config in parsed:
        bundle = cutchoose.run_scenario(config)
        chunks.append(cutchoose.emit_bytes(bundle, "csv"))
        chunks.append(cutchoose.emit_bytes(bundle, "json"))
    return Output(chunks)


def run_gate(cutchoose, parsed) -> Output:
    gate = cutchoose.acceptance
    results = gate.run_all(echo=False)
    keys = [key for key, _ in gate.ALL_CRITERIA]
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name} {_TIMING.sub('', r.detail)}\n"
        for r in results
    ]
    return Output(
        ["".join(lines).encode("utf-8")],
        {key: r.seconds for key, r in zip(keys, results)},
    )


def _report_rows(output: Output):
    for chunk in output.chunks[1::2]:
        yield from json.loads(chunk)["runs"]


def _row_label(row) -> str:
    return f"{row['model']} {row['variant']} N={row['N']:g}"


def check_rows(output: Output) -> list[tuple[str, bool]]:
    """Every applicable row meets its bound; every applicable proof step holds."""
    results = []
    for row in _report_rows(output):
        label = _row_label(row)
        if not row["trivial_attack"]:
            results.append((f"{label}: bound satisfied", row["satisfied"] is True))
        for step in row["proof_steps"]:
            allowed = (True, None) if step["name"] == "theorem_bound" else (True,)
            results.append((f"{label}: step {step['name']}", step["holds"] in allowed))
    return results


def _check_closed_forms(output: Output) -> list[tuple[str, bool]]:
    results = check_rows(output)
    for row in _report_rows(output):
        n = row["N"]
        if row["model"] == "stand-alone":
            s2 = 4.0 / (9.0 * n)
            expected = (1.0 - s2) ** n * s2
        else:
            expected = (1.0 - 1.0 / (4.0 * n)) ** n / (2.0 * math.sqrt(n))
        label = _row_label(row)
        results.append((f"{label}: eps_h = 0", abs(row["eps_h"]) <= _CLOSED_FORM_TOL))
        results.append((f"{label}: eps_d closed form",
                        abs(row["eps_d"] - expected) <= _CLOSED_FORM_TOL))
    return results


def _check_sampled(output: Output) -> list[tuple[str, bool]]:
    results = check_rows(output)
    for row in _report_rows(output):
        mc = row["monte_carlo"]
        for exact, sampled, who in ((row["p_H"], mc["p_H_empirical"], "honest"),
                                    (row["p_D"], mc["p_D_empirical"], "attacked")):
            sigma = math.sqrt(max(0.0, exact * (1.0 - exact)) / mc["trials"])
            ok = abs(sampled - exact) <= 4.0 * sigma + _ROUNDING
            results.append((f"{_row_label(row)}: sampled {who} acceptance within 4 sigma", ok))
    return results


def _check_gap(output: Output) -> list[tuple[str, bool]]:
    results = check_rows(output)
    for row in _report_rows(output):
        bound = row["N"] * abs(math.sin(row["alpha"] / 2.0))
        ok = abs(row["p_H"] - row["p_D"]) <= bound + _GAP_TOL
        results.append((f"{_row_label(row)}: |p_H - p_D| <= N|sin(a/2)|", ok))
    return results


def _check_gate(output: Output) -> list[tuple[str, bool]]:
    lines = output.chunks[0].decode("utf-8").splitlines()
    return [(f"gate: {line}", line.startswith("PASS ")) for line in lines] + [
        ("gate: nine criteria ran", len(lines) == 9)
    ]


def _factors_needed(rows: int, support) -> int:
    """Round factors per exact evaluation: rows x {honest, attacked} x sum of (n + 1)."""
    return rows * 2 * sum(n + 1 for n, _ in support if n > 0)


def perround_dense(seed: int) -> Workload:
    rng = _rng(seed, 1)
    n_values = [10, 50]
    doc = _scenario(
        {"omega": {"point_mass": 1}, "k": 7,
         "traps": {"family": "plus"}, "acceptance": {"family": "plus"}},
        _attack(rng),
        {"kind": "per-round"},
        sweep={"n_values": n_values},
    )
    factors = sum(_factors_needed(2, [(n, 1.0)]) for n in n_values)
    return Workload("perround-dense", [json.dumps(doc)], ("cutchoose",),
                    run_scenarios, _check_closed_forms, factors)


def mc_sampler(seed: int) -> Workload:
    rng = _rng(seed, 2)
    omega = [[0, 0.1], [50, 0.4], [400, 0.5]]
    doc = _scenario(
        {"omega": omega, "k": 1,
         "traps": {"family": "random", "seed": int(rng.integers(0, 2**31))},
         "acceptance": {"family": "matched"}},
        _attack(rng),
        {"kind": "per-round"},
        monte_carlo={"trials": 100_000, "seed": int(rng.integers(0, 2**31))},
    )
    return Workload("mc-sampler", [json.dumps(doc)], ("cutchoose",),
                    run_scenarios, _check_sampled, _factors_needed(2, omega))


def comb_noisy(seed: int) -> Workload:
    """Custom width-2 comb with 7 holes and a noisy tooth after every hole.

    Depolarizing (4 Kraus operators) and dephasing (2) alternate, starting
    with depolarizing, so plugging composes 4**4 * 2**3 = 2048 operators.
    Strengths stay inside (0, 1), so no operator is pruned as zero.
    """
    rng = _rng(seed, 3)
    holes = 7
    teeth = [{"permute": [2, 1]} if rng.integers(0, 2) else None]
    for j in range(holes):
        tooth = {
            "channel": "depolarizing" if j % 2 == 0 else "dephasing",
            "register": int(rng.integers(1, 3)),
            "strength": round(float(rng.uniform(0.05, 0.95)), 6),
        }
        if rng.integers(0, 2):
            tooth["permute"] = [2, 1]
        teeth.append(tooth)
    custom = _scenario(
        {"omega": {"point_mass": holes}, "k": 1,
         "traps": {"family": "plus"}, "acceptance": {"family": "plus"}},
        _attack(rng),
        {"kind": "general-tests", "setup": {
            "family": "custom", "width": 2, "y_qubits": 0,
            "hole_registers": [int(r) for r in rng.integers(1, 3, size=holes)],
            "teeth": teeth, "state": "plus", "measurement": "match-state",
            "unitaries": "random", "unitary_seed": int(rng.integers(0, 2**31)),
        }},
    )
    bell = _scenario(
        {"omega": {"point_mass": 1}, "k": 1,
         "traps": {"family": "plus"}, "acceptance": {"family": "plus"}},
        _attack(rng),
        {"kind": "general-tests", "setup": {"family": "bell"}},
        sweep={"n_values": [1, 2, 3, 4]},
    )
    return Workload("comb-noisy", [json.dumps(custom), json.dumps(bell)],
                    ("cutchoose",), run_scenarios, _check_gap)


def gate(seed: int) -> Workload:
    """The nine selftest criteria; they pin their own seeds, so ``seed`` is unused."""
    return Workload("gate", [], ("cutchoose", "cutchoose.acceptance"),
                    run_gate, _check_gate)


WORKLOADS = {
    "perround-dense": perround_dense,
    "mc-sampler": mc_sampler,
    "comb-noisy": comb_noisy,
    "gate": gate,
}
