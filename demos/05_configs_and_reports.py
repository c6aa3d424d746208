"""Declarative scenarios: JSON configs in, deterministic reports out.

Everything the library can run is also reachable through a validated JSON
config (the CLI subcommands `check`, `sweep` and `mc` consume the same
documents). Reports are byte-deterministic: same config, same bytes.
"""

import json
import tempfile
from pathlib import Path

from cutchoose import emit, emit_bytes, parse_config, run_scenario

doc = {
    "protocol": {
        "omega": {"point_mass": 2},
        "k": 1,
        "traps": {"family": "plus"},
        "acceptance": {"family": "plus", "mode": "per-round"},
    },
    "strategy": {"kind": "phase-attack", "alpha": "theorem-optimal", "placement": "post"},
    "models": ["stand-alone", "composable"],
    "variant": {"kind": "per-round"},
    "sweep": {"n_values": [1, 2, 5, 10, 20]},
    "monte_carlo": {"trials": 50_000, "seed": 42},
}

config = parse_config(json.dumps(doc).encode())
print("config hash:", config.config_hash())

bundle = run_scenario(config)
print(f"rows: {len(bundle.runs)}   all bounds satisfied: {bundle.all_satisfied}")

print("\nfirst CSV lines:")
for line in emit_bytes(bundle, "csv").decode().splitlines()[:3]:
    print(" ", line[:110], "...")

again = emit_bytes(run_scenario(config), "csv")
print("\nrerun produces identical bytes:", again == emit_bytes(bundle, "csv"))

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "sweep.json"
    emit(bundle, "json", out)
    echoed = json.loads(out.read_text())["config"]
    print("embedded config round-trips:", parse_config(json.dumps(echoed)) == config)

# a malformed document is rejected with the offending fields named
broken = dict(doc, protocol=dict(doc["protocol"], omega=[[0, 0.5], [2, 0.48]]))
try:
    parse_config(json.dumps(broken))
except Exception as err:
    print("\nvalidation failure example:")
    print(" ", err)
