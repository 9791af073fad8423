"""Reference outputs of every workload case, and the check against them.

``reference.json`` holds the output of every case in every workload's pool.
Statistic-valued fields (the statistic, the critical value and the
asymptotic p-value, a smooth function of the statistic) must agree to
``REL_TOL``; permutational p-values, decisions, selected orders and study
cell counts must match exactly.

Regenerate the file, only when the package's outputs are meant to change:

    PYTHONPATH=src python3 bench/reference.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-9
TOLERANT = frozenset({"statistic", "critical_value", "p_asymptotic"})


def load() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def mismatches(got, want, path: str = "") -> list[str]:
    """Human-readable differences between an op's output and its reference."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    leaf = path.rsplit(".", 1)[-1]
    if leaf in TOLERANT and isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != reference {want!r}"]


def generate() -> dict:
    import workloads

    out = {"rel_tol": REL_TOL, "pool_seed": workloads.POOL_SEED, "workloads": {}}
    for w in workloads.WORKLOADS.values():
        state = w.setup()
        out["workloads"][w.name] = [
            w.run(state, w.make_case(k)) for k in range(w.pool_size)
        ]
        print(f"{w.name}: {w.pool_size} cases", flush=True)
    return out


if __name__ == "__main__":
    ref = generate()
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
