"""Read a CLI run's outputs and compare them with recorded reference outputs.

A run's outputs become a record::

    {"files": [...],                         # every file written
     "gof": {file: {"n": int, "ks_distance": float}},
     "csv": {file: {column: [float, ...]}}}

Every reference file must be written; extra files are allowed.  Class counts
(GoF ``n``) and the CSV headers and lengths must match exactly.  KS distances
must agree to ``KS_ATOL`` and CSV values to ``|got - want| <= RTOL * |want| +
ATOL``, so low-order bits may move (a rewritten transform or summation order
does that) but a histogram count that moves by one does not pass: a density
changes by at least 1/n >> RTOL.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
KS_ATOL = 1e-9
# Reference CSV values are stored rounded to this many significant digits,
# far below the comparison tolerance.
STORED_DIGITS = 12


def read_outputs(out_dir: Path) -> dict:
    """Record of the files a CLI run wrote into ``out_dir``."""
    files = sorted(p.name for p in out_dir.iterdir() if p.is_file())
    gof, csv = {}, {}
    for name in files:
        path = out_dir / name
        if name.startswith("gof_") and name.endswith(".json"):
            rep = json.loads(path.read_text())
            gof[name] = {"n": int(rep["n"]), "ks_distance": float(rep["ks_distance"])}
        elif name.endswith(".csv"):
            lines = path.read_text().splitlines()
            header = lines[0].split(",")
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            csv[name] = {col: [row[i] for row in rows] for i, col in enumerate(header)}
    return {"files": files, "gof": gof, "csv": csv}


def compare(got: dict, want: dict) -> list[str]:
    """Mismatches between two output records; empty when they agree."""
    problems = []
    missing = sorted(set(want["files"]) - set(got["files"]))
    if missing:
        problems.append(f"missing files {missing}")
    for name, ref in want["gof"].items():
        rep = got["gof"].get(name)
        if rep is None:
            continue  # already reported as a missing file
        if rep["n"] != ref["n"]:
            problems.append(f"{name}: n {rep['n']} != {ref['n']}")
        if not abs(rep["ks_distance"] - ref["ks_distance"]) <= KS_ATOL:
            problems.append(f"{name}: ks {rep['ks_distance']!r} != {ref['ks_distance']!r}")
    for name, ref in want["csv"].items():
        table = got["csv"].get(name)
        if table is None:
            continue
        if list(table) != list(ref):
            problems.append(f"{name}: header {list(table)} != {list(ref)}")
            continue
        for col, want_vals in ref.items():
            got_vals = table[col]
            if len(got_vals) != len(want_vals):
                problems.append(f"{name}:{col}: {len(got_vals)} rows != {len(want_vals)}")
                continue
            close = np.isclose(got_vals, want_vals, rtol=RTOL, atol=ATOL, equal_nan=True)
            if not close.all():
                i = int(np.flatnonzero(~close)[0])
                problems.append(
                    f"{name}:{col}: row {i} {got_vals[i]!r} != {want_vals[i]!r}"
                    f" ({int((~close).sum())} rows differ)"
                )
    return problems


# ---------------------------------------------------------------------------
# Reference storage: one record per (command, seed), with every CSV column
# that is the same for all recorded seeds stored once.
# ---------------------------------------------------------------------------


def _stored(v: float) -> float:
    return float(f"{v:.{STORED_DIGITS}g}") if math.isfinite(v) else v


def pack(records: list[dict]) -> dict:
    """Reference entry for one command from its records, one per seed."""
    first = records[0]
    entry = {"files": first["files"], "gof": {}, "csv": {}}
    for name in first["gof"]:
        entry["gof"][name] = {
            key: [r["gof"][name][key] for r in records] for key in ("n", "ks_distance")
        }
    for name, table in first["csv"].items():
        entry["csv"][name] = {}
        for col in table:
            per_seed = [[_stored(v) for v in r["csv"][name][col]] for r in records]
            same = all(vals == per_seed[0] for vals in per_seed)
            entry["csv"][name][col] = {"all": per_seed[0]} if same else {"by_seed": per_seed}
    return entry


def unpack(entry: dict, seed_index: int) -> dict:
    """The record a command must reproduce at the ``seed_index``-th seed."""
    gof = {
        name: {key: vals[seed_index] for key, vals in rep.items()}
        for name, rep in entry["gof"].items()
    }
    csv = {
        name: {
            col: spec["all"] if "all" in spec else spec["by_seed"][seed_index]
            for col, spec in table.items()
        }
        for name, table in entry["csv"].items()
    }
    return {"files": entry["files"], "gof": gof, "csv": csv}


def dump_reference(obj: dict) -> str:
    """JSON with one line per number list, so the file stays readable."""
    def render(value, indent):
        pad = " " * indent
        if isinstance(value, dict):
            if not value:
                return "{}"
            items = [f'{pad} {json.dumps(k)}: {render(v, indent + 1)}' for k, v in value.items()]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(value, list) and value and isinstance(value[0], list):
            items = [f"{pad} {json.dumps(v)}" for v in value]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        return json.dumps(value)

    return render(obj, 0) + "\n"
