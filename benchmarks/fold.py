"""Fold pytest-benchmark JSON files into a BENCH_<n>.json summary.

    python benchmarks/fold.py --change change.json [--parent parent.json] --out BENCH_2.json

Each benchmark gets its median, interquartile range and round count in
seconds, per side, and with both sides the parent/change median ratio.  The
environment block records Python, mpmath and its backend, and the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform


def environment() -> dict:
    import mpmath
    import mpmath.libmp

    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "cpu_count": os.cpu_count(),
            "machine": platform.machine()}


def _stats(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return {b["name"]: {"median_s": b["stats"]["median"], "iqr_s": b["stats"]["iqr"],
                        "rounds": b["stats"]["rounds"]}
            for b in data["benchmarks"]}


def fold(change: str, parent: str | None = None) -> dict:
    sides = {"change": _stats(change)}
    if parent:
        sides["parent"] = _stats(parent)
    rows = {}
    for name, row in sides["change"].items():
        entry = {side: stats[name] for side, stats in sides.items() if name in stats}
        if "parent" in entry:
            entry["parent_over_change"] = round(
                entry["parent"]["median_s"] / row["median_s"], 2)
        rows[name] = entry
    return {"environment": environment(), "benchmarks": rows}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--change", required=True)
    parser.add_argument("--parent")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(fold(args.change, args.parent), fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
