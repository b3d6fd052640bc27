"""mirrorperiods benchmark runner.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 33 --trace 0

Run from the root of a checkout.  Each workload is a closed loop with one
caller: ops run one after another, each in a fresh interpreter (child.py)
that imports the checkout's ``src/``, until the next op would overrun
``--seconds`` (at least one op; two with ``--trace 1``).  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` ops
alternate untraced and traced, and it carries the per-layer metrics, medians
over the traced ops, plus ``trace.overhead_s`` (traced minus untraced wall
time).

Every reported time is taken at the reference CPU speed.  The host's speed
drifts by up to 2x within seconds (a neighbour on a shared core), so each op
runs pinned to one CPU beside the speed meter (meter.py), and its raw times
are multiplied by ``REFERENCE_UNIT_MS`` over the meter's milliseconds per
work unit during that op.  Raw times and the scale stay in the details
line.  The line before it holds the environment block and per-op details;
traced spans are written to ``.perfbench/``.  Exit code 2, and no result,
when the checkout has no ``src/mirrorperiods``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_LIMIT_S = 170  # the whole run, every op included, ends well inside 180 s
SETUP_PROBES = 12  # import-only children per run, timed under one meter
# Milliseconds per meter work unit at the reference speed: the unit's typical
# cost, beside an op, on the 2-vCPU Intel Xeon VM the benchmark was written on.
REFERENCE_UNIT_MS = 0.7


def _pin_to_op_cpu() -> None:
    """Run on the last CPU the runner may use, so the op and the meter share it."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Meter:
    """meter.py running beside the ops of a ``with`` block, on their CPU.

    On exit, ``scale`` is REFERENCE_UNIT_MS over the milliseconds per unit
    the meter measured, or None when it did no unit.
    """

    def __enter__(self):
        self.scale, self.units = None, 0
        self.proc = subprocess.Popen([sys.executable, "-I", str(HERE / "meter.py"),
                                      str(RUN_LIMIT_S)], stdout=subprocess.PIPE, text=True,
                                     preexec_fn=_pin_to_op_cpu)
        if self.proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("speed meter did not start")
        return self

    def __exit__(self, *exc_info):
        out = self._stop()
        try:
            data = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return
        self.units = data["units"]
        if self.units:
            self.scale = REFERENCE_UNIT_MS * self.units / (1000 * data["cpu_s"])

    def _stop(self) -> str:
        self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out


def environment() -> dict:
    """Facts that change every number: interpreter, mpmath backend, CPU, load,
    and the CPU the ops and the speed meter share."""
    import mpmath
    import mpmath.libmp

    env = {"python": platform.python_version(), "mpmath": mpmath.__version__,
           "mpmath_backend": mpmath.libmp.BACKEND, "cpu_count": os.cpu_count(),
           "op_cpu": max(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
        with open("/proc/loadavg", encoding="utf-8") as fh:
            env["loadavg_1m"] = float(fh.read().split()[0])
    except OSError:
        pass
    return env


def run_op(workload: str, inputs: dict, trace: bool, workdir: Path, timeout: float) -> dict:
    """One op in a fresh interpreter beside its own speed meter; a crash,
    timeout or bad output is a failed op."""
    with Meter() as meter:
        result = _child(workload, inputs, trace, workdir, timeout)
    result["scale"], result["meter_units"] = meter.scale, meter.units
    if meter.scale is None:
        result["errors"].append("the speed meter did no work during the op")
    return result


def _child(workload, inputs: dict, trace: bool, workdir: Path, timeout: float) -> dict:
    job = {"root": str(ROOT), "workload": workload, "inputs": inputs, "trace": trace,
           "workdir": str(workdir), "spawned": time.monotonic()}
    with subprocess.Popen([sys.executable, "-I", str(HERE / "child.py")],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT,
                          preexec_fn=_pin_to_op_cpu) as proc:
        try:
            out, err = proc.communicate(json.dumps(job), timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"errors": [f"op timed out after {timeout:.0f} s"], "trace": trace}
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"errors": [f"child exited {proc.returncode}: {err.strip()[-2000:]}"],
                "trace": trace}
    if proc.returncode != 0:
        result["errors"].append(f"child exited {proc.returncode}")
    result["trace"] = trace
    return result


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    env = environment()
    inputs = workloads.make_inputs(workload, seed)
    outdir = ROOT / ".perfbench"
    workdir = outdir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    start = time.monotonic()
    try:
        with Meter() as probe_meter:
            probes = [_child(None, {}, False, workdir, RUN_LIMIT_S)
                      for _ in range(SETUP_PROBES)]
        if probe_meter.scale is None:
            raise RuntimeError("the speed meter did no work during the set-up probes")
        for probe in probes:
            probe["scale"] = probe_meter.scale
        while True:
            left = RUN_LIMIT_S - (time.monotonic() - start)
            op_start = time.monotonic()
            ops.append(run_op(workload, inputs, trace and len(ops) % 2 == 1, workdir, left))
            ops[-1]["op_s"] = time.monotonic() - op_start
            elapsed = time.monotonic() - start
            next_op = statistics.median(op["op_s"] for op in ops)
            if ops[-1]["errors"] and "wall_s" not in ops[-1]:
                break  # a crashing op would crash again: stop, count it, report
            if len(ops) >= (2 if trace else 1) and elapsed + next_op > seconds:
                break
            if elapsed + next_op > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for op in ops[1:]:
        if op.get("report_sha256") != ops[0].get("report_sha256"):
            op["errors"].append("report bytes differ from the run's first op")
    failed = sum(1 for op in ops if op["errors"])
    timed = [op for op in ops if "wall_s" in op and op["scale"] is not None]
    if not timed:
        raise RuntimeError("no op produced timings: " + "; ".join(ops[0]["errors"]))

    def at_reference(op, seconds):
        return seconds * op["scale"]

    if trace:
        traced = [op for op in timed if op["trace"] and "layers" in op]
        untraced = [op for op in timed if not op["trace"]]
        if not traced or not untraced:
            raise RuntimeError("traced run needs one traced and one untraced op")
        units = {name: "count" if name.endswith((".calls", ".hits", ".misses", ".limit"))
                 else "bytes" if name.endswith("_bytes")
                 else "ratio" if name.endswith("_ratio")
                 else "abs" if name == "pfode.tail_estimate"
                 else "s" for name in traced[0]["layers"]}
        units["trace.overhead_s"] = "s"
        metrics = {name: statistics.median(
                       at_reference(op, op["layers"][name]) if unit == "s" else op["layers"][name]
                       for op in traced)
                   for name, unit in units.items() if name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (
            statistics.median(at_reference(op, op["wall_s"]) for op in traced)
            - statistics.median(at_reference(op, op["wall_s"]) for op in untraced))
        spans_file = outdir / f"trace-{workload}-seed{seed}.json"
        spans_file.write_text(json.dumps([op["spans"] for op in traced]))
        for op in traced:
            del op["spans"]
    else:
        plain = [op for op in timed if not op["trace"]]
        metrics = {
            "wall_s": statistics.median(at_reference(op, op["wall_s"]) for op in plain),
            "setup_s": statistics.median(at_reference(op, op["setup_s"]) for op in plain + probes
                                         if "setup_s" in op),
            "peak_rss_mb": max(op["peak_rss_mb"] for op in plain),
            "margin_digits": min(op["margin_digits"] for op in plain if "margin_digits" in op),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "margin_digits": "digits"}

    details = {"workload": workload, "seed": seed, "inputs": inputs,
               "environment": env, "setup_probes_s": [p.get("setup_s") for p in probes],
               "setup_probes_scale": probe_meter.scale, "reference_unit_ms": REFERENCE_UNIT_MS,
               "ops": ops}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mirrorperiods" / "__init__.py").is_file():
        print(f"error: no src/mirrorperiods under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
