"""Benchmark of the ``ess`` command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's operations (see ``workloads.py``) one at a time, each in
a fresh Python process that calls ``ess.cli.main(argv + ["--json"])`` on the
sources under ``src/`` of the checkout: a closed loop with one client and one
operation in flight.  Operations repeat in workload order until ``S`` seconds
have passed and every operation has run at least once.  Every output is then
checked outside the timed region: against ``reference.json`` for operations
on built-in inputs and against the ``sympy`` oracles in ``oracle.py``.

Times are normalised for the host's speed.  Each child times a fixed
calibration (``child.calibrate``) right after importing ``ess``, during the
operation and right after it.  A sample's time is multiplied by
``CAL_REF_S / (mean calibration time of that child)``, and its import time by
``CAL_REF_S / (mean of the calibrations right after the import)``.  The unit
stays the second, on a host that runs the calibration in ``CAL_REF_S``; on a
2-core Xeon VM with CPython 3.11 normalised and raw seconds are about equal.
Shared hosts change speed by up to 2x within minutes, which buries a change
to ``ess`` under noise; the run record keeps every raw time and calibration
beside the normalised ones.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics:

* ``wall_s``: sum over one pass of the per-operation median times of the
  ``cli.main`` call, measured inside the child;
* ``op_geomean_s``: geometric mean of the same medians;
* ``setup_s``: median time of a fresh process to ``import ess.cli``, over
  every child of the run;
* ``peak_rss_mb``: largest peak RSS of any operation's process;
* ``ops_ok_frac``: operations that exited 0 with a correct output, over
  operations attempted (the failed share is ``1 - ops_ok_frac``).

With ``--trace 1`` each operation runs once plain and once with the spans of
``tracing.py`` installed, in alternating order, and the last line carries the
per-layer metrics (sums over one pass of per-operation medians, normalised
like the end-to-end times), the tracing overhead and the line count of each
``src/ess`` module.

Each run also writes a run record (commit, Python version, nproc, seed,
per-operation times and exit codes, line counts, probe exit codes) under
``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_run"

OP_TIMEOUT = 120.0     # seconds for one operation
RUN_BUDGET = 150.0     # no operation starts later than this into a run
CAL_REF_S = 0.004      # calibration time that defines the normalised second

# src/ess modules at the commit that defined the benchmark; "init" is
# __init__.py.  total.src_lines counts every src/ess/*.py, new modules too.
MODULES = ["init", "aomoto", "builtins", "cli", "coeffs", "complexes", "errors",
           "groupring", "linalg", "modz", "pages", "selftest", "twisted"]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts one child per operation and waits for it."""

    def __init__(self, work: Path):
        self.env = child_env()
        self.result = work / "result.json"

    def run(self, argv: list[str], mode: str, timeout: float) -> dict:
        if self.result.exists():
            self.result.unlink()
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(self.result), mode, *argv]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"exit": "timeout", "stderr": f"no result after {timeout:.0f} s"}
        if proc.returncode != 0 or not self.result.exists():
            return {"exit": f"child exited {proc.returncode}",
                    "stderr": proc.stderr.decode(errors="replace")[-2000:]}
        result = json.loads(self.result.read_text())
        self.result.unlink()
        return result


def normalised(result: dict) -> float:
    """The operation's time times CAL_REF_S over the child's mean calibration."""
    return result["seconds"] * CAL_REF_S / statistics.fmean(result["cal"])


def normalised_import(result: dict) -> float:
    """The import time times CAL_REF_S over the calibrations right after it."""
    return result["import_seconds"] * CAL_REF_S / statistics.fmean(result["cal_import"])


def resolve(op: workloads.Op, work: Path) -> list[str]:
    if workloads.INPUT not in op.argv:
        return list(op.argv)
    path = work / (op.name.replace("/", "_").replace(":", "_") + ".json")
    path.write_text(json.dumps(op.doc, indent=1, sort_keys=True) + "\n")
    return [str(path.relative_to(ROOT)) if a == workloads.INPUT else a for a in op.argv]


def run_ops(ops, argvs, seconds: float, traced: bool, runner: Runner, started: float):
    """Cycle through the operations until `seconds` have passed and every
    operation ran at least once in each mode.  Returns {op: {mode: [result]}}."""
    modes = ("plain", "traced") if traced else ("plain",)
    samples = {op.name: {m: [] for m in modes} for op in ops}
    measure_start = time.perf_counter()
    cycle = 0
    while True:
        for i, op in enumerate(ops):
            for mode in (modes if cycle % 2 == 0 else modes[::-1]):
                left = RUN_BUDGET - (time.perf_counter() - started)
                if left < 1:
                    result = {"exit": "not run", "stderr": "run time budget exhausted"}
                else:
                    result = runner.run(argvs[op.name], mode, min(OP_TIMEOUT, left + 20))
                samples[op.name][mode].append(result)
            first_pass_done = cycle > 0 or i == len(ops) - 1
            if first_pass_done and time.perf_counter() - measure_start >= seconds:
                return samples
        cycle += 1


def check_samples(ops, samples) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) over every sample of every operation."""
    import oracle  # sympy loads only after the timed children have run

    reference = json.loads((HERE / "reference.json").read_text())
    verdicts: dict[tuple[str, str], str | None] = {}
    attempted = failed = 0
    errors = []
    for op in ops:
        for mode, results in samples[op.name].items():
            for res in results:
                attempted += 1
                err = None
                if res["exit"] != 0:
                    err = f"exit {res['exit']}: {res.get('stderr', '').strip()[-300:]}"
                elif not op.seeded and reference.get(op.name) != digest(res["stdout"]):
                    err = "stdout differs from reference.json"
                else:
                    key = (op.name, res["stdout"])
                    if key not in verdicts:
                        try:
                            verdicts[key] = oracle.check(op, res["stdout"])
                        except Exception as exc:  # a malformed output must not stop the run
                            verdicts[key] = f"oracle raised {type(exc).__name__}: {exc}"
                    err = verdicts[key]
                if err:
                    failed += 1
                    errors.append(f"{op.name} [{mode}]: {err}")
    return attempted, failed, errors


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _median_seconds(results) -> float | None:
    times = [normalised(r) for r in results if r["exit"] == 0]
    return statistics.median(times) if times else None


def end_to_end(ops, samples, attempted, failed) -> dict:
    plain = [r for op in ops for r in samples[op.name]["plain"] if "cal" in r]
    medians = [m for m in (_median_seconds(samples[op.name]["plain"]) for op in ops) if m]
    rss = [r["maxrss_kb"] for r in plain if "maxrss_kb" in r]
    return {
        "wall_s": (sum(medians), "s"),
        "op_geomean_s": (math.exp(statistics.fmean(math.log(m) for m in medians)), "s"),
        "setup_s": (statistics.median(normalised_import(r) for r in plain), "s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
        "ops_ok_frac": (1 - failed / attempted, "ratio"),
    }


def per_layer(ops, samples, record) -> dict:
    times: dict[str, float] = {}
    counters: dict[str, int] = {}
    traced_total = plain_total = 0.0
    for op in ops:
        traced = [r for r in samples[op.name]["traced"] if r["exit"] == 0]
        plain = _median_seconds(samples[op.name]["plain"])
        if not traced or plain is None:
            continue
        layers = [tracing.layer_metrics(r["trace"], r["seconds"]) for r in traced]
        scale = [normalised(r) / r["seconds"] for r in traced]
        for metric in layers[0][0]:
            times[metric] = times.get(metric, 0.0) + statistics.median(
                t[metric] * k for (t, _), k in zip(layers, scale))
        for metric, value in layers[0][1].items():
            counters[metric] = counters.get(metric, 0) + value
        if any(c != layers[0][1] for _, c in layers):
            record["counter_mismatch"].append(op.name)
        for r in traced:
            record["missing_hooks"].update(r["trace"]["missing"])
        traced_total += _median_seconds(traced)
        plain_total += plain
    metrics = {name: (value, "s") for name, value in sorted(times.items())}
    metrics.update({name: (value, "count") for name, value in sorted(counters.items())})
    metrics["trace.overhead_frac"] = (
        traced_total / plain_total - 1 if plain_total else 0.0, "ratio")
    lines = src_lines()
    for module in MODULES:
        metrics[f"{module}.src_lines"] = (lines.get(module, 0), "lines")
    metrics["total.src_lines"] = (sum(lines.values()), "lines")
    return metrics


def src_lines() -> dict[str, int]:
    out = {}
    for path in sorted((SRC / "ess").glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        out[name] = path.read_text().count("\n")
    return out


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ess").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_probes(runner: Runner) -> dict:
    """Exit codes of the known-defect probes (untimed)."""
    return {name: runner.run(argv, "plain", 20)["exit"] for name, argv in workloads.PROBES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ess" / "cli.py").is_file():
        print(f"perfbench: no ess sources at {SRC / 'ess'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    work = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    argvs = {op.name: resolve(op, work) for op in ops}

    runner.run([], "import", 60)  # warm-up: writes the bytecode cache
    probes = run_probes(runner)
    samples = run_ops(ops, argvs, args.seconds, bool(args.trace), runner, started)
    attempted, failed, errors = check_samples(ops, samples)
    if failed == attempted:
        for err in errors[:20]:
            print(f"FAILED {err}", file=sys.stderr)
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit(), "src_sha256": src_digest(),
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "cal_ref_s": CAL_REF_S, "src_lines": src_lines(),
        "probes_exit": probes, "errors": errors,
        "counter_mismatch": [], "missing_hooks": set(),
        "ops": [
            {"name": op.name, "argv": argvs[op.name], "why": op.why,
             "samples": [{"mode": mode, "exit": r["exit"], "seconds": r.get("seconds"),
                          "import_seconds": r.get("import_seconds"),
                          "cal_import": r.get("cal_import"), "cal": r.get("cal"),
                          "maxrss_kb": r.get("maxrss_kb")}
                         for mode, results in samples[op.name].items() for r in results]}
            for op in ops
        ],
    }
    if args.trace:
        metrics = per_layer(ops, samples, record)
    else:
        metrics = end_to_end(ops, samples, attempted, failed)
    record["missing_hooks"] = sorted(record["missing_hooks"])
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record_path = work / "record.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for err in errors[:20]:
        print(f"FAILED {err}")
    for name, code in probes.items():
        print(f"probe {name}: exit {code}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>14.6g} {unit}")
    print(f"run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
