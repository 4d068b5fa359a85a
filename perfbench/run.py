"""End-to-end benchmark of the mine → score → serve loop.

Run from the repository root::

    python3 perfbench/run.py --workload stcomb_serve --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own process with one client, one thread of
load and serial mining.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload untraced, then traced under the same
``PYTHONHASHSEED``, and prints the per-layer metrics, the per-span self
times, the tracing overhead and the top-level span coverage.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The hash seed of a run is derived from its workload and ``--seed``, so the
same seed gives the same inputs in every process.  It is recorded, with a
digest of the mined patterns and store manifest CRCs, in
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("stlocal_save", "stcomb_serve", "live_replay")
#: Wall-clock budget of one workload; its processes are killed past it.
BUDGET_S = 170.0
MIN_COVERAGE = 0.95


def hash_seed(workload: str, seed: int) -> int:
    """A PYTHONHASHSEED in 1..2**32-1 fixed by the workload and seed."""
    return 1 + zlib.crc32(f"{workload}:{seed}".encode()) % (2**32 - 1)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child: one workload in this process
# ----------------------------------------------------------------------
def child(args: argparse.Namespace) -> int:
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no program source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        record = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    trace = record.pop("chrome_trace", None)
    if trace is not None:
        path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.trace.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(trace)
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# Parent: spawn, check, report
# ----------------------------------------------------------------------
class ChildFailed(Exception):
    def __init__(self, code: int) -> None:
        super().__init__(f"workload process exited with code {code}")
        self.code = code


def spawn(workload: str, seed: int, seconds: int, traced: bool, deadline: float) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if traced else "0",
    ]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed(workload, seed)))
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: over the {BUDGET_S:.0f} s budget", file=sys.stderr)
        raise ChildFailed(1) from None
    if done.returncode != 0:
        raise ChildFailed(done.returncode)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: int, traced: bool, deadline: float):
    """Run one workload untraced, then traced when asked.

    Returns (correct, attempted, failed, metric values, percentile sample
    counts, report lines).
    """
    plain = spawn(workload, seed, seconds, False, deadline)
    records = [plain]
    lines = [
        f"== {workload}  seed {seed}  PYTHONHASHSEED {plain['hashseed']}  "
        f"digest {plain['digest']}",
        "   sizes: " + ", ".join(f"{k}={v}" for k, v in sorted(plain["sizes"].items())),
    ]
    correct = plain["failed"] == 0
    for label in plain["mismatches"]:
        lines.append(f"   MISMATCH {label}")
    values = dict(plain["metrics"])
    samples = dict(plain["samples"])
    if traced:
        deep = spawn(workload, seed, seconds, True, deadline)
        records.append(deep)
        values = dict(deep["layers"])
        values["trace.overhead_s"] = deep["wall_s"] - plain["wall_s"]
        values["trace.coverage"] = deep["coverage"]
        correct = correct and deep["failed"] == 0
        if deep["digest"] != plain["digest"]:
            correct = False
            lines.append(
                f"   DIGEST MISMATCH: traced {deep['digest']} vs untraced "
                f"{plain['digest']} under the same hash seed"
            )
        if deep["coverage"] < MIN_COVERAGE:
            correct = False
            lines.append(
                f"   COVERAGE {deep['coverage']:.3f}: top-level spans miss "
                f"more than {1 - MIN_COVERAGE:.0%} of the wall time"
            )
        lines.append(
            f"   traced wall {deep['wall_s']:.3f} s vs untraced "
            f"{plain['wall_s']:.3f} s; coverage {deep['coverage']:.4f}"
        )
        lines.append("   self time per span (s):")
        for name, own in sorted(deep["self_times"].items(), key=lambda item: -item[1]):
            lines.append(f"     {name:<32} {own:10.4f}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    return correct, attempted, failed, values, samples, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        deadline = time.monotonic() + BUDGET_S
        try:
            correct, attempted, failed, values, samples, lines = run_one(
                workload, args.seed, args.seconds, bool(args.trace), deadline
            )
        except ChildFailed as exc:
            print(str(exc), file=sys.stderr)
            return exc.code
        missing = [metric["name"] for metric in wanted if metric["name"] not in values]
        if missing:
            print(f"{workload}: no value for {missing}", file=sys.stderr)
            return 1
        for line in lines:
            print(line)
        for metric in wanted:
            name, unit = metric["name"], metric["unit"]
            count = f"   (n={samples[name]})" if name in samples else ""
            print(f"   {name:<32} {values[name]:>14.6g} {unit}{count}")
            key = name if len(names) == 1 else f"{workload}/{name}"
            result["metrics"][key] = {"value": values[name], "unit": unit}
        result["correct"] = result["correct"] and correct
        result["attempted"] += attempted
        result["failed"] += failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
