"""Benchmark `chebcircle verify` end to end on one workload.

    python3 perfbench/run.py --workload s3-classify --seed 1 --seconds 60 --trace 0

Run from anywhere inside a source checkout: the program is imported from
the checkout's `src/`, nothing is installed.  Each round starts one
fresh process that imports the program and makes one `verify` call on
the workload's instance, then checks that call's CSV and summary against
`workloads.Reference`.  Rounds repeat until `--seconds` would be
exceeded (at least MIN_ROUNDS); each end-to-end metric is the median
over the run's calls.  With `--trace 1` one more, traced, call follows
and the per-layer metrics are reported instead of the end-to-end ones.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import CHECKS, WORKLOADS, Reference  # noqa: E402

MIN_ROUNDS = 3
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# metric names and units, as BENCHMARK.json declares them
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCH["per_layer"]]


class BenchError(Exception):
    pass


def spawn(*args) -> dict:
    """Run worker.py in a fresh interpreter; its last output line."""
    env = dict(os.environ, **WORKER_ENV)
    env.pop("PYTHONPATH", None)
    t = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), args[0],
         str(ROOT / "src"), repr(t), *map(str, args[1:])],
        capture_output=True, text=True, env=env, timeout=110)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


class Run:
    def __init__(self, workload: str, seed: int):
        self.w = WORKLOADS[workload]
        self.ref = Reference(self.w, seed)
        self.work = HERE / "out" / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.instance = self.work / "instance.json"
        self.instance.write_text(json.dumps(self.w.instance_doc(seed)))
        self.attempted = self.failed = 0
        self.correct = True
        self.calls = []

    def verify_round(self, round_no: int, mode: str = "verify",
                     spans_path=None) -> dict:
        """One verify call and its checks; the worker's result."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1 + len(CHECKS)
        extra = [spans_path] if spans_path else []
        try:
            res = spawn(mode, self.instance, out, *extra)
        except BenchError as exc:
            print(exc, file=sys.stderr)
            res = {"rc": None}
        if res["rc"] != 0:
            self.failed += 1 + len(CHECKS)
            print(f"verify exited {res['rc']}", file=sys.stderr)
            return res
        try:
            fails = self.ref.check(
                (out / "verify.csv").read_text(),
                json.loads((out / "summary.json").read_text()),
                self.ref.sample(round_no))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            fails = {name: [f"unreadable output: {exc!r}"] for name in CHECKS}
        for name, msgs in fails.items():
            if msgs:
                self.failed += 1
                self.correct = False
                print(f"check {name} failed: " + "; ".join(msgs[:3]),
                      file=sys.stderr)
        return res

    def timed_rounds(self, seconds: float):
        spawn("setup")                  # compiles bytecode; not timed
        start = time.monotonic()
        rounds = 0
        while True:
            res = self.verify_round(rounds)
            rounds += 1
            if res["rc"] == 0:
                self.calls.append(res)
            elapsed = time.monotonic() - start
            if rounds >= MIN_ROUNDS and \
                    elapsed * (rounds + 1) / rounds > seconds:
                break

    def host_line(self) -> str:
        tot = {k: sum(c["host"][k] for c in self.calls if "host" in c)
               for k in ("steal", "other_busy", "total")}
        if not tot["total"]:
            return "host: {}"
        return "host: " + json.dumps({
            "steal_pct": round(100.0 * tot["steal"] / tot["total"], 2),
            "other_busy_pct": round(100.0 * tot["other_busy"] / tot["total"],
                                    2),
            "ticks": tot["total"]})

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def median_of(calls, key):
    return statistics.median(c[key] for c in calls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "chebcircle" / "__init__.py").is_file():
        print(f"no chebcircle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    try:
        run.timed_rounds(args.seconds)
        if not run.calls:
            raise BenchError("no verify call succeeded")
        e2e = {n: median_of(run.calls, n) for n, _ in END_TO_END}
        print(f"{args.workload} seed {args.seed}: {len(run.calls)} verify "
              f"calls, each in a fresh process")
        for name, unit in END_TO_END:
            vals = sorted(c[name] for c in run.calls)
            print(f"  {name} = {e2e[name]:.4f} {unit} (median; fastest "
                  f"{vals[0]:.4f}, slowest {vals[-1]:.4f})")
        print("  run_s samples: " +
              " ".join(f"{c['run_s']:.3f}" for c in run.calls))
        print(run.host_line())
        if args.trace:
            spans = HERE / "out" / "traces" / \
                f"{args.workload}-seed{args.seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            res = run.verify_round(-1, "trace", spans)
            if "layers" not in res:
                raise BenchError("traced verify call failed")
            layers = dict(res["layers"])
            layers["trace.overhead_s"] = res["run_s"] - e2e["run_s"]
            print(f"traced run_s = {res['run_s']:.4f} s; self-time shares: " +
                  ", ".join(f"{k} {v:.3f}" for k, v in res["shares"].items()))
            print(f"spans written to {spans.relative_to(ROOT)}")
            metrics = {n: {"value": layers[n], "unit": u}
                       for n, u in PER_LAYER}
        else:
            metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
