"""Run the benchmark over several seeds, workloads interleaved, and report
each end-to-end metric's median, quartiles and spread beside the host
noise seen during the runs.

    python3 perfbench/session.py --seeds 1-10
    python3 perfbench/session.py --seeds 11-20 --compare perfbench/out/session-A.json

Spread is (Q3 - Q1) / median over the runs, quartiles as
statistics.quantiles(values, n=4) gives them.  The raw results are
written to perfbench/out/session-<time>.json; --compare prints the
relative change of each median against such a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    t = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    rec = {"workload": workload, "seed": seed, "rc": proc.returncode,
           "wall_s": time.monotonic() - t}
    if proc.returncode != 0 or not lines:
        rec["stderr"] = proc.stderr[-2000:]
        return rec
    rec["result"] = json.loads(lines[-1])
    rec["report"] = lines[:-1]
    host = [ln for ln in lines if ln.startswith("host: ")]
    rec["host"] = json.loads(host[-1][6:]) if host else {}
    return rec


def summarize(records: list, bench: dict, previous=None):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    prev = {}
    if previous:
        for w, per in summarize_values(previous).items():
            for name, vals in per.items():
                prev[(w, name)] = statistics.median(vals)
    for w, per in summarize_values(records).items():
        recs = [r for r in records if r["workload"] == w and "result" in r]
        att = sum(r["result"]["attempted"] for r in recs)
        fail = sum(r["result"]["failed"] for r in recs)
        steal = [r["host"].get("steal_pct", 0.0) for r in recs]
        other = [r["host"].get("other_busy_pct", 0.0) for r in recs]
        walls = [r["wall_s"] for r in recs]
        print(f"{w}: {len(recs)} runs, failed {fail}/{att}, run wall "
              f"{min(walls):.1f}-{max(walls):.1f} s, host steal "
              f"{statistics.mean(steal):.2f}% (max {max(steal):.2f}%), "
              f"other busy {statistics.mean(other):.2f}% "
              f"(max {max(other):.2f}%)")
        for name, vals in per.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else (med, med, med)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            line = (f"  {name:12s} median {med:.4f}  Q1 {q1:.4f}  "
                    f"Q3 {q3:.4f}  spread {spread:.4f}")
            if bound is not None:
                line += f"  bound {bound}  spread/bound {spread / bound:.2f}"
            if (w, name) in prev:
                line += f"  vs previous {med / prev[(w, name)] - 1:+.4f}"
            print(line)


def summarize_values(records: list) -> dict:
    out = {}
    for r in records:
        if "result" not in r:
            continue
        per = out.setdefault(r["workload"], {})
        for name, m in r["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--compare", default=None,
                    help="session file of an earlier set of runs")
    args = ap.parse_args(argv)

    records = []
    for seed in seed_list(args.seeds):
        for w in args.workloads.split(","):
            rec = one_run(w, seed, args.seconds)
            records.append(rec)
            if "result" in rec:
                vals = " ".join(f"{k}={v['value']:.4f}" for k, v in
                                rec["result"]["metrics"].items())
                print(f"seed {seed} {w}: {vals} host {rec['host']} "
                      f"({rec['wall_s']:.1f} s)", flush=True)
            else:
                print(f"seed {seed} {w}: exit {rec['rc']}\n{rec['stderr']}",
                      flush=True)
    out = HERE / "out" / f"session-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(records, indent=1))
    print(f"raw results in {out.relative_to(ROOT)}")
    previous = json.loads(Path(args.compare).read_text()) \
        if args.compare else None
    summarize(records, bench, previous)
    return 0 if all("result" in r and r["result"]["correct"]
                    for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
