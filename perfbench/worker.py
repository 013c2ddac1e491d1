"""One measurement in a fresh interpreter.

    python3 worker.py setup  <src dir> <spawn time>
    python3 worker.py verify <src dir> <spawn time> <instance> <out dir>
    python3 worker.py trace  <src dir> <spawn time> <instance> <out dir> <spans file>

<spawn time> is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so setup_s covers
interpreter start and `import chebcircle.cli`, numpy included.  `verify`
and `trace` then time one in-process `chebcircle verify` call.  The last
line of standard output is one JSON object.
"""

import json
import os
import sys
import time

mode, src = sys.argv[1], os.path.abspath(sys.argv[2])
spawned = float(sys.argv[3])
sys.path.insert(0, src)
import chebcircle.cli  # noqa: E402

setup_s = time.monotonic() - spawned
if not os.path.abspath(chebcircle.cli.__file__).startswith(src + os.sep):
    sys.exit(f"chebcircle imported from {chebcircle.cli.__file__}, "
             f"not from {src}")
if mode == "setup":
    print(json.dumps({"setup_s": setup_s}))
    sys.exit(0)

import resource  # noqa: E402


def cpu_ticks():
    """(steal, busy, total) ticks of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            vals = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    user, nice, system, idle, iowait, irq, softirq, steal = vals
    return steal, user + nice + system + irq + softirq, sum(vals)


instance, out_dir = sys.argv[4], sys.argv[5]
tracer = None
if mode == "trace":
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    from layers import Tracer
    tracer = Tracer()
    tracer.install(chebcircle)

ticks0, cpu0 = cpu_ticks(), os.times()
t0 = time.perf_counter()
rc = chebcircle.cli.main(["verify", instance, "--out-dir", out_dir,
                          "--no-timestamp"])
run_s = time.perf_counter() - t0
ticks1, cpu1 = cpu_ticks(), os.times()

result = {"rc": rc, "setup_s": setup_s, "run_s": run_s,
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          / 1024.0}
if ticks0 and ticks1:
    hz = os.sysconf("SC_CLK_TCK")
    own = (cpu1.user + cpu1.system - cpu0.user - cpu0.system) * hz
    steal, busy, total = (b - a for a, b in zip(ticks0, ticks1))
    result["host"] = {"steal": steal, "other_busy": max(0.0, busy - own),
                      "total": total}
if tracer is not None and rc == 0:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        n_rows = json.load(fh)["n_rows"]
    result["layers"] = tracer.layer_metrics(n_rows)
    result["shares"] = tracer.shares(run_s)
    tracer.dump(sys.argv[6], {"instance": instance, "run_s": run_s})
print(json.dumps(result))
