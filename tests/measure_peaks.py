"""Measure the peak memory that circle's memory estimates are checked against.

    python tests/measure_peaks.py           # every table
    python tests/measure_peaks.py all-n     # weighted_counts, estimated_bytes
    python tests/measure_peaks.py rows      # counts_at, rows_estimated_bytes
    python tests/measure_peaks.py norms     # h_flat_norms,
                                            # norms_estimated_bytes

Each row runs in a fresh interpreter, which builds the instance, makes one
call and reports its ru_maxrss; the script prints that peak in MiB beside
the estimate and their ratio.  The peaks are the ones held by
test_memory_estimate_tracks_measured_peak and
test_rows_estimate_tracks_measured_peak and
test_norms_estimate_tracks_measured_peak in test_circle.py: re-run this after
a change of transform length or array layout and refit the constants of
circle.py to its output.  pytest does not collect this file.
"""

import math
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from chebcircle import circle, galois  # noqa: E402
from chebcircle.instance import FieldClass, ProblemInstance  # noqa: E402

T, G, S, D = "trivial", "gaussian", "s3-cbrt2", "d4-qrt2"
S3 = [(S, "1"), (S, "2"), (S, "3")]
D4 = [(D, "r"), (D, "s"), (D, "t"), (D, "e")]

# (field-class pairs, a, X) of weighted_counts, the all-N count
ALL_N = [
    ([(T, "e")] * 3, (1, 1, 1), 10**4),
    ([(T, "e")] * 3, (1, 1, 1), 2 * 10**5),
    ([(T, "e")] * 3, (1, 1, 1), 10**6),
    ([(T, "e")] * 3, (1, 1, 1), 4 * 10**6),
    ([(T, "e")] * 2, (1, 1), 4 * 10**6),
    ([(T, "e")] * 4, (1, 1, 1, 1), 10**6),
    ([(G, "e"), (G, "e"), (G, "c")], (1, 1, 1), 10**6),
    ([(G, "e"), (G, "c")], (2, -1), 2 * 10**6),
    ([(G, "e")] * 2 + [(G, "c")] * 2, (1, 1, 1, 1), 2 * 10**6),
    (S3, (1, 1, 1), 10**6),
    (S3, (1, 1, 1), 2 * 10**6),
    ([(S, "1"), (S, "1"), (S, "2")], (1, 2, 3), 5 * 10**5),
    (D4, (1, 1, 1, 1), 2 * 10**5 + 5 * 10**4),
    (D4, (1, 1, 1, 1), 10**6),
    ([(D, "r"), (D, "s")] * 2, (1, 1, 1, 1), 10**6),
    ([(G, "e"), (G, "c")] * 2, (1, 1, 1, 1), 10**6),
]

# (field-class pairs, a, X) of counts_at, the rows-only count of verify, at
# the 50 rows of rows_of
ROWS = [
    ([(T, "e")] * 3, (1, 1, 1), 10**6),
    ([(T, "e")] * 3, (1, 1, 1), 4 * 10**6),
    ([(T, "e")] * 3, (1, 1, 1), 10**7),
    (S3, (1, 1, 1), 4 * 10**6),
    ([(G, "e"), (G, "e"), (G, "c")], (1, 1, 1), 4 * 10**6),
    ([(T, "e")] * 4, (1, 1, 1, 1), 10**6),
]

# (field-class pairs, a, X) of h_flat_norms at z = (log X)^2
NORMS = [([(T, "e")] * 3, (1, 1, 1), X) for X in (5 * 10**5, 10**6,
                                                  2 * 10**6)]

TABLES = {"all-n": (ALL_N, circle.estimated_bytes),
          "rows": (ROWS, circle.rows_estimated_bytes),
          "norms": (NORMS, circle.norms_estimated_bytes)}


def instance(fields, a, X) -> ProblemInstance:
    comps = []
    for name, label in fields:
        spec = galois.builtin_spec(name)
        comps.append(FieldClass(spec, spec.class_by_label(label)))
    return ProblemInstance(tuple(comps), a, X)


def rows_of(inst: ProblemInstance) -> list:
    """50 N from 1.3X to 1.7X times k/3, of the parity of k (odd for k = 3,
    even for k = 4), so that trivial x k has solutions at each."""
    k, X = inst.k, inst.X
    return [int((1.3 + 0.4 * j / 49) * X * k / 3) // 2 * 2 + k % 2
            for j in range(50)]


def child(table: str, i: int):
    """Run row i of table in this process; print seconds and peak MiB."""
    inst = instance(*TABLES[table][0][i])
    start = time.perf_counter()
    if table == "all-n":
        circle.weighted_counts(inst)
    elif table == "rows":
        circle.counts_at(inst, rows_of(inst))
    else:
        circle.h_flat_norms(inst, math.log(inst.X) ** 2)
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{seconds:.3f} {peak:.1f}")


def measure(table: str):
    rows, estimate = TABLES[table]
    print(f"# {table}: fields, a, X, seconds, peak MiB, estimate MiB, "
          f"estimate / peak")
    for i, (fields, a, X) in enumerate(rows):
        out = subprocess.run([sys.executable, __file__, "--child", table,
                              str(i)], capture_output=True, text=True,
                             check=True).stdout.split()
        seconds, peak = float(out[0]), float(out[1])
        est = estimate(instance(fields, a, X)) / 2**20
        labels = ",".join(f"{name}:{label}" for name, label in fields)
        print(f"{labels}  {a}  {X}  {seconds:.2f}  {peak:.1f}  {est:.1f}  "
              f"{est / peak:.3f}", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], int(sys.argv[3]))
    else:
        for table in sys.argv[1:] or TABLES:
            measure(table)
