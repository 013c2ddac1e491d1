"""Measure the peak memory that circle's memory estimates are checked against.

    python tests/measure_peaks.py           # every table
    python tests/measure_peaks.py all-n     # weighted_counts, estimated_bytes
    python tests/measure_peaks.py rows      # counts_at, rows_estimated_bytes
    python tests/measure_peaks.py norms     # h_flat_norms,
                                            # norms_estimated_bytes
    python tests/measure_peaks.py parseval  # parseval_check,
                                            # parseval_estimated_bytes
    python tests/measure_peaks.py genfun    # `chebcircle genfun`'s scan,
                                            # genfun.estimated_bytes

Each row runs in a fresh interpreter, which builds the instance, makes one
call and reports its ru_maxrss; the script prints that peak in MiB beside
the estimate and their ratio.  The peaks are the ones held by the
test_*_estimate_tracks_measured_peak tests of test_circle.py and
test_genfun.py: re-run this after a change of transform length or array
layout and refit the constants of circle.py and genfun.py to its output.
pytest does not collect this file.
"""

import math
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from chebcircle import circle, galois, genfun  # noqa: E402
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
    ([(G, "e"), (G, "e"), (G, "c")], (1, 1, 1), 10**7),
    ([(T, "e")] * 4, (1, 1, 1, 1), 10**6),
    ([(D, "e"), (D, "r"), (D, "s")], (1, 1, 1), 4 * 10**6),
]

# (field-class pairs, a, X) of h_flat_norms at z = (log X)^2
NORMS = [([(T, "e")] * 3, (1, 1, 1), X) for X in (5 * 10**5, 10**6,
                                                  2 * 10**6)]

# (field-class pairs, a, X) of parseval_check: a large coefficient makes a
# large grid from few primes
PARSEVAL = [
    ([(T, "e")] * 2, (1, 1), 10**4),
    ([(T, "e")] * 2, (1, 99), 2000),
    ([(T, "e")] * 2, (1, 499), 1000),
    ([(G, "e"), (G, "c")], (2, -999), 1000),
    ([(S, "1"), (S, "2"), (S, "3")], (1, 1, 400), 1500),
]

# (builtin field-class, X) of genfun.minor_arc_scan at z = (log X)^4, over
# ALPHAS
GENFUN = [
    ("trivial-e", 10**6),
    ("trivial-e", 4 * 10**6),
    ("gaussian-e", 4 * 10**6),
    ("s3-cbrt2-1", 4 * 10**6),
    ("d4-qrt2-e", 4 * 10**6),
    ("trivial-e", 10**7),
]
ALPHAS = [0.0, 0.361, 1 / 7]


def instance(fields, a, X) -> ProblemInstance:
    comps = []
    for name, label in fields:
        spec = galois.builtin_spec(name)
        comps.append(FieldClass(spec, spec.class_by_label(label)))
    return ProblemInstance(tuple(comps), a, X)


def context(name, X) -> genfun.GenfunContext:
    field, label = name.rsplit("-", 1)
    spec = galois.builtin_spec(field)
    return genfun.GenfunContext(X, math.log(X) ** 4, spec,
                                spec.class_by_label(label))


def rows_of(inst: ProblemInstance) -> list:
    """50 N from 1.3X to 1.7X times k/3, of the parity of k (odd for k = 3,
    even for k = 4), so that trivial x k has solutions at each."""
    k, X = inst.k, inst.X
    return [int((1.3 + 0.4 * j / 49) * X * k / 3) // 2 * 2 + k % 2
            for j in range(50)]


# table -> (rows, what a row builds, the call measured, its estimate)
TABLES = {
    "all-n": (ALL_N, instance, circle.weighted_counts,
              circle.estimated_bytes),
    "rows": (ROWS, instance, lambda inst: circle.counts_at(inst,
                                                           rows_of(inst)),
             circle.rows_estimated_bytes),
    "norms": (NORMS, instance,
              lambda inst: circle.h_flat_norms(inst, math.log(inst.X) ** 2),
              circle.norms_estimated_bytes),
    "parseval": (PARSEVAL, instance, circle.parseval_check,
                 circle.parseval_estimated_bytes),
    "genfun": (GENFUN, context,
               lambda ctx: genfun.minor_arc_scan(ctx, ALPHAS),
               lambda ctx: genfun.estimated_bytes(ctx.X, ctx.spec)),
}


def child(table: str, i: int):
    """Run row i of table in this process; print seconds and peak MiB."""
    rows, build, call, _ = TABLES[table]
    made = build(*rows[i])
    start = time.perf_counter()
    call(made)
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{seconds:.3f} {peak:.1f}")


def measure(table: str):
    rows, build, _, estimate = TABLES[table]
    print(f"# {table}: row, seconds, peak MiB, estimate MiB, "
          f"estimate / peak")
    for i, row in enumerate(rows):
        out = subprocess.run([sys.executable, __file__, "--child", table,
                              str(i)], capture_output=True, text=True,
                             check=True).stdout.split()
        seconds, peak = float(out[0]), float(out[1])
        est = estimate(build(*row)) / 2**20
        print(f"{row}  {seconds:.2f}  {peak:.1f}  {est:.1f}  "
              f"{est / peak:.3f}", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], int(sys.argv[3]))
    else:
        for table in sys.argv[1:] or TABLES:
            measure(table)
