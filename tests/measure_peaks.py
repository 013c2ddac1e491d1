"""Measure the peak memory that circle's memory estimates are checked against.

    python tests/measure_peaks.py           # every table
    python tests/measure_peaks.py all-n     # weighted_counts, estimated_bytes
    python tests/measure_peaks.py rows      # counts_at, rows_estimated_bytes
    python tests/measure_peaks.py verify    # `chebcircle verify` of many
                                            # rows, rows_estimated_bytes
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
test_genfun.py and the row charge of test_cli.py's rows gate: re-run this
after a change of transform length or array layout and refit the
constants of circle.py and genfun.py to its output.
pytest does not collect this file.
"""

import json
import math
import resource
import subprocess
import sys
import tempfile
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
# the 50 rows of rows_of; a fourth entry (r, m) puts the rows at r mod m
ROWS = [
    ([(T, "e")] * 3, (1, 1, 1), 10**6),
    ([(T, "e")] * 3, (1, 1, 1), 4 * 10**6),
    ([(T, "e")] * 3, (1, 1, 1), 10**7),
    (S3, (1, 1, 1), 4 * 10**6),
    ([(G, "e"), (G, "e"), (G, "c")], (1, 1, 1), 4 * 10**6),
    ([(G, "e"), (G, "e"), (G, "c")], (1, 1, 1), 10**7),
    ([(T, "e")] * 4, (1, 1, 1, 1), 10**6),
    ([(D, "e"), (D, "r"), (D, "s")], (1, 1, 1), 4 * 10**6),
    # a coefficient |a_i| > 1 spreads its array before the transform
    (S3, (1, 2, 3), 4 * 10**6, (2, 6)),
    (S3, (1, 2, 3), 2 * 10**7, (2, 6)),
    # a head of three components, two classes of two phases each
    ([(G, "e")] * 2 + [(G, "c")] * 2, (1, 1, 1, 1), 4 * 10**6),
]

# (field-class pairs, a, X, rows) of `chebcircle verify` over rows odd N
# from 1.3X, each row's count, main term and CSV line held at once
VERIFY = [([(T, "e")] * 3, (1, 1, 1), 10**4, rows)
          for rows in (10**5, 4 * 10**5)]

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


def rows_of(fields, a, X, at=None):
    """(instance, 50 N from 1.3X to 1.7X times sum(a)/3): N = r mod m for
    at = (r, m), else of the parity of k (odd for k = 3, even for k = 4),
    so that trivial x k has solutions at each."""
    inst = instance(fields, a, X)
    r, m = at or (inst.k % 2, 2)
    return inst, [int((1.3 + 0.4 * j / 49) * X * sum(a) / 3) // m * m + r
                  for j in range(50)]


def verify(fields, a, X, rows):
    """Run `chebcircle verify` on the instance at rows odd N from 1.3X."""
    from chebcircle import cli  # only here: it adds to every other peak
    first = int(1.3 * X) // 2 * 2 + 1
    doc = {"fields": [{"builtin": b, "class": c} for b, c in fields],
           "a": list(a), "X": X,
           "N": {"from": first, "to": first + 2 * rows, "step": 2}}
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "instance.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", str(path), "--out-dir", out]) == 0


# table -> (rows, what a row builds, the call measured, its estimate)
TABLES = {
    "all-n": (ALL_N, instance, circle.weighted_counts,
              circle.estimated_bytes),
    "rows": (ROWS, rows_of, lambda made: circle.counts_at(*made),
             lambda made: circle.rows_estimated_bytes(made[0],
                                                      len(made[1]))),
    "verify": (VERIFY, lambda *row: row, lambda row: verify(*row),
               lambda row: circle.rows_estimated_bytes(instance(*row[:3]),
                                                       row[3])),
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
