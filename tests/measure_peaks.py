"""Measure the peak memory that the count's and genfun's memory estimates
are checked against.

    python tests/measure_peaks.py           # every table
    python tests/measure_peaks.py rows      # counts_at, rows_estimated_bytes
    python tests/measure_peaks.py verify    # `chebcircle verify` of many
                                            # rows, rows_estimated_bytes
    python tests/measure_peaks.py genfun    # `chebcircle genfun`'s scan,
                                            # genfun.estimated_bytes

Each row runs in three fresh interpreters, each of which builds the
instance, makes one call and reports its ru_maxrss; the script prints the
median peak in MiB beside the row's stored peak, the estimate and the
estimate over the measured peak.  One peak moves by up to 2 MiB with
where the allocator places the same arrays, hence the median.

The three tables below are the one list of instances and stored peaks:
the test_*_estimate_tracks_measured_peak tests of test_circle.py and
test_genfun.py read them through estimates() and hold each estimate
within 5% of its stored peak.  Re-run this after a change of transform
length or array layout, store the new medians, and refit the constants
that a table's estimate reads, 9 in all:

    rows       circle.ROWS_PER_SPECTRUM_POINT, ROWS_PER_HEAD_POINT,
               ROWS_PER_SPREAD_POINT, ROWS_PER_X (the count);
               sieve.ROWS_SIEVE_PER_X, ROWS_PER_BLOCK_N2 (sieve_bytes,
               shared with genfun); errors.BYTES_BASE (shared by every
               table)
    verify     circle.ROWS_PER_ROW
    genfun     genfun.SHARP_BYTES_PER_X, and sieve_bytes' constants

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

# Each row of a table ends in its peak RSS (ru_maxrss) in MiB, the median
# of three fresh processes, that the tests check its estimate against.

# (field-class pairs, a, X, MiB) of counts_at, the rows-only count of
# verify, at the 50 rows of rows_of; an entry (r, m) before the peak puts
# the rows at r mod m
ROWS = [
    ([(T, "e")] * 3, (1, 1, 1), 10**6, 49.2),
    ([(T, "e")] * 3, (1, 1, 1), 4 * 10**6, 99.0),
    ([(T, "e")] * 3, (1, 1, 1), 10**7, 196.7),
    (S3, (1, 1, 1), 4 * 10**6, 84.6),
    ([(G, "e"), (G, "e"), (G, "c")], (1, 1, 1), 4 * 10**6, 68.1),
    ([(G, "e"), (G, "e"), (G, "c")], (1, 1, 1), 10**7, 120.0),
    ([(T, "e")] * 4, (1, 1, 1, 1), 10**6, 59.3),
    # in the classification of one block of primes
    ([(D, "e"), (D, "r"), (D, "s")], (1, 1, 1), 4 * 10**6, 59.1),
    # the head's a_i = 2 spreads its array over twice its length; the rows
    # are 2 mod 6, the residue with solutions
    (S3, (1, 2, 3), 4 * 10**6, (2, 6), 114.0),
    (S3, (1, 2, 3), 2 * 10**7, (2, 6), 449.2),
    # a head of three components and four phase arrays
    ([(G, "e")] * 2 + [(G, "c")] * 2, (1, 1, 1, 1), 4 * 10**6, 104.4),
    # k = 2: a head of one array, gathered without a transform
    ([(T, "e")] * 2, (1, 1), 4 * 10**6, 50.3),
    ([(T, "e")] * 2, (1, 1), 10**7, 75.7),
    ([(G, "e"), (G, "c")], (1, 1), 10**7, 63.2),
]

# (field-class pairs, a, X, rows, MiB) of `chebcircle verify` over rows odd
# N from 1.3X, each row's count, main term and CSV line held at once
VERIFY = [
    ([(T, "e")] * 3, (1, 1, 1), 10**4, 10**5, 95.4),
    ([(T, "e")] * 3, (1, 1, 1), 10**4, 4 * 10**5, 284.6),
]

# (builtin field-class, X, MiB) of genfun.minor_arc_scan at z = (log X)^4,
# over ALPHAS
GENFUN = [
    ("trivial-e", 10**6, 58.1),
    ("trivial-e", 4 * 10**6, 134.9),
    ("gaussian-e", 4 * 10**6, 132.7),
    ("s3-cbrt2-1", 4 * 10**6, 130.5),
    ("d4-qrt2-e", 4 * 10**6, 138.1),
    ("trivial-e", 10**7, 287.3),
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
    at = (r, m), else of the parity of k (odd for k = 3, else even),
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
    "rows": (ROWS, rows_of, lambda made: circle.counts_at(*made),
             lambda made: circle.rows_estimated_bytes(made[0],
                                                      len(made[1]))),
    "verify": (VERIFY, lambda *row: row, lambda row: verify(*row),
               lambda row: circle.rows_estimated_bytes(instance(*row[:3]),
                                                       row[3])),
    "genfun": (GENFUN, context,
               lambda ctx: genfun.minor_arc_scan(ctx, ALPHAS),
               lambda ctx: genfun.estimated_bytes(ctx.X, ctx.spec)),
}


def child(table: str, i: int):
    """Run row i of table in this process; print seconds and peak MiB."""
    rows, build, call, _ = TABLES[table]
    made = build(*rows[i][:-1])
    start = time.perf_counter()
    call(made)
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{seconds:.3f} {peak:.1f}")


def estimates(table: str):
    """(row, its stored peak MiB, its estimate MiB) for each row of
    table; measures nothing."""
    rows, build, _, estimate = TABLES[table]
    for *row, peak in rows:
        yield row, peak, estimate(build(*row)) / 2**20


def measure(table: str):
    """Print each row of table with the median seconds and peak MiB of
    three fresh processes, its stored peak, its estimate and the estimate
    over the measured peak."""
    print(f"# {table}: row, seconds, peak MiB, stored MiB, estimate MiB, "
          f"estimate / peak")
    for i, (row, stored, est) in enumerate(estimates(table)):
        # the median of three by sorting: with statistics imported, the
        # children (which import this file) placed gaussian (e, e, c) at
        # 4e6 1.7 MiB higher
        seconds, peak = (sorted(values)[1] for values in zip(*(
            map(float, subprocess.run(
                [sys.executable, __file__, "--child", table, str(i)],
                capture_output=True, text=True, check=True).stdout.split())
            for _ in range(3))))
        print(f"{row}  {seconds:.2f}  {peak:.1f}  {stored}  {est:.1f}  "
              f"{est / peak:.3f}", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], int(sys.argv[3]))
    else:
        for table in sys.argv[1:] or TABLES:
            measure(table)
