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
within 5% of its stored peak.  The estimates count the bytes of the
arrays each call holds (beside errors.BYTES_BASE, the one measured
constant), so these tables are the offline check that such counts track
the resident memory, which also holds what the allocator keeps of freed
arrays.  Re-run this after a change of transform length or array layout
and store the new medians; an estimate that leaves its 5% band names an
array its count misses or charges wrongly.

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
    ([(T, "e")] * 3, (1, 1, 1), 10**6, 48.8),
    ([(T, "e")] * 3, (1, 1, 1), 4 * 10**6, 100.5),
    ([(T, "e")] * 3, (1, 1, 1), 10**7, 200.8),
    (S3, (1, 1, 1), 4 * 10**6, 85.9),
    ([(G, "e"), (G, "e"), (G, "c")], (1, 1, 1), 4 * 10**6, 68.4),
    ([(G, "e"), (G, "e"), (G, "c")], (1, 1, 1), 10**7, 120.2),
    ([(T, "e")] * 4, (1, 1, 1, 1), 10**6, 59.0),
    ([(T, "e")] * 4, (1, 1, 1, 1), 4 * 10**6, 140.6),
    ([(T, "e")] * 5, (1, 1, 1, 1, 1), 10**6, 66.8),
    # the classification of one block of primes sets the estimate at 1e6
    # and 2e6: the count's arrays and pocketfft's scratch come after it,
    # over the pages the allocator kept of the sieve's; the count's charge
    # is just above it at 4e6
    ([(D, "e"), (D, "r"), (D, "s")], (1, 1, 1), 10**6, 38.0),
    ([(D, "e"), (D, "r"), (D, "s")], (1, 1, 1), 2 * 10**6, 42.9),
    ([(D, "e"), (D, "r"), (D, "s")], (1, 1, 1), 4 * 10**6, 55.4),
    # each residue mod 8 of r, s and t names one class: no kernel runs
    ([(D, "r"), (D, "s"), (D, "t")], (1, 1, 1), 4 * 10**6, 55.5),
    # the head's a_i = 2 spreads its array over twice its length; the rows
    # are 2 mod 6, the residue with solutions
    (S3, (1, 2, 3), 4 * 10**6, (2, 6), 115.5),
    (S3, (1, 2, 3), 2 * 10**7, (2, 6), 451.0),
    # the estimate sits 2-3% below the peaks above, which hold pages the
    # allocator kept of the sieve's arrays, and 3% above this one
    (S3, (1, 2, 3), 4 * 10**7, (2, 6), 821.1),
    # a head of three components and four phase arrays
    ([(G, "e")] * 2 + [(G, "c")] * 2, (1, 1, 1, 1), 4 * 10**6, 105.8),
    # k = 2: a head of one array, gathered without a transform
    ([(T, "e")] * 2, (1, 1), 4 * 10**6, 49.7),
    ([(T, "e")] * 2, (1, 1), 10**7, 75.0),
    ([(G, "e"), (G, "c")], (1, 1), 10**7, 59.5),
    # k = 2 with a_0 = 3: the head array spread over three times its length
    ([(T, "e")] * 2, (3, 1), 10**7, 113.0),
]

# (field-class pairs, a, X, rows, MiB) of `chebcircle verify` over rows odd
# N from 1.3X, each row's VerifyRow and LocalFactorReport held at once
VERIFY = [
    ([(T, "e")] * 3, (1, 1, 1), 10**4, 10**5, 84.4),
    ([(T, "e")] * 3, (1, 1, 1), 10**4, 4 * 10**5, 241.6),
]

# (builtin field-class, X, MiB) of genfun.minor_arc_scan at z = (log X)^4,
# over ALPHAS
GENFUN = [
    ("trivial-e", 10**6, 57.8),
    ("trivial-e", 4 * 10**6, 136.5),
    ("gaussian-e", 4 * 10**6, 132.2),
    ("s3-cbrt2-1", 4 * 10**6, 129.1),
    ("d4-qrt2-e", 4 * 10**6, 137.6),
    ("trivial-e", 10**7, 291.3),
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
               lambda ctx: genfun.estimated_bytes(ctx.X, ctx.spec, ctx.cls)),
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
