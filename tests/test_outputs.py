"""Command output against checked-in files: any change to a CSV or JSON
output is a regression.  The files under tests/data were written by the
commands below; `verify` ran with --no-timestamp, and its summary.json is
stored without runtime_sec, the one field that varies between runs.  A
mismatch names the cells that differ, so that a last-digit move of a
float can be told apart from a changed count."""

import csv
import io
import json
from pathlib import Path

import pytest

from chebcircle import cli

DATA = Path(__file__).parent / "data"


def mismatch(want_csv: bytes, got_csv: bytes, want: dict, got: dict) -> str:
    """One line per difference between a golden verify output and a new
    one: each (N, column, golden, got) cell of verify.csv, any header or
    row that one file lacks, and each (key, golden, got) of summary.json,
    or both key orders when only the order differs."""
    want_rows, got_rows = (list(csv.reader(io.StringIO(b.decode())))
                           for b in (want_csv, got_csv))
    lines = [("header", want_rows[0], got_rows[0])] \
        if want_rows[0] != got_rows[0] else []
    lines += [(w[0], col, x, y)
              for w, g in zip(want_rows[1:], got_rows[1:])
              for col, x, y in zip(want_rows[0], w, g) if x != y]
    lines += [("row", want_rows[i:i + 1], got_rows[i:i + 1])
              for i in range(min(len(want_rows), len(got_rows)),
                             max(len(want_rows), len(got_rows)))]
    lines += [(key, want.get(key), got.get(key))
              for key in dict.fromkeys([*want, *got])
              if want.get(key) != got.get(key)]
    if want == got and list(want) != list(got):
        lines.append(("key order", list(want), list(got)))
    return "\n".join(["golden differs:"] + [repr(ln) for ln in lines])


@pytest.mark.parametrize("name, instance", [
    ("classical-vinogradov", "classical-vinogradov"),
    ("s3-cbrt2", str(DATA / "s3-cbrt2" / "instance.json")),
    ("gaussian-c-trivial-e",
     str(DATA / "gaussian-c-trivial-e" / "instance.json")),
    ("mixed-k4-small", str(DATA / "mixed-k4-small" / "instance.json")),
    ("d4-qrt2", str(DATA / "d4-qrt2" / "instance.json")),
])
def test_verify_output_unchanged(tmp_path, capsys, name, instance):
    assert cli.main(["verify", instance, "--out-dir", str(tmp_path),
                     "--no-timestamp"]) == 0
    want = DATA / name
    got_csv = (tmp_path / "verify.csv").read_bytes()
    want_csv = (want / "verify.csv").read_bytes()
    got = json.loads((tmp_path / "summary.json").read_text())
    del got["runtime_sec"]
    golden = json.loads((want / "summary.json").read_text())
    report = mismatch(want_csv, got_csv, golden, got)
    assert got_csv == want_csv, report
    assert list(got.items()) == list(golden.items()), report


@pytest.mark.parametrize("path, argv", [
    ("local-factors/classical-vinogradov.json",
     ["local-factors", "classical-vinogradov", "--N", "200001"]),
    ("genfun/gaussian-e.csv",
     ["genfun", "--builtin", "gaussian-e", "--X", "3000",
      "--alpha", "0", "1/7", "0.361", "--no-timestamp"]),
    ("ec-construct/gaussian.json", ["ec-construct", "--field", "gaussian"]),
    ("expsum/square-one-seventh.csv",
     ["expsum", "--coeffs", "0,0,1", "--alpha", "1/7", "--X", "1000"]),
    ("smooth/z30-y1e5.txt", ["smooth", "--z", "30", "--Y", "100000"]),
    ("ratapprox/alpha0.361-q1000.txt",
     ["ratapprox", "--alpha", "0.361", "--qmax", "1000"]),
])
def test_stdout_unchanged(capsys, path, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == (DATA / path).read_bytes()


def test_mismatch_names_the_differing_cells():
    want = b"N,S_unweighted,S_weighted\r\n5,1,2.5\r\n7,0,0.0\r\n"
    got = b"N,S_unweighted,S_weighted\r\n5,1,2.6\r\n7,0,0.0\r\n"
    lines = mismatch(want, got, {"n_rows": 2, "median_ratio": 1.0},
                     {"n_rows": 2, "median_ratio": 1.5}).splitlines()
    assert lines[1:] == [repr(("5", "S_weighted", "2.5", "2.6")),
                         repr(("median_ratio", 1.0, 1.5))]
    assert mismatch(want, want, {"a": 1, "b": 2}, {"b": 2, "a": 1}) \
        .splitlines()[1:] == [repr(("key order", ["a", "b"], ["b", "a"]))]
