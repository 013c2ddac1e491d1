"""Command output against checked-in files: any change to a CSV or JSON
output is a regression.  The files under tests/data were written by the
commands below; `verify` ran with --no-timestamp, and its summary.json is
stored without runtime_sec, the one field that varies between runs."""

import json
from pathlib import Path

import pytest

from chebcircle import cli

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, instance", [
    ("classical-vinogradov", "classical-vinogradov"),
    ("s3-cbrt2", str(DATA / "s3-cbrt2" / "instance.json")),
    ("gaussian-c-trivial-e",
     str(DATA / "gaussian-c-trivial-e" / "instance.json")),
])
def test_verify_output_unchanged(tmp_path, capsys, name, instance):
    assert cli.main(["verify", instance, "--out-dir", str(tmp_path),
                     "--no-timestamp"]) == 0
    want = DATA / name
    assert ((tmp_path / "verify.csv").read_bytes()
            == (want / "verify.csv").read_bytes())
    got = json.loads((tmp_path / "summary.json").read_text())
    del got["runtime_sec"]
    assert list(got.items()) == list(
        json.loads((want / "summary.json").read_text()).items())


@pytest.mark.parametrize("path, argv", [
    ("local-factors/classical-vinogradov.json",
     ["local-factors", "classical-vinogradov", "--N", "200001"]),
    ("genfun/gaussian-e.csv",
     ["genfun", "--builtin", "gaussian-e", "--X", "3000",
      "--alpha", "0", "1/7", "0.361", "--no-timestamp"]),
    ("ec-construct/gaussian.json", ["ec-construct", "--field", "gaussian"]),
])
def test_stdout_unchanged(capsys, path, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == (DATA / path).read_bytes()
