"""`verify` output against checked-in files: any change to a CSV or JSON
output is a regression.  The files under tests/data were written by
`chebcircle verify --no-timestamp`; summary.json is stored without
runtime_sec, the one field that varies between runs."""

import json
from pathlib import Path

import pytest

from chebcircle import cli

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, instance", [
    ("classical-vinogradov", "classical-vinogradov"),
    ("s3-cbrt2", str(DATA / "s3-cbrt2" / "instance.json")),
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
