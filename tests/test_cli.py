import csv
import json
import math
import os
import stat
import tracemalloc

import lemmas
import pytest

from chebcircle import circle, cli, errors, galois
from chebcircle.instance import classical_instance


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_CLASSICAL = {
    "fields": [{"builtin": "trivial", "class": "e"}] * 3,
    "a": [1, 1, 1],
    "X": 2000,
    "N": {"from": 1501, "to": 2501, "step": 100},
    "euler_pmax": 2000,
}


class TestSimpleCommands:
    def test_smooth(self, capsys):
        code, out, _ = run(capsys, "smooth", "--z", "3", "--Y", "10")
        assert code == 0
        assert out.strip() == "4"

    def test_smooth_sieves_only_to_y(self, capsys):
        # no prime above Y divides an n <= Y: z = 1e10 lists the primes
        # <= 10 only
        assert run(capsys, "smooth", "--z", "1e10", "--Y", "10") == \
            run(capsys, "smooth", "--z", "10", "--Y", "10")

    def test_smooth_memory_gate_exit_3_before_the_sieve(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "smooth", "--z", "1e10", "--Y",
                                 "1e10")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "GiB" in err and out == ""
        assert peak < 2**20

    def test_ratapprox(self, capsys):
        code, out, _ = run(capsys, "ratapprox", "--alpha",
                           "3.14159265358979", "--qmax", "10")
        assert code == 0
        assert out.strip() == "22/7"

    def test_genfun(self, capsys):
        code, out, _ = run(capsys, "genfun", "--builtin", "gaussian-e",
                           "--X", "30", "--alpha", "0", "--no-timestamp")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0][0] == "alpha"
        want = sum(math.log(p) for p in (5, 13, 17, 29))
        assert float(rows[1][2]) == pytest.approx(want, abs=1e-3)

    def test_genfun_overflowing_level_exit_2(self, capsys):
        code, _, err = run(capsys, "genfun", "--builtin", "gaussian-e",
                           "--X", "3000", "--alpha", "0.1", "--B", "1e6")
        assert code == 2
        assert "BadSieve" in err

    @pytest.mark.parametrize("X", ["1", "0", "-5"])
    def test_genfun_x_below_2_exit_2(self, capsys, X):
        code, out, _ = run(capsys, "genfun", "--builtin", "gaussian-e",
                           "--X", X, "--alpha", "0", "--no-timestamp")
        assert code == 2
        assert out == ""

    def test_genfun_unknown_class_names_the_labels(self, capsys):
        code, out, err = run(capsys, "genfun", "--builtin", "gaussian-x",
                             "--X", "30", "--alpha", "0")
        assert code == 2
        assert "UnknownClass" in err and "'e', 'c'" in err
        assert out == ""

    def test_genfun_memory_gate_exit_3_before_the_sieve(self, capsys,
                                                      monkeypatch):
        def no_sieve(*args):
            raise AssertionError("primes listed past the memory gate")

        monkeypatch.setattr(cli.sieve, "primes_upto", no_sieve)
        monkeypatch.setattr(cli.sieve, "sharp_weights", no_sieve)
        code, out, err = run(capsys, "genfun", "--builtin", "trivial-e",
                             "--X", "500000000", "--alpha", "0.1",
                             "--no-timestamp")
        assert code == 3
        assert "GiB" in err and out == ""

    def test_genfun_bad_builtin(self, capsys):
        code, _, err = run(capsys, "genfun", "--builtin", "nonsense",
                           "--X", "30", "--alpha", "0")
        assert code == 2

    def test_expsum(self, capsys):
        code, out, _ = run(capsys, "expsum", "--coeffs", "0,0,1",
                           "--alpha", "1/5", "--X", "5")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        vals = dict(zip(rows[0], rows[1]))
        mag = abs(complex(float(vals["sum_re"]), float(vals["sum_im"])))
        assert mag == pytest.approx(math.sqrt(5), abs=1e-5)
        assert int(vals["q"]) == 5

    def test_expsum_memory_gate_exit_3_before_the_sum(self, capsys):
        # an int64, an index and a complex128 per x: about 30 GiB
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "expsum", "--coeffs", "0,0,1",
                                 "--alpha", "1/7", "--X", "1000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "GiB" in err and out == ""
        assert peak < 2**20

    def test_expsum_evaluates_the_sum_once(self, capsys, monkeypatch):
        calls = []
        weyl_sum = cli.expsum.weyl_sum

        def counted(*args):
            calls.append(args)
            return weyl_sum(*args)

        monkeypatch.setattr(cli.expsum, "weyl_sum", counted)
        code, _, _ = run(capsys, "expsum", "--coeffs", "1,2,0,1",
                         "--alpha", "0.7071067811865476", "--X", "200")
        assert code == 0
        assert len(calls) == 1

    def test_expsum_prints_the_q_its_bound_reads(self, capsys):
        # qmax = max(10, X^2) = 25 at X = 5: the bound reads 1/pi as 7/22
        code, out, _ = run(capsys, "expsum", "--coeffs", "0,0,1",
                           "--alpha", "0.3183098861837907", "--X", "5")
        assert code == 0
        vals = dict(zip(*csv.reader(out.splitlines())))
        assert int(vals["q"]) == 22
        bound = 5 * (1 / 22 + 1 / 5 + 22 / 25) ** 0.01
        assert float(vals["bound"]) == pytest.approx(bound, abs=1e-6)

    def test_expsum_integer_alpha_rejected(self, capsys):
        code, _, err = run(capsys, "expsum", "--coeffs", "0,1",
                           "--alpha", "2", "--X", "10")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["genfun", "--builtin", "gaussian-e", "--X", "100", "--alpha", "1/0"],
        ["expsum", "--coeffs", "0,0,1", "--alpha", "1/0", "--X", "10"],
        ["ratapprox", "--alpha", "1/0", "--qmax", "10"],
        ["expsum", "--coeffs", "0,0,1", "--alpha", "0.3", "--X", "0"],
        ["expsum", "--coeffs", "0,0,1", "--alpha", "0.3", "--X", "-3"],
        ["smooth", "--z", "inf", "--Y", "10"],
        ["smooth", "--z", "10", "--Y", "nan"],
        ["verify", "INSTANCE", "--pmax", "0", "--out-dir", "OUT"],
        ["local-factors", "INSTANCE", "--pmax", "0"],
        ["verify", "PMAX1", "--out-dir", "OUT"],
        ["local-factors", "PMAX1"],
        ["genfun", "--builtin", "gaussian-e", "--X", "100", "--alpha", "inf"],
        ["genfun", "--builtin", "gaussian-e", "--X", "100", "--alpha", "nan"],
    ])
    def test_bad_numeric_argument_exit_2(self, tmp_path, capsys, monkeypatch,
                                         argv):
        def no_count(*args):
            raise AssertionError("counted before the arguments were checked")

        # a bad P_max is rejected at load, before any count is made
        monkeypatch.setattr(cli.circle, "counts_at", no_count)
        paths = {"INSTANCE": write_instance(tmp_path, SMALL_CLASSICAL),
                 "PMAX1": write_instance(tmp_path, {**SMALL_CLASSICAL,
                                                    "euler_pmax": 1},
                                         "pmax1.json"),
                 "OUT": str(tmp_path / "out")}
        code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
        assert code == 2, err
        assert err.startswith("error: ")
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_ec_construct(self, capsys):
        code, out, _ = run(capsys, "ec-construct", "--field", "trivial",
                           "--limit", "10000")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "chebotarev-circle/1"
        assert doc["verified"] is True
        assert doc["r"] == doc["p"] + 432 * doc["n"] ** 2 * doc["q"]

    def test_ec_construct_limit_exhausted(self, capsys):
        code, _, err = run(capsys, "ec-construct", "--field", "gaussian",
                           "--limit", "10")
        assert code == 3

    def test_ec_construct_rejects_invalid_spec(self, tmp_path, capsys):
        spec = {"kind": "abelian", "modulus": 5,
                "classes": [{"label": "e", "coset": [1, 2, 3, 4]},
                            {"label": "z", "coset": [0]}]}
        path = write_instance(tmp_path, spec, "spec.json")
        code, out, err = run(capsys, "ec-construct", "--field", path,
                             "--limit", "2000")
        assert code == 2
        assert "InvalidCoset" in err
        assert out == ""


class TestVerify:
    def test_end_to_end(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SMALL_CLASSICAL)
        code, _, _ = run(capsys, "verify", inst, "--out-dir",
                         str(tmp_path / "out"), "--no-timestamp")
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["schema"] == "chebotarev-circle/1"
        assert summary["median_ratio"] == pytest.approx(1.0, abs=0.5)
        assert summary["defaults"]["euler_pmax"] == 2000
        with open(tmp_path / "out" / "verify.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "N"
        assert len(rows) == 1 + summary["n_rows"]

    def test_deterministic_without_timestamp(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SMALL_CLASSICAL)
        outs = []
        for d in ("o1", "o2"):
            run(capsys, "verify", inst, "--out-dir", str(tmp_path / d),
                "--no-timestamp")
            outs.append((tmp_path / d / "verify.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_timestamp_header_present_by_default(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SMALL_CLASSICAL)
        run(capsys, "verify", inst, "--out-dir", str(tmp_path / "out"))
        first = (tmp_path / "out" / "verify.csv").read_text().splitlines()[0]
        assert first.startswith("# generated ")

    def test_common_divisor_exit_2(self, tmp_path, capsys):
        doc = dict(SMALL_CLASSICAL, a=[2, 2, 2])
        inst = write_instance(tmp_path, doc)
        code, _, err = run(capsys, "verify", inst, "--out-dir",
                           str(tmp_path / "out"))
        assert code == 2
        assert "common divisor" in err

    def test_defaults_echo_sieve_block(self, tmp_path, capsys):
        for block, A, B in (({"A": 1, "B": 2}, 1, 2), ({"A": 0.5}, 0.5, 2.0),
                            (None, 1.0, 4.0)):
            doc = dict(SMALL_CLASSICAL)
            if block is not None:
                doc["sieve"] = block
            out = tmp_path / "out"
            code, _, _ = run(capsys, "verify", write_instance(tmp_path, doc),
                             "--out-dir", str(out), "--no-timestamp")
            assert code == 0
            got = json.loads((out / "summary.json").read_text())["defaults"]
            assert (got["A"], got["B"]) == (A, B)
            assert (type(got["A"]), type(got["B"])) == (type(A), type(B))
            assert got["z"] == math.log(2000) ** B

    def test_bad_sieve_block_exit_2(self, tmp_path, capsys):
        for block in ({"B": "4"}, {"A": None}, {"B": 1e6}, []):
            inst = write_instance(tmp_path, dict(SMALL_CLASSICAL, sieve=block))
            code, out, err = run(capsys, "verify", inst, "--out-dir",
                                 str(tmp_path / "out"))
            assert code == 2, block
            assert "BadSieve" in err

    def test_unknown_sieve_key_exit_2(self, tmp_path, capsys):
        for block in ({"z": 5}, {"A": 1, "b": 4}):
            inst = write_instance(tmp_path, dict(SMALL_CLASSICAL, sieve=block))
            out = tmp_path / "out"
            code, _, err = run(capsys, "verify", inst, "--out-dir", str(out))
            assert code == 2, block
            assert "BadSieve" in err
            assert repr(next(k for k in block if k not in ("A", "B"))) in err
            assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("N", ["abc", [1, 2], 1e30, 10**20, -2**63 - 1,
                                   {"from": 2**63 - 2, "to": 2**63 + 2},
                                   {"from": float("inf"), "to": 5},
                                   {"to": 5}])
    def test_bad_n_exit_2(self, tmp_path, capsys, N):
        inst = write_instance(tmp_path, dict(SMALL_CLASSICAL, N=N))
        code, _, err = run(capsys, "verify", inst, "--out-dir",
                           str(tmp_path / "out"))
        assert code == 2
        assert "BadN" in err

    def test_local_factors_n_past_int64_exit_2(self, capsys):
        code, out, err = run(capsys, "local-factors", "classical-vinogradov",
                             "--N", str(10**20))
        assert code == 2
        assert "BadN" in err
        assert out == ""

    def test_local_factors_empty_n_range_exit_2(self, tmp_path, capsys):
        doc = dict(SMALL_CLASSICAL, X=100, N={"from": 5, "to": 5})
        code, out, err = run(capsys, "local-factors",
                             write_instance(tmp_path, doc))
        assert code == 2
        assert "BadN" in err
        assert out == ""

    @pytest.mark.parametrize("key, value", [
        ("X", float("inf")), ("X", [5]), ("X", 100.7), ("X", True),
        ("fields", 5), ("fields", ["trivial"] * 3),
        ("a", [1, 1.5, 1]), ("a", 5), ("a", [1, True, 1]),
        ("euler_pmax", "x"), ("euler_pmax", 100.5),
        ("N", True), ("N", {"from": 1501.5, "to": 2501}),
    ])
    def test_instance_types_exit_2(self, tmp_path, capsys, key, value):
        inst = write_instance(tmp_path, dict(SMALL_CLASSICAL, **{key: value}))
        out = tmp_path / "out"
        code, _, err = run(capsys, "verify", inst, "--out-dir", str(out))
        assert code == 2, err
        assert err.startswith("error: ")
        assert not (out / "verify.csv").exists()

    def test_n_at_int64_ends_vanishes(self, tmp_path, capsys):
        for N in (2**63 - 1, -2**63):
            inst = write_instance(tmp_path, dict(SMALL_CLASSICAL, N=N))
            out = tmp_path / "out"
            code, _, _ = run(capsys, "verify", inst, "--out-dir", str(out),
                             "--no-timestamp")
            assert code == 0
            [row] = csv.DictReader(
                (out / "verify.csv").read_text().splitlines())
            assert (int(row["N"]), row["S_unweighted"]) == (N, "0")
            assert "vanishing" in row["flags"]

    def test_memory_gate_exit_3_before_prime_table(self, tmp_path, capsys,
                                                   monkeypatch):
        def no_sieve(x):
            raise AssertionError("primes listed past the memory gate")

        monkeypatch.setattr(errors, "MAX_BYTES", 2**16)
        monkeypatch.setattr(cli.sieve, "primes_upto", no_sieve)
        inst = write_instance(tmp_path, SMALL_CLASSICAL)
        code, _, err = run(capsys, "verify", inst, "--out-dir",
                           str(tmp_path / "out"))
        assert code == 3
        assert "GiB" in err

    def test_rows_gate_exit_3_before_prime_table(self, tmp_path, capsys,
                                                 monkeypatch):
        # trivial x3 at X = 3e8: the rows of verify need about 5 GiB
        def no_sieve(x):
            raise AssertionError("primes listed past the memory gate")

        monkeypatch.setattr(cli.sieve, "primes_upto", no_sieve)
        doc = dict(SMALL_CLASSICAL, X=3 * 10**8,
                   N={"from": 4 * 10**8 + 1, "to": 4 * 10**8 + 101,
                      "step": 10})
        inst = write_instance(tmp_path, doc)
        code, _, err = run(capsys, "verify", inst, "--out-dir",
                           str(tmp_path / "out"))
        assert code == 3
        assert "GiB" in err

    def test_rows_gate_charges_each_row(self, tmp_path, capsys,
                                        monkeypatch):
        # trivial x3 at X = 1e4: 50 rows fit in 64 MiB, 1e5 rows do not
        # (each row's N, count, main term and CSV line are held at once;
        # tests/measure_peaks.py verify), and the N range is refused before
        # it is listed
        limit = 64 * 2**20
        inst = classical_instance(10**4)
        assert circle.rows_estimated_bytes(inst, 50) < limit \
            < circle.rows_estimated_bytes(inst, 10**5)
        monkeypatch.setattr(errors, "MAX_BYTES", limit)
        doc = dict(SMALL_CLASSICAL, X=10**4,
                   N={"from": 13001, "to": 13101, "step": 2})
        code, _, err = run(capsys, "verify", write_instance(tmp_path, doc),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 0, err

        def no_sieve(x):
            raise AssertionError("primes listed past the memory gate")

        monkeypatch.setattr(cli.sieve, "primes_upto", no_sieve)
        doc["N"] = {"from": 13001, "to": 13001 + 2 * 10**5, "step": 2}
        code, _, err = run(capsys, "verify", write_instance(tmp_path, doc),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 3
        assert "GiB" in err

    def test_memory_error_names_its_type(self, tmp_path, capsys,
                                         monkeypatch):
        def out_of_memory(*args):
            raise MemoryError()

        monkeypatch.setattr(cli.circle, "counts_at", out_of_memory)
        inst = write_instance(tmp_path, SMALL_CLASSICAL)
        code, _, err = run(capsys, "verify", inst, "--out-dir",
                           str(tmp_path / "out"))
        assert code == 3
        assert err.strip() == "error: MemoryError"

    def test_unwritable_out_dir_exit_3(self, tmp_path, capsys):
        if os.geteuid() == 0:
            pytest.skip("running as root: directory modes are not enforced")
        inst = write_instance(tmp_path, SMALL_CLASSICAL)
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        blocked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        code, _, err = run(capsys, "verify", inst, "--out-dir",
                           str(blocked / "out"))
        assert code == 3

    def test_out_dir_is_a_file_exit_3(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SMALL_CLASSICAL)
        clash = tmp_path / "clash"
        clash.write_text("occupied")
        code, _, err = run(capsys, "verify", inst, "--out-dir", str(clash))
        assert code == 3

    def test_missing_instance_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"),
                           "--out-dir", str(tmp_path))
        assert code == 3

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", str(path), "--out-dir",
                           str(tmp_path))
        assert code == 2


DROP = object()  # an edit with this value deletes the key

# (edits to the inline s3-cbrt2 spec, issue code, field the message names);
# an edit is (key, ..., key, value)
MALFORMED_SPECS = [
    ([("coeffs", 0, -2.0)], "BadType", "coeffs"),
    ([("coeffs", 0, -2.5)], "BadType", "coeffs"),
    ([("coeffs", 3, True)], "BadType", "coeffs"),
    ([("coeffs", 0, [-2])], "BadType", "coeffs"),
    ([("classes", 1, "coset", [2.0])], "BadType", "coset"),
    ([("classes", 1, "coset", [[2]])], "BadType", "coset"),
    ([("classes", 0, "coset", [True])], "BadType", "coset"),
    ([("classes", 2, "order", 3.0)], "BadType", "order"),
    ([("classes", 2, "coset", [])], "InvalidCoset", "coset"),
    ([("classes", "abc")], "BadType", "classes"),
    ([("modulus", 3.7)], "BadType", "modulus"),
    ([("modulus", True)], "BadType", "modulus"),
    ([("group_order", "6")], "BadType", "group_order"),
    ([("group_order", DROP)], "MissingKey", "group_order"),
    ([("kind", "cyclotomic")], "BadType", "kind"),
    ([("classes", 2, "order", 0)], "NonPositive", "order"),
    ([("classes", 2, "order", -1)], "NonPositive", "order"),
    ([("classes", 0, "size", -1), ("classes", 1, "size", 5)],
     "NonPositive", "size"),
    ([("classes", i, "size", 0) for i in range(3)] + [("group_order", 0)],
     "NonPositive", "group_order"),
]


def s3_inline_instance(tmp_path, edits=()):
    """s3-cbrt2 classes 1, 2 and 3 with the spec given inline, after the
    edits."""
    spec = lemmas.spec_to_json(galois.builtin_spec("s3-cbrt2"))
    for *keys, last, value in edits:
        target = spec
        for key in keys:
            target = target[key]
        if value is DROP:
            del target[last]
        else:
            target[last] = value
    return write_instance(tmp_path, {
        "fields": [{"spec": spec, "class": c} for c in "123"],
        "a": [1, 1, 1], "X": 3000})


class TestFieldDocs:
    def test_inline_spec_runs(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", s3_inline_instance(tmp_path),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 0, err

    @pytest.mark.parametrize("edits, issue, field", MALFORMED_SPECS)
    def test_malformed_inline_spec_exit_2(self, tmp_path, capsys, edits,
                                          issue, field):
        out = tmp_path / "out"
        code, _, err = run(capsys, "verify",
                           s3_inline_instance(tmp_path, edits),
                           "--out-dir", str(out))
        assert code == 2, err
        assert err.startswith(f"error: {issue}: ")
        assert field in err
        assert not out.exists()

    def test_unknown_class_names_the_labels(self, tmp_path, capsys):
        inst = write_instance(tmp_path, dict(
            SMALL_CLASSICAL, fields=[{"builtin": "gaussian", "class": c}
                                     for c in "eex"]))
        code, _, err = run(capsys, "verify", inst, "--out-dir",
                           str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error: UnknownClass: ")
        assert "'x'" in err and "'e', 'c'" in err

    @pytest.mark.parametrize("field, key", [
        ({"builtin": "trivial"}, "'class'"),
        ({"class": "e"}, "'builtin' and 'spec'"),
    ])
    def test_field_without_key_exit_2(self, tmp_path, capsys, field, key):
        inst = write_instance(tmp_path, dict(
            SMALL_CLASSICAL, fields=[{"builtin": "trivial", "class": "e"},
                                     field, field]))
        code, _, err = run(capsys, "verify", inst, "--out-dir",
                           str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error: MissingKey: ")
        assert key in err


class TestLocalFactors:
    def test_classical_odd(self, tmp_path, capsys):
        inst = write_instance(tmp_path, SMALL_CLASSICAL)
        code, out, _ = run(capsys, "local-factors", inst, "--N", "2001")
        assert code == 0
        doc = json.loads(out)
        assert doc["C_D"] == [1, 1]
        assert doc["vanishing_reason"] is None
        # classical singular series: independent closed-form product
        series = 1.0
        for p in range(2, 2000):
            if all(p % d for d in range(2, int(p**0.5) + 1)):
                if 2001 % p == 0:
                    series *= 1 - (p - 1.0) ** -2
                else:
                    series *= 1 + (p - 1.0) ** -3
        assert doc["euler_truncated"] == pytest.approx(series, rel=1e-9)

    def test_reads_the_first_n_of_a_huge_range(self, tmp_path, capsys):
        # 5 * 10^11 values of N: only the first is read, none is listed
        huge = write_instance(tmp_path, dict(SMALL_CLASSICAL, N={
            "from": 1001, "to": 10**12 + 1, "step": 2}), "huge.json")
        code, out, err = run(capsys, "local-factors", huge)
        assert code == 0, err
        small = write_instance(tmp_path, SMALL_CLASSICAL)
        assert run(capsys, "local-factors", small, "--N", "1001") == \
            (0, out, "")

    def test_gaussian_congruence_vanishing(self, tmp_path, capsys):
        doc = {
            "fields": [{"builtin": "gaussian", "class": "e"}] * 3,
            "a": [1, 1, 1],
            "X": 2000,
        }
        inst = write_instance(tmp_path, doc)
        code, out, _ = run(capsys, "local-factors", inst, "--N", "2001")
        assert code == 0
        assert json.loads(out)["vanishing_reason"] == "CD_zero"

    def test_coefficient_factor_beyond_pmax_exit_2(self, tmp_path, capsys):
        # 10007 * 10009 has no prime factor <= 100 and is >= 100**2
        inst = write_instance(tmp_path, {**SMALL_CLASSICAL,
                                         "a": [1, 1, 10007 * 10009]})
        code, out, err = run(capsys, "local-factors", inst, "--N", "2001",
                             "--pmax", "100")
        assert code == 2
        assert "raise P_max" in err
        assert out == ""
