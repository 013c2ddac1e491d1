"""Show that the checks of run.py can fail.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload, makes one real `verify` call, then feeds the checker
the untouched output (which must pass) and copies with one change each
(each must be rejected, by the check named): one sampled row's
S_unweighted off by 1, one C_inf off in its 7th significant digit, one
row dropped.  Exits 0 when every verdict is as expected.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from run import Run, WORKLOADS


def change_7th_digit(text: str) -> str:
    chars = list(text)
    seen = 0
    for i, ch in enumerate(chars):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == 7:
                chars[i] = str((int(ch) + 1) % 10)
                return "".join(chars)
    raise ValueError(f"{text!r} has fewer than 7 significant digits")


def edit_rows(csv_text: str, edit) -> str:
    rows = list(csv.reader(io.StringIO(csv_text)))
    header, body = rows[0], rows[1:]
    body = edit(header, body)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header] + body)
    return out.getvalue()


def perturbations(csv_text: str, target_N: int):
    """(description, check expected to fail, perturbed CSV text)."""
    def set_cell(col, fn):
        def edit(header, body):
            i, j = header.index("N"), header.index(col)
            for row in body:
                if int(row[i]) == target_N:
                    row[j] = fn(row[j])
            return body
        return edit

    yield ("S_unweighted + 1 at N=%d" % target_N, "S_unweighted",
           edit_rows(csv_text, set_cell("S_unweighted",
                                        lambda v: str(int(v) + 1))))
    yield ("C_inf 7th significant digit at N=%d" % target_N, "C_inf",
           edit_rows(csv_text, set_cell("C_inf", change_7th_digit)))
    yield ("row N=%d dropped" % target_N, "rows",
           edit_rows(csv_text, lambda header, body: [
               r for r in body if int(r[header.index("N")]) != target_N]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", default=sorted(WORKLOADS),
                    choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    ok = True
    for name in args.workload:
        run = Run(name, args.seed)
        try:
            out = run.work / "out"
            res = run.verify_round(0)
            if res["rc"] != 0 or not run.correct:
                print(f"{name}: the real output did not pass its checks")
                ok = False
                continue
            text = (out / "verify.csv").read_text()
            summary = json.loads((out / "summary.json").read_text())
        finally:
            run.close()
        sampled = run.ref.sample(0)
        cases = [("untouched", None, text)] + \
            list(perturbations(text, sampled[0]))
        for desc, expect, body in cases:
            fails = {k: v for k, v in
                     run.ref.check(body, summary, sampled).items() if v}
            good = expect in fails if expect else not fails
            ok &= good
            verdict = ", ".join(f"{k}: {v[0]}" for k, v in fails.items()) \
                or "accepted"
            print(f"{name}: {desc}: {'ok' if good else 'WRONG'} "
                  f"({verdict})")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
