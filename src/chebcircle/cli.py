"""Command-line front end: JSON instances in, CSV/JSON out."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import circle, ecapp, expsum, galois, genfun, sieve, singular
from .errors import (ChebCircleError, NotFoundWithinLimit, ResourceLimit,
                     ValidationError)
from .instance import FieldClass, ProblemInstance

SCHEMA = "chebotarev-circle/1"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RESOURCE = 3

BUILTIN_INSTANCES = {
    "classical-vinogradov": {
        "fields": [{"builtin": "trivial", "class": "e"}] * 3,
        "a": [1, 1, 1],
        "X": 200000,
        "N": {"from": 160001, "to": 238402, "step": 1600},
        "sieve": {"A": 1, "B": 4},
        "euler_pmax": 10000,
    },
}


def _parse_alpha(text: str):
    if "/" in text:
        return Fraction(text)
    return float(text)


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_instance_doc(path_or_name: str) -> dict:
    if path_or_name in BUILTIN_INSTANCES:
        return json.loads(json.dumps(BUILTIN_INSTANCES[path_or_name]))
    return _read_json(path_or_name)


def _specs_from_docs(docs) -> list:
    """The spec of each field doc (a builtin name or an inline JSON spec),
    each distinct spec validated once."""
    specs = [galois.builtin_spec(d["builtin"]) if "builtin" in d
             else galois.spec_from_json(d["spec"]) for d in docs]
    for spec in dict.fromkeys(specs):
        galois.validate_spec(spec).raise_if_invalid()
    return specs


def _instance_from_doc(doc: dict):
    for key in ("fields", "a", "X"):
        if key not in doc:
            raise ValidationError([("MissingKey", f"instance lacks {key!r}")])
    specs = _specs_from_docs(doc["fields"])
    comps = tuple(FieldClass(spec, spec.class_by_label(f["class"]))
                  for spec, f in zip(specs, doc["fields"]))
    sv = doc.get("sieve", {})
    params = sieve.SieveParams.for_x(doc["X"], A=sv.get("A", 1.0),
                                     B=sv.get("B"))
    inst = ProblemInstance(comps, tuple(doc["a"]), int(doc["X"]), params)
    return inst, doc


def _n_list(doc: dict, inst: ProblemInstance):
    spec = doc.get("N")
    if spec is None:
        lo, hi = inst.attainable_range
        mid = (lo + hi) // 2
        return [mid + 2 * i + 1 for i in range(20)]
    if isinstance(spec, int):
        return [spec]
    return list(range(int(spec["from"]), int(spec["to"]),
                      int(spec.get("step", 1))))


def _open_out(out_dir: str, name: str):
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="")


def _timestamp_line(fh, suppress: bool):
    if not suppress:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")


def cmd_verify(args) -> int:
    t0 = time.time()
    inst, doc = _instance_from_doc(_load_instance_doc(args.instance))
    circle.check_memory(inst)
    table = sieve.PrimeTable.build(inst.X)
    pmax = args.pmax or doc.get("euler_pmax", 10**4)
    result = circle.verify_theorem(inst, inst.params.z, _n_list(doc, inst),
                                   table, pmax)
    with _open_out(args.out_dir, "verify.csv") as fh:
        _timestamp_line(fh, args.no_timestamp)
        w = csv.writer(fh)
        w.writerow(["N", "S_unweighted", "S_weighted", "C_inf", "C_D",
                    "euler", "main_term", "ratio", "flags"])
        for r in result.rows:
            w.writerow([r.N, r.S_unweighted, f"{r.S_weighted:.6f}",
                        f"{r.C_inf:.6f}", f"{r.C_D:.6f}",
                        f"{r.euler:.6f}", f"{r.main_term:.6f}",
                        "" if r.ratio is None else f"{r.ratio:.6f}",
                        r.flags])
    ratios = result.ratios()
    summary = {
        "schema": SCHEMA,
        "n_rows": len(result.rows),
        "median_ratio": (sorted(ratios)[len(ratios) // 2]
                         if ratios else None),
        "median_abs_dev": result.median_abs_dev,
        "q90_abs_dev": result.q90_abs_dev,
        "defaults": {"euler_pmax": pmax, "A": inst.params.A,
                     "B": inst.params.B, "z": inst.params.z,
                     "X": inst.X, "a": list(inst.a)},
        "runtime_sec": round(time.time() - t0, 3),
    }
    with _open_out(args.out_dir, "summary.json") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def cmd_local_factors(args) -> int:
    inst, doc = _instance_from_doc(_load_instance_doc(args.instance))
    N = args.N if args.N is not None else _n_list(doc, inst)[0]
    pmax = args.pmax or doc.get("euler_pmax", 10**4)
    report = singular.main_term(inst, N, pmax)
    print(report.to_json_str())
    return EXIT_OK


def _context_from_builtin(name: str, X: int, B: float,
                          table) -> genfun.GenfunContext:
    try:
        field_name, cls_label = name.rsplit("-", 1)
    except ValueError:
        raise ValidationError([("BadContext", f"cannot parse {name!r}")])
    spec = galois.builtin_spec(field_name)
    cls = spec.class_by_label(cls_label)
    params = sieve.SieveParams.for_x(X, B=B)
    return genfun.GenfunContext(table, X, params, spec=spec, cls=cls)


def cmd_genfun(args) -> int:
    table = sieve.PrimeTable.build(args.X)
    ctx = _context_from_builtin(args.builtin, args.X, args.B, table)
    alphas = [_parse_alpha(t) for t in args.alpha]
    w = csv.writer(sys.stdout)
    _timestamp_line(sys.stdout, args.no_timestamp)
    w.writerow(["alpha", "q_of_alpha", "G_re", "G_im", "Gsharp_re",
                "Gsharp_im", "Gflat_abs", "X", "z"])
    for a in alphas:
        G = genfun.eval_G(ctx, a)
        Gs = genfun.eval_G_sharp(ctx, a)
        q = expsum.best_approx(a, 10**4).q
        w.writerow([float(a), q, f"{G.real:.6f}", f"{G.imag:.6f}",
                    f"{Gs.real:.6f}", f"{Gs.imag:.6f}",
                    f"{abs(G - Gs):.6f}", args.X, f"{ctx.params.z:.3f}"])
    return EXIT_OK


def cmd_expsum(args) -> int:
    coeffs = [int(t) for t in args.coeffs.split(",")]
    alpha = _parse_alpha(args.alpha)
    s = expsum.weyl_sum(coeffs, alpha, args.X)
    ratio = expsum.weyl_bound_ratio(coeffs, alpha, args.X)
    bound = abs(s) / ratio if ratio else float("inf")
    ra = expsum.best_approx(alpha, 10**6)
    w = csv.writer(sys.stdout)
    w.writerow(["alpha", "q", "X", "sum_re", "sum_im", "bound", "ratio"])
    w.writerow([float(alpha), ra.q, args.X, f"{s.real:.6f}",
                f"{s.imag:.6f}", f"{bound:.6f}", f"{ratio:.6f}"])
    return EXIT_OK


def cmd_smooth(args) -> int:
    print(sieve.smooth_count(args.z, args.Y))
    return EXIT_OK


def cmd_ratapprox(args) -> int:
    ra = expsum.best_approx(_parse_alpha(args.alpha), args.qmax)
    print(f"{ra.a}/{ra.q}")
    return EXIT_OK


def cmd_ec_construct(args) -> int:
    field = ({"builtin": args.field} if args.field in galois.BUILTIN_NAMES
             else {"spec": _read_json(args.field)})
    [spec] = _specs_from_docs([field])
    cert = ecapp.construct_curve(spec, args.limit)
    check = ecapp.check_certificate(cert, spec)
    doc = cert.to_json()
    doc["verified"] = bool(check)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chebcircle",
        description="desk-scale circle-method verification for primes in "
                    "Chebotarev classes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="S(N) vs main term, CSV + summary")
    p.add_argument("instance")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--pmax", type=int, default=None)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("local-factors", help="main-term components as JSON")
    p.add_argument("instance")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--pmax", type=int, default=None)
    p.set_defaults(func=cmd_local_factors)

    p = sub.add_parser("genfun", help="G / G_sharp values on an alpha list")
    p.add_argument("--builtin", required=True,
                   help="field-class, e.g. gaussian-e or trivial-e")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--alpha", nargs="+", required=True)
    p.add_argument("--B", type=float, default=4.0)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("expsum", help="Weyl sum and bound ratio")
    p.add_argument("--coeffs", required=True,
                   help="ascending integer coefficients, comma separated")
    p.add_argument("--alpha", required=True)
    p.add_argument("--X", type=int, required=True)
    p.set_defaults(func=cmd_expsum)

    p = sub.add_parser("smooth", help="squarefree z-smooth count S(z, Y)")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--Y", type=float, required=True)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("ratapprox", help="best rational approximation")
    p.add_argument("--alpha", required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.set_defaults(func=cmd_ratapprox)

    p = sub.add_parser("ec-construct",
                       help="split-discriminant elliptic curve certificate")
    p.add_argument("--field", required=True,
                   help="builtin spec name or JSON file")
    p.add_argument("--limit", type=int, default=10**6)
    p.set_defaults(func=cmd_ec_construct)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimit, NotFoundWithinLimit, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ChebCircleError, ValueError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
