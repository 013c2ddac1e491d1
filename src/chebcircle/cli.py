"""Command-line front end: JSON instances in, CSV/JSON out."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import SCHEMA, circle, ecapp, expsum, galois, genfun, sieve, singular
from .errors import (ChebCircleError, NotFoundWithinLimit, ResourceLimit,
                     ValidationError)
from .galois import is_json_int
from .instance import FieldClass, ProblemInstance

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
    try:
        alpha = Fraction(text) if "/" in text else float(text)
    except ZeroDivisionError:
        raise ValidationError([("BadAlpha", f"alpha {text!r} has a zero "
                                            "denominator")])
    if isinstance(alpha, float) and not math.isfinite(alpha):
        raise ValidationError([("BadAlpha", f"alpha {text!r} is not "
                                            "finite")])
    return alpha


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
        galois.validate_spec(spec)
    return specs


def _instance_from_doc(doc: dict):
    """(instance, doc, the sieve block's A, B and z)."""
    for key in ("fields", "a", "X"):
        if not isinstance(doc, dict) or key not in doc:
            raise ValidationError([("MissingKey", f"instance lacks {key!r}")])
    fields, a = doc["fields"], doc["a"]
    if not (isinstance(fields, list)
            and all(isinstance(f, dict) for f in fields)):
        raise ValidationError([("BadFields", "fields takes a list of "
                                             "objects")])
    for f in fields:
        if "class" not in f:
            raise ValidationError([("MissingKey", "a field lacks 'class'")])
        if "builtin" not in f and "spec" not in f:
            raise ValidationError([("MissingKey", "a field lacks both "
                                                  "'builtin' and 'spec'")])
    if not (isinstance(a, list) and all(map(is_json_int, a))
            and is_json_int(doc["X"])
            and is_json_int(doc.get("euler_pmax", 0))):
        raise ValidationError([("BadType", "X, euler_pmax and each entry "
                                           "of a take JSON integers")])
    specs = _specs_from_docs(fields)
    comps = tuple(FieldClass(spec, spec.class_by_label(f["class"]))
                  for spec, f in zip(specs, fields))
    inst = ProblemInstance(comps, tuple(a), doc["X"])
    return inst, doc, _sieve_level(doc.get("sieve", {}), inst.X)


def _sieve_level(sv, X: int) -> dict:
    """A and B of an instance's sieve block, with z = (log X)^B; B = 4A by
    default.  summary.json records them; the count and main term do not
    read them."""
    bad = ValidationError([("BadSieve", "sieve takes finite numbers A and "
                                        "B, with (log X)^B finite")])
    if not isinstance(sv, dict) or any(
            type(sv.get(k, 1.0)) not in (int, float) for k in ("A", "B")):
        raise bad
    for key in sv:
        if key not in ("A", "B"):
            raise ValidationError([("BadSieve", f"unknown sieve key {key!r}; "
                                                "sieve takes A and B")])
    A = sv.get("A", 1.0)
    try:
        B, z = sieve.level(X, A, sv.get("B"))
        if all(math.isfinite(v) for v in (A, B, z)):
            return {"A": A, "B": B, "z": z}
    except OverflowError:
        pass
    raise bad


def _n_list(doc: dict, inst: ProblemInstance):
    """The instance's N values, unlisted: local-factors reads one."""
    spec = doc.get("N")
    if spec is None:
        lo, hi = inst.attainable_range
        mid = (lo + hi) // 2
        return range(mid + 1, mid + 41, 2)
    bad = ValidationError([("BadN", "N takes an integer or {from, to, "
                                    "step} of integers, within int64")])
    parts = ([spec.get("from"), spec.get("to"), spec.get("step", 1)]
             if isinstance(spec, dict) else [spec])
    if not all(map(is_json_int, parts)) or 0 in parts[2:]:
        raise bad
    Ns = range(*parts) if isinstance(spec, dict) else parts
    if any(not -2**63 <= N < 2**63 for N in [*Ns[:1], *Ns[-1:]]):
        raise bad
    return Ns


def _pmax(args, doc) -> int:
    """--pmax if given (0 included), else the instance's euler_pmax."""
    pmax = (doc.get("euler_pmax", singular.P_MAX) if args.pmax is None
            else args.pmax)
    if pmax < 2:
        raise ValidationError([("BadPmax", f"P_max {pmax} is below 2")])
    return pmax


def _open_out(out_dir: str, name: str):
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="")


def _timestamp_line(fh, suppress: bool):
    if not suppress:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")


def cmd_verify(args) -> int:
    t0 = time.time()
    inst, doc, level = _instance_from_doc(_load_instance_doc(args.instance))
    pmax = _pmax(args, doc)
    result = circle.verify_theorem(inst, _n_list(doc, inst), pmax)
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
    summary = {
        "schema": SCHEMA,
        "n_rows": len(result.rows),
        "median_ratio": result.median_ratio,
        "median_abs_dev": result.median_abs_dev,
        "q90_abs_dev": result.q90_abs_dev,
        "defaults": {"euler_pmax": pmax, **level, "X": inst.X,
                     "a": list(inst.a)},
        "runtime_sec": round(time.time() - t0, 3),
    }
    with _open_out(args.out_dir, "summary.json") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def cmd_local_factors(args) -> int:
    inst, doc, _ = _instance_from_doc(_load_instance_doc(args.instance))
    if args.N is not None:
        doc["N"] = args.N
    Ns = _n_list(doc, inst)
    if not Ns:
        raise ValidationError([("BadN", "the instance's N range is empty")])
    [report] = singular.main_terms(inst, Ns[:1], _pmax(args, doc))
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK


def _context_from_builtin(name: str, X: int, B: float) -> genfun.GenfunContext:
    if X < 2:
        raise ValidationError([("BadX", "genfun takes X >= 2")])
    z = _sieve_level({"B": B}, X)["z"]
    try:
        field_name, cls_label = name.rsplit("-", 1)
    except ValueError:
        raise ValidationError([("BadContext", f"cannot parse {name!r}")])
    spec = galois.builtin_spec(field_name)
    cls = spec.class_by_label(cls_label)
    return genfun.GenfunContext(X, z, spec=spec, cls=cls)


def cmd_genfun(args) -> int:
    ctx = _context_from_builtin(args.builtin, args.X, args.B)
    alphas = [_parse_alpha(t) for t in args.alpha]
    w = csv.writer(sys.stdout)
    _timestamp_line(sys.stdout, args.no_timestamp)
    w.writerow(["alpha", "q_of_alpha", "G_re", "G_im", "Gsharp_re",
                "Gsharp_im", "Gflat_abs", "X", "z"])
    for r in genfun.minor_arc_scan(ctx, alphas):
        w.writerow([r.alpha, r.q, f"{r.G.real:.6f}", f"{r.G.imag:.6f}",
                    f"{r.G_sharp.real:.6f}", f"{r.G_sharp.imag:.6f}",
                    f"{abs(r.G - r.G_sharp):.6f}", args.X, f"{ctx.z:.3f}"])
    return EXIT_OK


def cmd_expsum(args) -> int:
    coeffs = [int(t) for t in args.coeffs.split(",")]
    alpha = _parse_alpha(args.alpha)
    s = expsum.weyl_sum(coeffs, alpha, args.X)
    bound, ra = expsum.weyl_bound(coeffs, alpha, args.X)
    w = csv.writer(sys.stdout)
    w.writerow(["alpha", "q", "X", "sum_re", "sum_im", "bound", "ratio"])
    w.writerow([float(alpha), ra.q, args.X, f"{s.real:.6f}",
                f"{s.imag:.6f}", f"{bound:.6f}", f"{abs(s) / bound:.6f}"])
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
        code, err = EXIT_RESOURCE, exc
    except (ChebCircleError, ValueError, KeyError,
            json.JSONDecodeError) as exc:
        code, err = EXIT_INVALID, exc
    print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
