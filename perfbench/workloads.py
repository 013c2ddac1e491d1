"""Workload make-ups and the checks made on every `verify` output.

Everything here is computed from first principles with numpy and Python
integers: a sieve of Eratosthenes, the cubic-residue rule for the classes
of x^6 + 108, the closed ternary form of C_inf, the classical local
factors, and direct counts of representations.  Nothing is imported from
the program under test, so the checks stay independent of it.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

EULER_PMAX = 10**4
BOUNDARY_SHARE = 0.05   # rows this close (as a share of 3X) to an end
                        # are not held to the ratio tolerance
DECIMALS_ABS = 5e-7     # the CSV prints six decimals
FLOAT_REL = 1e-12       # double arithmetic in another order: C_inf by
                        # quadrature, Euler product through logs


@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple          # (builtin, class) per component
    X: int
    D: int                 # C_D modulus; Euler factors skip p | D
    prefactor: Fraction
    C_D: int
    ratio_tol: float       # |ratio - 1| allowed on non-boundary rows
    n_sampled: int         # rows counted directly per verify output

    def n_list(self, seed: int) -> list:
        """The requested N, shifted by the seed inside a fixed pattern."""
        rng = random.Random(f"{self.name}:{seed}")
        X = self.X
        if self.name == "s3-classify":
            # N = 1 mod 3 and odd, so C_D and every C_p are nonzero
            start = 3 * X // 2 + 1 + 6 * rng.randrange(100)
            return [start + 6 * i for i in range(20)]
        if self.name == "classical-fft":
            # the instance format takes one arithmetic progression, so the
            # rows span the whole range: the first and last lie close
            # enough to an end to be counted directly
            first = 10001 + 2 * rng.randrange(100)
            step = 2 * ((3 * X - 2 * first) // 48)
            return [first + step * i for i in range(25)]
        if self.name == "gaussian-dense":
            # N = 1 mod 4 = e + e + c mod 4
            start = 9 * X // 10 + 1 + 4 * rng.randrange(60)
            return [start + 240 * i for i in range(500)]
        raise KeyError(self.name)

    def instance_doc(self, seed: int) -> dict:
        """The instance file handed to `chebcircle verify`."""
        Ns = self.n_list(seed)
        return {"fields": [{"builtin": b, "class": c} for b, c in self.fields],
                "a": [1, 1, 1], "X": self.X, "euler_pmax": EULER_PMAX,
                "N": {"from": Ns[0], "to": Ns[-1] + 1, "step": Ns[1] - Ns[0]}}

    def countable_rows(self, Ns: list) -> list:
        """Rows whose direct count fits in a run."""
        if self.name == "classical-fft":
            return [N for N in Ns if min(N, 3 * self.X - N) <= 50000]
        return list(Ns)

    def is_boundary(self, N: int) -> bool:
        return min(N, 3 * self.X - N) < BOUNDARY_SHARE * 3 * self.X


WORKLOADS = {
    w.name: w for w in (
        Workload("s3-classify", (("s3-cbrt2", "1"), ("s3-cbrt2", "2"),
                                 ("s3-cbrt2", "3")),
                 X=100000, D=3, prefactor=Fraction(1, 36), C_D=3,
                 ratio_tol=0.04, n_sampled=2),
        Workload("classical-fft", (("trivial", "e"),) * 3,
                 X=500000, D=1, prefactor=Fraction(1), C_D=1,
                 ratio_tol=0.02, n_sampled=2),
        Workload("gaussian-dense", (("gaussian", "e"), ("gaussian", "e"),
                                    ("gaussian", "c")),
                 X=200000, D=4, prefactor=Fraction(1, 8), C_D=4,
                 ratio_tol=0.04, n_sampled=1),
    )
}


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

def primes_upto(n: int) -> np.ndarray:
    mark = np.ones(n + 1, dtype=bool)
    mark[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if mark[i]:
            mark[i * i::i] = False
    return np.nonzero(mark)[0].astype(np.int64)


def class_primes(w: Workload) -> list:
    """Prime list per component, classified without the program."""
    ps = primes_upto(w.X)
    out = []
    for builtin, label in w.fields:
        if builtin == "trivial":
            out.append(ps)
        elif builtin == "gaussian":
            out.append(ps[ps % 4 == (1 if label == "e" else 3)])
        elif builtin == "s3-cbrt2":
            # x^6 + 108 splits as Q(zeta_3, cbrt 2): Frobenius has order 2
            # when p = 2 mod 3; for p = 1 mod 3 it is trivial exactly when 2
            # is a cubic residue.  p = 2, 3 ramify.
            if label == "2":
                out.append(ps[ps % 3 == 2][1:])
            else:
                one = ps[ps % 3 == 1]
                cubic = np.array([pow(2, (int(p) - 1) // 3, int(p)) == 1
                                  for p in one], dtype=bool)
                out.append(one[cubic] if label == "1" else one[~cubic])
        else:
            raise KeyError(builtin)
    return out


def direct_count(classes: list, X: int, N: int) -> int:
    """#{(p1, p2, p3) : p_i in class i, p1 + p2 + p3 = N}, by looping over
    the smallest class and counting the other two by lookup."""
    order = sorted(range(3), key=lambda i: len(classes[i]))
    P1, P2, P3 = (classes[i] for i in order)
    ind3 = np.zeros(X + 1, dtype=np.int64)
    ind3[P3] = 1
    total = 0
    for p1 in P1[(P1 >= N - 2 * X) & (P1 <= N)].tolist():
        rest = N - p1
        lo = np.searchsorted(P2, rest - X)
        hi = np.searchsorted(P2, rest, side="right")
        if hi > lo:
            total += int(ind3[rest - P2[lo:hi]].sum())
    return total


def c_inf_exact(N: int, X: int) -> Fraction:
    """Slice density of x1 + x2 + x3 = N over [0, X]^3."""
    def pos2(t):
        return t * t if t > 0 else 0
    return Fraction(pos2(N) - 3 * pos2(N - X) + 3 * pos2(N - 2 * X)
                    - pos2(N - 3 * X), 2)


def euler_ref(Ns: list, D: int) -> np.ndarray:
    """prod over p <= 10^4, p not dividing D, of 1 - (p-1)^-2 if p | N,
    else 1 + (p-1)^-3."""
    ps = primes_upto(EULER_PMAX)
    ps = ps[D % ps != 0].astype(np.float64)
    Ns = np.asarray(Ns, dtype=np.int64)[:, None]
    divides = Ns % ps.astype(np.int64)[None, :] == 0
    fac = np.where(divides, 1.0 - (ps - 1.0) ** -2, 1.0 + (ps - 1.0) ** -3)
    return np.prod(fac, axis=1)


def close(got: float, want: float) -> bool:
    return abs(got - want) <= DECIMALS_ABS + FLOAT_REL * abs(want)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

CHECKS = ("rows", "C_inf", "euler", "main_term", "S_unweighted", "ratio")


class Reference:
    """What one workload and seed should produce, built once per run."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        self.Ns = w.n_list(seed)
        self.classes = class_primes(w)
        self.euler = dict(zip(self.Ns, euler_ref(self.Ns, w.D).tolist()))
        self.countable = w.countable_rows(self.Ns)

    def sample(self, round_no: int) -> list:
        rng = random.Random(f"{self.w.name}:{self.seed}:{round_no}")
        return sorted(rng.sample(self.countable, self.w.n_sampled))

    def check(self, csv_text: str, summary: dict, sampled: list) -> dict:
        """{check name: list of failure messages} over one verify output."""
        fails = {name: [] for name in CHECKS}
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        got_Ns = [int(r["N"]) for r in rows]
        if got_Ns != self.Ns:
            fails["rows"].append(
                f"CSV has {len(got_Ns)} rows, N column differs from the "
                f"{len(self.Ns)} requested")
        if summary.get("n_rows") != len(self.Ns):
            fails["rows"].append(f"summary n_rows {summary.get('n_rows')} "
                                 f"!= {len(self.Ns)}")
        w = self.w
        for r in rows:
            N = int(r["N"])
            if N not in self.euler:
                continue
            cinf = c_inf_exact(N, w.X)
            if not close(float(r["C_inf"]), float(cinf)):
                fails["C_inf"].append(f"N={N}: C_inf {r['C_inf']} != "
                                      f"{float(cinf)!r}")
            eu = self.euler[N]
            if not close(float(r["euler"]), eu):
                fails["euler"].append(f"N={N}: euler {r['euler']} != {eu!r}")
            mt = float(w.prefactor * cinf * w.C_D) * eu
            if not (close(float(r["C_D"]), w.C_D)
                    and close(float(r["main_term"]), mt)):
                fails["main_term"].append(
                    f"N={N}: C_D {r['C_D']}, main_term {r['main_term']} != "
                    f"{w.C_D}, {mt!r}")
            ratio = float(r["ratio"])
            implied = float(r["S_weighted"]) / float(r["main_term"])
            if abs(ratio - implied) > DECIMALS_ABS + FLOAT_REL:
                fails["ratio"].append(f"N={N}: ratio {ratio} != "
                                      f"S_weighted/main_term {implied!r}")
            if not w.is_boundary(N) and abs(ratio - 1.0) > w.ratio_tol:
                fails["ratio"].append(f"N={N}: |ratio - 1| = "
                                      f"{abs(ratio - 1.0):.4f} > {w.ratio_tol}")
        by_N = {int(r["N"]): r for r in rows}
        for N in sampled:
            want = direct_count(self.classes, w.X, N)
            got = by_N.get(N, {}).get("S_unweighted")
            if got is None or int(got) != want:
                fails["S_unweighted"].append(
                    f"N={N}: S_unweighted {got} != direct count {want}")
        return fails
