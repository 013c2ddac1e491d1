"""Representation counts S(N) by convolution over classified primes,
the brute-force oracle, the sieved coefficient analogue, Parseval norms, and
the end-to-end comparison against the predicted main term."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import sieve, singular
from .errors import ResourceLimit
from .expsum import phase_array
from .instance import FieldClass, ProblemInstance

MAX_BYTES = 4 * 2**30
# Peak bytes of the interpreter and numpy, per FFT point, per unit of X,
# and per unit of X and of |a_i| for each distinct (component, a_i), whose
# embedded array _convolve transforms once and releases before the next
# transform; fitted to the peak RSS of weighted_counts on 16 instances
# (k = 2..4, X = 1e4..4e6, one to four distinct components), each within
# 4% of its measurement.
BYTES_BASE = 31 * 2**20
BYTES_PER_FFT_POINT = 31
BYTES_PER_X = 4
BYTES_PER_COMPONENT_X = 9
# The L1 grid of h_flat_norms: np.fft.fft holds its complex output and two
# pocketfft buffers of the same length, one complex128 each per grid point,
# on top of the all-N count's peak.
BYTES_PER_GRID_POINT = 3 * 16
# The rows-only counts_at of verify peaks either in the sieve and the
# classification of the primes <= X, per unit of X and, for an f of degree
# n > 1, per unit of X and of n^2; or in the count, per unit of X and per
# point of a head transform, which convolves at most k - 1 components over
# their odd primes indexed by p // g, for the gcd g of their classes'
# _coset_step (2 for the trivial class, 4 for gaussian, 6 for s3-cbrt2),
# one channel at a time.  Fitted with BYTES_BASE to 50 rows of trivial x3
# at X = 1e6, 4e6 and 1e7 (peaks 69, 180 and 399 MiB, where the all-N
# estimate is 133, 440 and 1 049), of s3-cbrt2 (1, 2, 3) and gaussian
# (e, e, c) at 4e6 (108 and 107 MiB against 509 and 474) and of trivial x4
# at 1e6 (85 MiB against 163), each within 3% of its measurement.  Both
# tables are measured by tests/measure_peaks.py.
ROWS_SIEVE_PER_X = 3
ROWS_PER_DEGREE2_X = 2
ROWS_PER_FFT_POINT = 36
ROWS_PER_X = 2
# Largest distance from an integer that a rounded FFT count may have.
MAX_RESIDUAL = 0.25


def _embed(values: np.ndarray, ai: int) -> np.ndarray:
    """Spread values[n] to index |ai|*n, reversed when ai < 0; values
    itself (or a reversed view of it) when |ai| = 1."""
    out = values
    if abs(ai) > 1:
        out = np.zeros(abs(ai) * (len(values) - 1) + 1, dtype=values.dtype)
        out[::abs(ai)] = values
    return out[::-1] if ai < 0 else out


def _fft_len(span: int) -> int:
    """Transform length for coefficients over span + 1 consecutive N: the
    least even 2^a 3^b 5^c >= span + 1, a length that pocketfft's radix-2,
    3 and 5 passes transform directly, and never above the next power of
    two."""
    best = 1 << max(1, span.bit_length())
    p5 = 2
    while p5 < best:
        p35 = p5
        while p35 < best:
            n = p35
            while n <= span:
                n *= 2
            best = min(best, n)
            p35 *= 3
        p5 *= 5
    return best


def _span(arrays, a) -> int:
    """hi - lo of the exponents of prod_i sum_n arrays[i][n] x^(a_i n)."""
    return sum(abs(ai) * (len(v) - 1) for v, ai in zip(arrays, a))


def _convolve(arrays, a) -> np.ndarray:
    """Coefficients of prod_i sum_n arrays[i][n] x^(a_i n), lowest exponent
    first, by FFT.  The factors are grouped by (array, a_i) in order of
    first occurrence; each group is transformed once, multiplied in as
    often as it occurs and released before the next transform, so that
    one spectrum besides the product is alive at a time.  The result is a
    view into the M-point inverse transform.  A copy would release the
    rest of it (h_flat_norms of trivial x3 at X = 1e6 peaks at 680 MiB with
    a copy, 712 MiB with the view) but, in a fresh process, takes about
    3 000 more page faults: verify of perfbench's classical-fft ran in
    103 ms with a copy against 97 ms with the view."""
    span = _span(arrays, a)
    M = _fft_len(span)
    keys = [(id(v), ai) for v, ai in zip(arrays, a)]
    spec = np.ones(M // 2 + 1, dtype=complex)
    for key in dict.fromkeys(keys):
        i = keys.index(key)
        factor = np.fft.rfft(_embed(arrays[i], a[i]), M)
        for _ in range(keys.count(key)):
            spec *= factor
        del factor
    return np.fft.irfft(spec, M)[:span + 1]


def _exact_convolve(arrays, a) -> np.ndarray:
    """_convolve by big-integer multiplication (Kronecker substitution,
    base 2^64); exact for nonnegative integer entries, and the reference
    that the rounded FFT counts are tested against."""
    acc = math.prod(int.from_bytes(_embed(v, ai).astype("<u8").tobytes(),
                                   "little")
                    for v, ai in zip(arrays, a))
    data = acc.to_bytes((_span(arrays, a) + 1) * 8, "little")
    return np.frombuffer(data, dtype="<u8").astype(np.int64)


def estimated_bytes(inst: ProblemInstance) -> int:
    """Estimated peak memory of the all-N count weighted_counts on inst,
    prime lists included; allocates nothing."""
    embedded = sum(abs(ai) for _, ai in set(zip(inst.components, inst.a)))
    per_x = BYTES_PER_X + BYTES_PER_COMPONENT_X * embedded
    lo, hi = inst.attainable_range
    return (BYTES_BASE + BYTES_PER_FFT_POINT * _fft_len(hi - lo)
            + per_x * (inst.X + 1))


def _grid_len(inst: ProblemInstance) -> int:
    """Points of h_flat_norms' L1 grid: at least 4x the attainable N."""
    lo, hi = inst.attainable_range
    return _fft_len(4 * (hi - lo + 1) - 1)


def norms_estimated_bytes(inst: ProblemInstance) -> int:
    """Estimated peak memory of h_flat_norms on inst, the all-N count's
    and its L1 grid's; allocates nothing."""
    return estimated_bytes(inst) + BYTES_PER_GRID_POINT * _grid_len(inst)


def _coset_step(fc: FieldClass) -> int:
    """A step that the odd primes of fc's class keep: classify_batch puts
    p in the class only when p mod D lies in its coset, so these primes lie
    in one residue class mod the gcd h of D and the differences of the
    coset's residues, and, being odd, in one mod lcm(2, h)."""
    r0 = min(fc.cls.coset, default=0)
    return math.lcm(2, math.gcd(fc.spec.modulus,
                                *(r - r0 for r in fc.cls.coset)))


def rows_estimated_bytes(inst: ProblemInstance) -> int:
    """Estimated peak memory of the rows-only counts_at on inst; allocates
    nothing.  Its peak is the larger of two phases.  The sieve of X and
    the classification by each spec's f, of degree n, which holds about
    n^2 int64 per prime when n > 1.  Then the count, holding the prime
    arrays and one head transform; the largest head is that of the term
    in which no component takes 2, the first k - 1 components at the step
    G, the gcd of every component's _coset_step, which spans
    sum_{i < k-1} |a_i| (X // G)."""
    G = math.gcd(*map(_coset_step, inst.components))
    span = sum(abs(ai) for ai in inst.a[:-1]) * (inst.X // G)
    n = max(len(fc.spec.poly) - 1 for fc in inst.components)
    sieve_x = ROWS_SIEVE_PER_X + (ROWS_PER_DEGREE2_X * n * n if n > 1 else 0)
    count = ROWS_PER_FFT_POINT * _fft_len(span) + ROWS_PER_X * (inst.X + 1)
    return BYTES_BASE + max(sieve_x * (inst.X + 1), count)


def check_memory(inst: ProblemInstance, estimate=estimated_bytes):
    """Raise ResourceLimit when inst would need more than MAX_BYTES by
    estimate (the all-N one unless given)."""
    need = estimate(inst)
    if need > MAX_BYTES:
        raise ResourceLimit(f"X={inst.X}, a={inst.a} needs about "
                            f"{need / 2**30:.1f} GiB; the limit is "
                            f"{MAX_BYTES / 2**30:.0f} GiB")


def _component_primes(inst: ProblemInstance, estimate=estimated_bytes):
    """The primes <= X of each component's class, after check_memory by
    estimate, so that a too-large instance is refused before the sieve of
    X.  Each distinct spec is classified once, only the classes the
    components use are split out, and equal components share one array."""
    check_memory(inst, estimate)
    by_spec = {}
    for fc in dict.fromkeys(inst.components):
        by_spec.setdefault(fc.spec, []).append(fc)
    arrays = {}
    for spec, fcs in by_spec.items():
        arrays.update(zip(fcs, sieve.class_primes(
            spec, inst.X, [spec.classes.index(fc.cls) for fc in fcs])))
    return [arrays[fc] for fc in inst.components]


def _dense(comps, X: int, weighted: bool, step: int = 1):
    """Per prime array of comps, the array over m = 0..X // step holding
    log p (weighted) or 1 at m = p // step for each of its primes p, 0
    elsewhere; equal components share one array, so that _convolve
    transforms it once."""
    made = {}
    for ps in comps:
        if id(ps) not in made:
            v = np.zeros(X // step + 1, np.float64 if weighted else np.uint8)
            v[ps // step] = np.log(ps.astype(np.float64)) if weighted else 1
            made[id(ps)] = v
    return [made[id(ps)] for ps in comps]


def _log_convolution(comps, inst: ProblemInstance) -> np.ndarray:
    """S(N) weighted by the product of log p, from the component primes
    comps, for every attainable N; clamped at 0 against FFT round-off."""
    weighted = _convolve(_dense(comps, inst.X, True), inst.a)
    np.maximum(weighted, 0.0, out=weighted)
    return weighted


def weighted_counts(inst: ProblemInstance) -> np.ndarray:
    """S(N) weighted by the product of log p for every attainable N, index
    0 holding N = attainable_range[0]; clamped at 0 against FFT
    round-off."""
    return _log_convolution(_component_primes(inst), inst)


def _rows(head, a, last, ak: int, Ns, weights=None) -> np.ndarray:
    """For each N of Ns, the sum over the primes q of last of the head's
    coefficient at N - ak q: weighted by weights[j] at the j-th prime as
    float64 when weights are given, else as int64 counts.  The head,
    prod_i sum_n head[i][n] x^(a_i n), is head[0] embedded when there is
    one array, else their FFT convolution (the constant 1 when head is
    empty), rounded when counting; a rounded count that is not within
    MAX_RESIDUAL of an integer raises ResourceLimit."""
    h = _embed(head[0], a[0]) if len(head) == 1 else _convolve(head, a)
    if weights is None and len(head) != 1:
        counts = np.empty(len(h), np.int64)
        np.rint(h, out=counts, casting="unsafe")
        h -= counts
        residual = float(np.max(np.abs(h, out=h)))
        if residual >= MAX_RESIDUAL:
            raise ResourceLimit(f"FFT round-off {residual:.3g} leaves the "
                                f"counts of a={tuple(a)} inexact")
        h = counts
        np.maximum(h, 0, out=h)
    shifted = sum(ai * (len(v) - 1) for v, ai in zip(head, a) if ai < 0)
    shifted += ak * last
    out = np.zeros(len(Ns), np.int64 if weights is None else np.float64)
    for i, N in enumerate(Ns):
        idx = N - shifted
        ok = (idx >= 0) & (idx < len(h))
        out[i] = (np.sum(h[idx[ok]], dtype=np.int64) if weights is None
                  else h[idx[ok]] @ weights[ok])
    return out


def _progression_terms(inst: ProblemInstance, comps, Ns):
    """S(N) split by the set T of components that take p = 2, among those
    whose class holds 2; the rest R take their odd primes comps[i], all
    <= X.  A term's step g is the gcd of the _coset_step of the components
    in R, so that each p of component i in R is g m + r_i, r_i the first
    odd prime's residue mod g, and sum_R a_i m_i = N' = (N - c) / g with
    c = 2 sum_T a_i + sum_R a_i r_i, weighted by (log 2)^|T|; the term in
    which every component takes 2 needs no step and counts N' = N - c.
    Returns [(arrays, coefficients, |T|, g, rows, Ms, at)], one entry per
    distinct run of (array, a_i) along R, the odd-prime arrays and a_i of
    R in order: rows lists every row j of Ns for which N' is an integer,
    Ms the distinct N' among them, and at the index in Ms of each row's
    N'."""
    a = inst.a
    # one odd-prime view per distinct array, so that equal components
    # still share one
    made = {}
    for ps in comps:
        made.setdefault(id(ps), ps[1:] if len(ps) and ps[0] == 2 else ps)
    odd = [made[id(ps)] for ps in comps]
    steps = [_coset_step(fc) for fc in inst.components]
    holds2 = [i for i, ps in enumerate(comps) if len(ps) and ps[0] == 2]
    terms = {}
    for T in itertools.chain.from_iterable(
            itertools.combinations(holds2, r) for r in range(len(holds2) + 1)):
        rest = [i for i in range(len(comps)) if i not in T]
        key = tuple((id(odd[i]), a[i]) for i in rest)
        if key not in terms:
            g = math.gcd(*(steps[i] for i in rest)) or 1
            terms[key] = ([odd[i] for i in rest], [a[i] for i in rest],
                          len(T), g, [], [])
        *_, g, rows, Ms = terms[key]
        c = 2 * sum(a[i] for i in T) + sum(a[i] * int(odd[i][0] % g)
                                           for i in rest if len(odd[i]))
        for j, N in enumerate(map(int, Ns)):
            if (N - c) % g == 0:
                rows.append(j)
                Ms.append((N - c) // g)
    return [(*term, rows, *np.unique(Ms, return_inverse=True))
            for *term, rows, Ms in terms.values() if rows]


def counts_at(inst: ProblemInstance, Ns):
    """(weighted, unweighted) S(N) at each N of Ns, as float64 and int64
    arrays.  Each term of _progression_terms is a count over the odd
    primes of its arrays, each prime p indexed by m = p // g for the
    term's step g, the gcd of its classes' _coset_step: _rows over all
    arrays but the last (the head) and the last array's primes, or 1 at
    N' = 0 when there are none.  One channel runs after the other and one
    head is held at a time.  The weighted value is clamped at 0 against
    FFT round-off."""
    terms = _progression_terms(
        inst, _component_primes(inst, rows_estimated_bytes), Ns)

    def channel(weighted: bool) -> np.ndarray:
        out = np.zeros(len(Ns), np.float64 if weighted else np.int64)
        for arrays, a, t, g, rows, Ms, at in terms:
            if arrays:
                *head, last = arrays
                vals = _rows(_dense(head, inst.X, weighted, g), a[:-1],
                             last // g, a[-1], Ms.tolist(),
                             np.log(last.astype(np.float64))
                             if weighted else None)[at]
            else:
                vals = (Ms == 0).astype(np.int64)[at]
            np.add.at(out, rows, vals * math.log(2) ** t if weighted
                      else vals)
        return out

    weighted = channel(True)
    np.maximum(weighted, 0.0, out=weighted)
    return weighted, channel(False)


def brute_force_all(inst: ProblemInstance):
    """{N: (weighted, unweighted) S(N)} for every N with a solution, by
    meet-in-the-middle enumeration over the classified prime lists; the
    oracle path.  N absent from the dict has S(N) = (0.0, 0)."""
    comps = _component_primes(inst)
    half = (inst.k + 1) // 2

    def sums(idx):
        """partial sum over the components idx -> (solution count,
        product of log p)"""
        acc = {0: (1, 1.0)}
        for i in idx:
            nxt = {}
            ps = comps[i]
            logs = np.log(ps.astype(np.float64))
            for s, (cnt, wt) in acc.items():
                for p, lg in zip(ps, logs):
                    key = s + inst.a[i] * int(p)
                    c0, w0 = nxt.get(key, (0, 0.0))
                    nxt[key] = (c0 + cnt, w0 + wt * lg)
            acc = nxt
        return acc

    left, right = sums(range(half)), sums(range(half, inst.k))
    out = {}
    for s, (cnt, wt) in left.items():
        for t, (c1, w1) in right.items():
            c0, w0 = out.get(s + t, (0, 0.0))
            out[s + t] = (c0 + cnt * c1, w0 + wt * w1)
    return {N: (w, c) for N, (c, w) in out.items()}


def h_sharp_array(inst: ProblemInstance, z: float) -> np.ndarray:
    """Coefficients of H_sharp for every attainable N, indexed like
    weighted_counts: the prefactor times the convolution of the
    congruence-sieve weight arrays."""
    check_memory(inst)
    arrays = {fc: sieve.sharp_weights(inst.X, z, fc.spec.modulus,
                                      fc.cls.coset)
              for fc in dict.fromkeys(inst.components)}
    vals = _convolve([arrays[fc] for fc in inst.components], inst.a)
    vals *= float(inst.prefactor)
    return vals


def h_flat_norms(inst: ProblemInstance, z: float):
    """(L1, L2) of H_flat = H - H_sharp: L2 by Parseval over coefficients,
    L1 by sampling the difference polynomial at roots of unity at least 4x
    oversampled; refused by norms_estimated_bytes before the sieve."""
    check_memory(inst, norms_estimated_bytes)
    diff = weighted_counts(inst) - h_sharp_array(inst, z)
    l2 = float(math.sqrt(np.sum(diff * diff)))
    vals = np.fft.fft(diff, _grid_len(inst))
    l1 = float(np.mean(np.abs(vals)))
    return l1, l2


@dataclass
class VerifyRow:
    N: int
    S_unweighted: int
    S_weighted: float
    C_inf: float
    C_D: float
    euler: float
    main_term: float
    ratio: Optional[float]
    flags: str


@dataclass
class VerifyResult:
    rows: list
    median_ratio: Optional[float]     # median ratio over every rated row
    median_abs_dev: Optional[float]   # median of |ratio - 1| over rated rows
    q90_abs_dev: Optional[float]


BOUNDARY_MARGIN = 0.05


def verify_theorem(inst: ProblemInstance, N_list,
                   P_max: int = singular.P_MAX) -> VerifyResult:
    """Per-N comparison of S(N) against the assembled main term."""
    weighted, unweighted = counts_at(inst, N_list)
    lo, hi = inst.attainable_range
    span = hi - lo
    rows = []
    for N, sw, su, rep in zip(N_list, weighted.tolist(), unweighted.tolist(),
                              singular.main_terms(inst, N_list, P_max)):
        flags = []
        if min(N - lo, hi - N) < BOUNDARY_MARGIN * span:
            flags.append("boundary")
        ratio = None
        if rep.main_term > 0:
            ratio = sw / rep.main_term
        else:
            flags.append("vanishing")
        rows.append(VerifyRow(N, su, sw, rep.C_inf, float(rep.C_D),
                              rep.euler_truncated, rep.main_term, ratio,
                              "+".join(flags)))
    ratios = sorted(r.ratio for r in rows if r.ratio is not None)
    devs = sorted(abs(r.ratio - 1.0) for r in rows
                  if r.ratio is not None and "boundary" not in r.flags)
    if not devs:
        devs = sorted(abs(r.ratio - 1.0) for r in rows
                      if r.ratio is not None)
    med = devs[len(devs) // 2] if devs else None
    q90 = devs[min(len(devs) - 1, int(0.9 * len(devs)))] if devs else None
    return VerifyResult(rows, ratios[len(ratios) // 2] if ratios else None,
                        med, q90)


def parseval_check(inst: ProblemInstance):
    """(sum of S(N)^2, quadrature of |H|^2 on the grid alpha = j/M, M four
    times the number of N) where the grid side evaluates H(alpha) =
    prod G_i(a_i alpha) from the prime sums directly, independent of the
    convolution path: one prime at a time, e(a_i p j / M) is read from one
    table of the M-th roots of unity at (a_i p mod M) j mod M, a product
    below 2^63 while M < 3e9."""
    comps = _component_primes(inst)
    weighted = _log_convolution(comps, inst)
    lhs = float(np.sum(weighted ** 2))
    M = 4 * len(weighted)
    grid = np.arange(M)
    roots = phase_array(grid, Fraction(1, M))
    H = np.ones(M, dtype=complex)
    for primes, ai in zip(comps, inst.a):
        G = np.zeros(M, dtype=complex)
        for p in primes.tolist():
            G += math.log(p) * roots[(ai * p % M) * grid % M]
        H *= G
    rhs = float(np.mean(np.abs(H) ** 2))
    return lhs, rhs
