"""Representation counts S(N) by convolution over classified primes: the
rows-only count of verify (counts_at) and its memory estimate, the all-N
count (weighted_counts), the brute-force oracle, and the end-to-end
comparison against the predicted main term."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import galois, sieve, singular
from .errors import BYTES_BASE, ResourceLimit, refuse_above
from .instance import FieldClass, ProblemInstance

# The rows-only counts_at of verify peaks either in the sieve and the
# classification of the primes <= X (sieve.sieve_bytes) or in the count,
# per unit of X and per point of one term's transform, head and spread
# (rows_estimated_bytes); each row of verify (its N, count, main term and
# CSV line) costs bytes on top.  Fitted to the peak RSS of the rows and
# verify tables of tests/measure_peaks.py, each row within 5% of its
# measurement.
ROWS_PER_SPECTRUM_POINT = 4
ROWS_PER_HEAD_POINT = 15
ROWS_PER_SPREAD_POINT = 4
ROWS_PER_X = 2
ROWS_PER_ROW = 668
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


def _spectra(plan, factor, M: int):
    """For each entry (offset, {keys: n}) of plan, (offset, the sum over
    its keys of n prod_key rfft(factor(key), M)), one entry at a time.
    Each key is transformed once, at its first use, and released, or
    multiplied into the product in place, at its last; the sum is handed
    over, so that no spectrum outlives its use."""
    uses = Counter(key for _, products in plan for keys in products
                   for key in keys)
    cache = {}

    def summed(products):
        total = None
        for keys, n in products.items():
            term = None
            for key in keys:
                if key not in cache:
                    cache[key] = np.fft.rfft(factor(key), M)
                uses[key] -= 1
                if term is None:
                    term = cache[key].copy() if uses[key] else cache.pop(key)
                else:
                    term *= cache[key] if uses[key] else cache.pop(key)
            if n > 1:
                term *= n
            if total is None:
                total = term
            else:
                total += term
        return total

    for offset, products in plan:
        yield offset, summed(products)


def _convolve(arrays, a) -> np.ndarray:
    """Coefficients of prod_i sum_n arrays[i][n] x^(a_i n), lowest exponent
    first, by FFT.  The factors are grouped by (array, a_i) in order of
    first occurrence; each group is transformed once and multiplied in as
    often as it occurs (_spectra).  The result is a view into the M-point
    inverse transform: a copy takes about 3 000 more page faults and did
    not lower the peak of the norms of H - H_sharp (356 MiB for trivial x3
    at X = 1e6)."""
    span = _span(arrays, a)
    M = _fft_len(span)
    ids = [(id(v), ai) for v, ai in zip(arrays, a)]
    keys = tuple(sorted(ids.index(key) for key in ids))
    [(_, spec)] = _spectra([(0, {keys: 1})],
                           lambda i: _embed(arrays[i], a[i]), M)
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


def _progression(fc: FieldClass):
    """(g, residues): every prime p >= 5 of fc's class is one of residues
    mod g.  classify_batch puts p in the class only when p mod D lies in
    its coset, so these primes lie in one residue class mod the gcd h of D
    and the differences of the coset's residues; being prime to 6, they
    lie mod g = lcm(6, h) in the residues that are odd, prime to 3 and
    = min(coset) mod h: one when 3 | h, else two (1 and 5 mod 6 for the
    trivial class)."""
    r0 = min(fc.cls.coset)
    h = math.gcd(fc.spec.modulus, *(r - r0 for r in fc.cls.coset))
    g = math.lcm(6, h)
    return g, [r for r in range(r0 % h, g, h) if r % 2 and r % 3]


def rows_estimated_bytes(inst: ProblemInstance, rows: int,
                         plan=None) -> int:
    """Estimated peak memory of verify's rows-only counts_at on inst at
    rows N, by the terms of plan (_plan(inst) unless given); allocates
    nothing.  The rows, plus the larger of sieve.sieve_bytes and the
    count: the prime arrays and, at the term that costs most, per point
    of its transform the product, the inverse and each phase array that
    several products use; the head over its span; a head array spread by
    |a_i|."""
    def term_bytes(t):
        uses = Counter(key for products in t.heads.values()
                       for keys in products for key in set(keys))
        spread = max((abs(ai) for _, ai in t.head if abs(ai) > 1), default=0)
        shared = sum(n > 1 for n in uses.values())
        return (ROWS_PER_SPECTRUM_POINT * (2 + shared) * t.M
                + ROWS_PER_HEAD_POINT * len(t.head) * (t.span + 1)
                + ROWS_PER_SPREAD_POINT * spread * (inst.X // t.g))

    count = max(map(term_bytes, plan or _plan(inst)))
    return BYTES_BASE + ROWS_PER_ROW * rows + max(
        sieve.sieve_bytes(inst.X, (fc.spec for fc in inst.components)),
        count + ROWS_PER_X * (inst.X + 1))


def _component_primes(inst: ProblemInstance):
    """The primes <= X of each component's class.  Each distinct spec is
    classified once, only the classes the components use are split out,
    and equal components share one array."""
    by_spec = {}
    for fc in dict.fromkeys(inst.components):
        by_spec.setdefault(fc.spec, []).append(fc)
    arrays = {}
    for spec, fcs in by_spec.items():
        arrays.update(zip(fcs, sieve.class_primes(
            spec, inst.X, [spec.classes.index(fc.cls) for fc in fcs])))
    return [arrays[fc] for fc in inst.components]


def _dense(ps, X: int, weighted: bool, step: int) -> np.ndarray:
    """The array over m = 0..X // step holding log p (weighted) or 1 at
    m = p // step for each prime p of ps, 0 elsewhere."""
    v = np.zeros(X // step + 1, np.float64 if weighted else np.uint8)
    v[ps // step] = np.log(ps.astype(np.float64)) if weighted else 1
    return v


def _log_convolution(comps, inst: ProblemInstance) -> np.ndarray:
    """S(N) weighted by the product of log p, from the component primes
    comps, for every attainable N; clamped at 0 against FFT round-off.
    Equal components share one dense array, which _convolve transforms
    once."""
    dense = {id(ps): ps for ps in comps}
    dense = {key: _dense(ps, inst.X, True, 1) for key, ps in dense.items()}
    weighted = _convolve([dense[id(ps)] for ps in comps], inst.a)
    np.maximum(weighted, 0.0, out=weighted)
    return weighted


def weighted_counts(inst: ProblemInstance) -> np.ndarray:
    """S(N) weighted by the product of log p for every attainable N, index
    0 holding N = attainable_range[0]; clamped at 0 against FFT
    round-off.  No command runs it: it is the reference that the tests
    check counts_at against, at sizes they fix, so it has no memory
    gate."""
    return _log_convolution(_component_primes(inst), inst)


def _rows(h, Ms, last, ak: int, weights=None) -> np.ndarray:
    """For each M of Ms, the sum over the entries m of last, ascending, of
    h[M - ak m] where 0 <= M - ak m < len(h): weighted by weights[j] at the
    j-th entry as float64 when weights are given, else as int64 counts.
    The entries of one M are one slice of last, found by bisection."""
    Ms = np.asarray(Ms, np.int64)
    top = len(h) - 1
    if ak > 0:
        lo, hi = -((top - Ms) // ak), Ms // ak
    else:
        lo, hi = -(Ms // -ak), (top - Ms) // -ak
    out = np.zeros(len(Ms), np.int64 if weights is None else np.float64)
    for j, (M, start, stop) in enumerate(zip(
            Ms.tolist(), np.searchsorted(last, lo).tolist(),
            np.searchsorted(last, hi, "right").tolist())):
        if start < stop:
            idx = M - ak * last[start:stop]
            out[j] = (np.sum(h[idx], dtype=np.int64) if weights is None
                      else h[idx] @ weights[start:stop])
    return out


def _rounded(h: np.ndarray, a) -> np.ndarray:
    """h rounded to int64 counts, clamped at 0; ResourceLimit when a value
    is MAX_RESIDUAL or more from an integer.  Overwrites h."""
    counts = np.empty(len(h), np.int64)
    np.rint(h, out=counts, casting="unsafe")
    h -= counts
    residual = float(np.max(np.abs(h, out=h)))
    if residual >= MAX_RESIDUAL:
        raise ResourceLimit(f"FFT round-off {residual:.3g} leaves the "
                            f"counts of a={tuple(a)} inexact")
    np.maximum(counts, 0, out=counts)
    return counts


def _specials(inst: ProblemInstance):
    """Per component, the primes 2 and 3 (those <= X) that its class holds,
    by classify_batch once per distinct spec: all _plan reads of primes."""
    small = np.array([p for p in (2, 3) if p <= inst.X], np.int64)
    labels = {spec: galois.classify_batch(spec, small)
              for spec in dict.fromkeys(fc.spec for fc in inst.components)}
    return [tuple(int(p) for p, i in zip(small, labels[fc.spec])
                  if i == fc.spec.classes.index(fc.cls))
            for fc in inst.components]


class _Term(NamedTuple):
    R: tuple        # indices of the components that take primes >= 5
    g: int          # the gcd of their _progression steps (1 when R is empty)
    c: int          # sum a_i s_i over the special primes s_i taken
    weights: list   # prod log s_i of each choice that shares the entry
    head: tuple     # (component, a_i) of R but the last
    heads: dict     # {offset: {keys: n}}, the products of each offset
    span: int       # hi - lo of the exponents of a head
    M: int          # its transform length; 0 when it is not transformed


def _plan(inst: ProblemInstance):
    """The count of counts_at as _Term entries: S(N) split by the special
    prime, 2 or 3, that each component takes where its class holds it, or
    none (R, the components that take primes >= 5).  Such a choice counts
    sum_R a_i p_i = N - c, weighted by prod log s_i over the special
    primes s_i taken; one entry per distinct run of (component, a_i) along
    R and shift c.  Its head, R but the last component, has a product per
    choice of phases phi_i (_progression's residues mod g; a prime g m +
    phi sits at m) at the offset s = sum a_i phi_i, with a key (j, phi)
    per array, j the first position of head[j]'s (component, a_j); the
    choices of an offset that take the same arrays are one product,
    counted n times.  Reads no prime <= X and no N."""
    runs = {}
    for taken in itertools.product(*((None, *s) for s in _specials(inst))):
        R = tuple(i for i, s in enumerate(taken) if s is None)
        c = sum(ai * s for ai, s in zip(inst.a, taken) if s)
        run = tuple((inst.components[i], inst.a[i]) for i in R)
        runs.setdefault((run, c), (R, []))[1].append(
            math.prod(math.log(s) for s in taken if s))
    plan = []
    for (run, c), (R, weights) in runs.items():
        g = math.gcd(*(_progression(fc)[0] for fc, _ in run)) or 1
        head = run[:-1]
        ident = [head.index(key) for key in head]
        heads = {}
        for phis in itertools.product(*([r % g for r in _progression(fc)[1]]
                                        for fc, _ in head)):
            products = heads.setdefault(
                sum(ai * phi for (_, ai), phi in zip(head, phis)), {})
            keys = tuple(sorted(zip(ident, phis)))
            products[keys] = products.get(keys, 0) + 1
        span = inst.X // g * sum(abs(ai) for _, ai in head)
        plan.append(_Term(R, g, c, weights, head, heads, span,
                          _fft_len(span) if len(head) > 1 else 0))
    return plan


def _term_values(inst: ProblemInstance, term: _Term, Ns, phases):
    """One entry of _plan at each N of Ns, as (weighted, unweighted)
    arrays: the prod log p weight and the number of solutions of
    sum_R a_i p_i = N - c in primes p_i >= 5 of the components R, split by
    phase by phases(fc, g), {phi: primes}.  It builds only the heads that
    reach some N, N - c - a_last psi = s mod g for a phase psi of the last
    component, whose primes _rows gathers: once per channel (weighted
    first), one head at a time, by _spectra when the term's M is not 0."""
    R, g, c, _, head, heads, span, M = term
    if not R:
        hit = np.array([N == c for N in Ns], np.int64)
        return hit, hit
    last, ak = inst.components[R[-1]], inst.a[R[-1]]
    shifted = inst.X // g * sum(ai for _, ai in head if ai < 0)
    residues = np.array([N % g for N in Ns])
    reach = {}
    for s in heads:
        for psi in phases(last, g):
            rows = np.flatnonzero(residues == (c + s + ak * psi) % g)
            if len(rows):
                Ms = np.array([(Ns[j] - c - s - ak * psi) // g
                               for j in rows.tolist()], np.int64)
                reach.setdefault(s, []).append((rows, Ms - shifted, psi))
    plan = [(s, heads[s]) for s in reach]
    out = []
    for weighted in (True, False):
        def factor(key):
            fc, ai = head[key[0]]
            return _embed(_dense(phases(fc, g)[key[1]], inst.X, weighted, g),
                          ai)

        vals = np.zeros(len(Ns), np.float64 if weighted else np.int64)
        spectra, gathers = _spectra(plan, factor, M), {}
        for s, products in plan:
            if M:
                h = np.fft.irfft(next(spectra)[1], M)[:span + 1]
                if not weighted:
                    h = _rounded(h, [ai for _, ai in head])
            elif head:
                [[key]] = products
                h = factor(key)
            else:
                h = np.ones(1, vals.dtype)
            for rows, Ms, psi in reach[s]:
                if psi not in gathers:  # not beside the first transform
                    qs = phases(last, g)[psi]
                    gathers[psi] = (qs // g, np.log(qs.astype(np.float64))
                                    if weighted else None)
                vals[rows] += _rows(h, Ms, gathers[psi][0], ak,
                                    gathers[psi][1])
            del h  # before the next head is built
        out.append(vals)
    return tuple(out)


def counts_at(inst: ProblemInstance, Ns):
    """(weighted, unweighted) S(N) at each N of the sequence Ns, as float64
    and int64 arrays: the sum over the terms of _plan of _term_values,
    counted once per choice that shares it and weighted by each choice's
    weight.  Refused by rows_estimated_bytes of the same plan for len(Ns)
    rows before the sieve, and before Ns is listed.  One head is held at a
    time, besides the spectra its term has transformed.  The weighted
    value is clamped at 0 against FFT round-off."""
    plan = _plan(inst)
    refuse_above(rows_estimated_bytes(inst, len(Ns), plan),
                 f"X={inst.X}, a={inst.a}")
    comps = dict(zip(inst.components, _component_primes(inst)))
    Ns = [int(N) for N in Ns]
    split = {}

    def phases(fc, g):
        """{phi: the primes >= 5 of fc that are phi mod g}, made once."""
        if (fc, g) not in split:
            ps = comps[fc][np.searchsorted(comps[fc], 5):]
            at = ps % g
            split[fc, g] = {r % g: ps[at == r % g]
                            for r in _progression(fc)[1]}
        return split[fc, g]

    weighted = np.zeros(len(Ns))
    unweighted = np.zeros(len(Ns), np.int64)
    for term in plan:
        w, u = _term_values(inst, term, Ns, phases)
        for x in term.weights:
            weighted += w * x
        unweighted += u * len(term.weights)
    np.maximum(weighted, 0.0, out=weighted)
    return weighted, unweighted


def brute_force_all(inst: ProblemInstance):
    """{N: (weighted, unweighted) S(N)} for every N with a solution, by
    meet-in-the-middle enumeration over the classified prime lists; the
    oracle path, ungated like weighted_counts.  N absent from the dict has
    S(N) = (0.0, 0)."""
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
    """Per-N comparison of S(N) against the assembled main term, at each N
    of the sequence N_list, listed only past counts_at's memory gate."""
    weighted, unweighted = counts_at(inst, N_list)
    N_list = list(N_list)
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
