"""Representation counts S(N) by convolution over classified primes,
the brute-force oracle, the sieved coefficient analogue, Parseval norms, and
the end-to-end comparison against the predicted main term."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import sieve, singular
from .errors import ResourceLimit
from .instance import ProblemInstance

MAX_BYTES = 4 * 2**30
# Peak bytes of the interpreter and numpy, per FFT point, per FFT point for
# each spectrum _convolve holds while it transforms another, per unit of X,
# and per unit of X and of |a_i| for each distinct (component, a_i), whose
# embedded array _convolve transforms once; fitted to the peak RSS of
# weighted_counts on 16 instances (k = 2..4, X = 1e4..4e6, one to four
# distinct components), each within 3% of its measurement.  The rows-only
# counts_at convolves k - 1 of the components, one channel at a time, so
# it peaks within 1% of the same estimate or below it.
BYTES_BASE = 29 * 2**20
BYTES_PER_FFT_POINT = 32
BYTES_PER_HELD_POINT = 8
BYTES_PER_X = 3
BYTES_PER_COMPONENT_X = 9
# Grid rows per block of parseval_check's phase matrix: a block holds
# PARSEVAL_ROWS x (number of primes) complex phases, not the whole grid.
PARSEVAL_ROWS = 1024


def _embed(values: np.ndarray, ai: int) -> np.ndarray:
    """Spread values[n] to index |ai|*n, reversed when ai < 0; values
    itself (or a reversed view of it) when |ai| = 1."""
    out = values
    if abs(ai) > 1:
        out = np.zeros(abs(ai) * (len(values) - 1) + 1, dtype=values.dtype)
        out[::abs(ai)] = values
    return out[::-1] if ai < 0 else out


def _fft_len(span: int) -> int:
    """Transform length for coefficients over span + 1 consecutive N."""
    return 1 << max(1, span.bit_length())


def _span(arrays, a) -> int:
    """hi - lo of the exponents of prod_i sum_n arrays[i][n] x^(a_i n)."""
    return sum(abs(ai) * (len(v) - 1) for v, ai in zip(arrays, a))


def _convolve(arrays, a) -> np.ndarray:
    """Coefficients of prod_i sum_n arrays[i][n] x^(a_i n), lowest exponent
    first, by FFT; a repeated (array, a_i) is transformed once and held
    until its last use."""
    span = _span(arrays, a)
    M = _fft_len(span)
    keys = [(id(v), ai) for v, ai in zip(arrays, a)]
    held = {}
    spec = np.ones(M // 2 + 1, dtype=complex)
    for i, (key, v, ai) in enumerate(zip(keys, arrays, a)):
        if key not in held:
            held[key] = np.fft.rfft(_embed(v, ai), M)
        spec *= held[key] if key in keys[i + 1:] else held.pop(key)
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


def _held_spectra(keys) -> int:
    """Most spectra _convolve holds while it transforms another: at each
    first use of a key, the earlier keys that recur later."""
    return max(len(set(keys[:i]) & set(keys[i + 1:]))
               for i, key in enumerate(keys) if key not in keys[:i])


def estimated_bytes(inst: ProblemInstance) -> int:
    """Estimated peak memory of the all-N count weighted_counts on inst,
    prime lists included, which also bounds the rows-only counts_at;
    allocates nothing."""
    keys = list(zip(inst.components, inst.a))
    embedded = sum(abs(ai) for _, ai in set(keys))
    per_x = BYTES_PER_X + BYTES_PER_COMPONENT_X * embedded
    per_point = (BYTES_PER_FFT_POINT
                 + BYTES_PER_HELD_POINT * _held_spectra(keys))
    lo, hi = inst.attainable_range
    return BYTES_BASE + per_point * _fft_len(hi - lo) + per_x * (inst.X + 1)


def check_memory(inst: ProblemInstance):
    """Raise ResourceLimit when inst would need more than MAX_BYTES."""
    need = estimated_bytes(inst)
    if need > MAX_BYTES:
        raise ResourceLimit(f"X={inst.X}, a={inst.a} needs about "
                            f"{need / 2**30:.1f} GiB; the limit is "
                            f"{MAX_BYTES / 2**30:.0f} GiB")


def _component_primes(inst: ProblemInstance):
    """The primes <= X of each component's class, after check_memory, so
    that a too-large instance is refused before the sieve of X.  Each
    distinct spec is classified once, and equal components share one
    array."""
    check_memory(inst)
    by_spec = {spec: sieve.class_primes(spec, inst.X)
               for spec in dict.fromkeys(fc.spec for fc in inst.components)}
    return [by_spec[fc.spec][fc.spec.classes.index(fc.cls)]
            for fc in inst.components]


def _dense(comps, X: int, weighted: bool):
    """Per prime array of comps, the array over n = 0..X holding log p
    (weighted) or 1 at each of its primes p, 0 elsewhere; equal components
    share one array, so that _convolve transforms it once."""
    made = {}
    for ps in comps:
        if id(ps) not in made:
            v = np.zeros(X + 1, np.float64 if weighted else np.uint8)
            v[ps] = np.log(ps.astype(np.float64)) if weighted else 1
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
    one array, else their FFT convolution, rounded when counting."""
    h = _embed(head[0], a[0]) if len(head) == 1 else _convolve(head, a)
    if weights is None and len(head) > 1:
        h = np.rint(h).astype(np.int64)
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


def counts_at(inst: ProblemInstance, Ns):
    """(weighted, unweighted) S(N) at each N of Ns, as float64 and int64
    arrays, by _rows over components 1..k-1 (the head) and the last
    component's primes, one channel after the other, so that only one
    head is held at a time.  The weighted value is clamped at 0 against
    FFT round-off."""
    comps = _component_primes(inst)
    head, last = comps[:-1], comps[-1]
    a, ak = inst.a[:-1], inst.a[-1]
    logs = np.log(last.astype(np.float64))
    weighted = _rows(_dense(head, inst.X, True), a, last, ak, Ns, logs)
    np.maximum(weighted, 0.0, out=weighted)
    unweighted = _rows(_dense(head, inst.X, False), a, last, ak, Ns)
    return weighted, unweighted


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
    L1 by sampling the difference polynomial at 4x-oversampled roots of
    unity."""
    if inst.X < 2:
        return 0.0, 0.0
    diff = weighted_counts(inst) - h_sharp_array(inst, z)
    l2 = float(math.sqrt(np.sum(diff * diff)))
    M = 1 << max(2, (4 * len(diff) - 1).bit_length())
    vals = np.fft.fft(diff, M)
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
    median_abs_dev: Optional[float]   # median of |ratio - 1| over rated rows
    q90_abs_dev: Optional[float]

    def ratios(self):
        return [r.ratio for r in self.rows if r.ratio is not None]


BOUNDARY_MARGIN = 0.05


def verify_theorem(inst: ProblemInstance, N_list,
                   P_max: int = 10**4) -> VerifyResult:
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
    devs = sorted(abs(r.ratio - 1.0) for r in rows
                  if r.ratio is not None and "boundary" not in r.flags)
    if not devs:
        devs = sorted(abs(r.ratio - 1.0) for r in rows
                      if r.ratio is not None)
    med = devs[len(devs) // 2] if devs else None
    q90 = devs[min(len(devs) - 1, int(0.9 * len(devs)))] if devs else None
    return VerifyResult(rows, med, q90)


def parseval_check(inst: ProblemInstance):
    """(sum of S(N)^2, quadrature of |H|^2 on a grid four times the
    number of N) where the grid side evaluates H(alpha) =
    prod G_i(a_i alpha) from the prime sums directly, independent of the
    convolution path."""
    comps = _component_primes(inst)
    weighted = _log_convolution(comps, inst)
    lhs = float(np.sum(weighted ** 2))
    M = 4 * len(weighted)
    grid = np.arange(M) / M
    H = np.ones(M, dtype=complex)
    for primes, ai in zip(comps, inst.a):
        ps = primes.astype(np.float64)
        logs = np.log(ps)
        for i in range(0, M, PARSEVAL_ROWS):
            rows = grid[i:i + PARSEVAL_ROWS, None]
            H[i:i + PARSEVAL_ROWS] *= np.exp(
                2j * np.pi * ((ai * rows * ps[None, :]) % 1.0)) @ logs
    rhs = float(np.mean(np.abs(H) ** 2))
    return lhs, rhs
