"""Representation counts S(N) by convolution of weighted prime arrays,
brute-force oracles, the sieved coefficient analogue, Parseval norms, and
the end-to-end comparison against the predicted main term."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import galois, sieve, singular
from .errors import ResourceLimit
from .instance import ProblemInstance

MAX_BYTES = 4 * 2**30
EXACT_X_LIMIT = 10**4
# Peak bytes per FFT point, per unit of X, and per distinct component and
# unit of X; fitted to the peak RSS of `verify` on sixteen instances
# (k = 2..4, X = 2.5e5..2e6, one to four distinct components).
BYTES_PER_FFT_POINT = 44
BYTES_PER_X = 14
BYTES_PER_COMPONENT_X = 10


@dataclass
class CoefficientArray:
    """Dense S(N) over the attainable range; index 0 holds
    N = -(sum of |a_i| over negative a_i) * X."""
    offset: int
    weighted: np.ndarray
    unweighted: np.ndarray

    def weighted_at(self, N: int) -> float:
        i = N - self.offset
        if 0 <= i < len(self.weighted):
            return float(self.weighted[i])
        return 0.0

    def unweighted_at(self, N: int) -> int:
        i = N - self.offset
        if 0 <= i < len(self.unweighted):
            return int(self.unweighted[i])
        return 0

    @property
    def n_range(self):
        return self.offset, self.offset + len(self.weighted) - 1


def _embed(values: np.ndarray, ai: int) -> np.ndarray:
    """Spread values[n] to index |ai|*n, reversed when ai < 0; values
    itself (or a reversed view of it) when |ai| = 1."""
    out = values
    if abs(ai) > 1:
        out = np.zeros(abs(ai) * (len(values) - 1) + 1, dtype=values.dtype)
        out[::abs(ai)] = values
    return out[::-1] if ai < 0 else out


def _fft_len(inst: ProblemInstance) -> int:
    lo, hi = inst.attainable_range
    return 1 << max(1, (hi - lo).bit_length())


def _convolve(inst: ProblemInstance, arrays) -> np.ndarray:
    """Coefficients of prod_i sum_n arrays[i][n] x^(a_i n) over
    inst.attainable_range, one array over 0..X per component, by FFT; a
    repeated (array, a_i) is transformed once and held until its last use."""
    lo, hi = inst.attainable_range
    M = _fft_len(inst)
    keys = [(id(v), ai) for v, ai in zip(arrays, inst.a)]
    held = {}
    spec = np.ones(M // 2 + 1, dtype=complex)
    for i, (key, v, ai) in enumerate(zip(keys, arrays, inst.a)):
        if key not in held:
            held[key] = np.fft.rfft(_embed(v, ai), M)
        spec *= held[key] if key in keys[i + 1:] else held.pop(key)
    return np.fft.irfft(spec, M)[:hi - lo + 1]


def _exact_convolve(inst: ProblemInstance, arrays) -> np.ndarray:
    """_convolve by big-integer multiplication (Kronecker substitution,
    base 2^64); exact for nonnegative integer entries."""
    lo, hi = inst.attainable_range
    acc = math.prod(int.from_bytes(_embed(v, ai).astype("<u8").tobytes(),
                                   "little")
                    for v, ai in zip(arrays, inst.a))
    data = acc.to_bytes((hi - lo + 1) * 8, "little")
    return np.frombuffer(data, dtype="<u8").astype(np.int64)


def estimated_bytes(inst: ProblemInstance) -> int:
    """Estimated peak memory of representation_counts on inst, prime table
    included; allocates nothing."""
    per_x = BYTES_PER_X + BYTES_PER_COMPONENT_X * len(set(inst.components))
    return BYTES_PER_FFT_POINT * _fft_len(inst) + per_x * (inst.X + 1)


def check_memory(inst: ProblemInstance):
    """Raise ResourceLimit when inst would need more than MAX_BYTES."""
    need = estimated_bytes(inst)
    if need > MAX_BYTES:
        raise ResourceLimit(f"X={inst.X}, a={inst.a} needs about "
                            f"{need / 2**30:.1f} GiB; the limit is "
                            f"{MAX_BYTES / 2**30:.0f} GiB")


def _component_arrays(inst: ProblemInstance, table: sieve.PrimeTable):
    """One WeightedPrimeArray per component, shared by equal components;
    the primes are classified once per distinct spec."""
    ps = table.primes_upto(inst.X)
    labels = {spec: galois.classify_batch(spec, ps)
              for spec in dict.fromkeys(fc.spec for fc in inst.components)}
    arrays = {fc: sieve.weighted_prime_array(table, fc.spec, fc.cls, inst.X,
                                             labels[fc.spec])
              for fc in dict.fromkeys(inst.components)}
    return [arrays[fc] for fc in inst.components]


def _weighted_counts(inst: ProblemInstance, table: sieve.PrimeTable):
    """(component arrays, S(N) weighted by the product of log p for every
    attainable N, clamped at 0 against FFT round-off)."""
    check_memory(inst)
    comps = _component_arrays(inst, table)
    weighted = _convolve(inst, [wpa.weights for wpa in comps])
    np.maximum(weighted, 0.0, out=weighted)
    return comps, weighted


def representation_counts(inst: ProblemInstance,
                          table: sieve.PrimeTable) -> CoefficientArray:
    """S(N) for every attainable N: weighted by the product of log p and
    as a plain solution count."""
    comps, weighted = _weighted_counts(inst, table)
    indicators = [wpa.indicator for wpa in comps]
    if inst.X <= EXACT_X_LIMIT:
        unweighted = _exact_convolve(inst, indicators)
    else:
        unweighted = np.rint(_convolve(inst, indicators)).astype(np.int64)
        np.maximum(unweighted, 0, out=unweighted)
    return CoefficientArray(inst.attainable_range[0], weighted, unweighted)


def _oracle_tables(inst: ProblemInstance, table: sieve.PrimeTable):
    """The two meet-in-the-middle tables of the oracle: for each half of
    the components, partial sum -> (solution count, product of log p),
    enumerated over the classified prime lists."""
    comps = _component_arrays(inst, table)
    k = inst.k
    half = (k + 1) // 2

    def sums(idx):
        acc = {0: (1, 1.0)}
        for i in idx:
            nxt = {}
            ps = comps[i].primes
            logs = np.log(ps.astype(np.float64))
            for s, (cnt, wt) in acc.items():
                for p, lg in zip(ps, logs):
                    key = s + inst.a[i] * int(p)
                    c0, w0 = nxt.get(key, (0, 0.0))
                    nxt[key] = (c0 + cnt, w0 + wt * lg)
            acc = nxt
        return acc

    return sums(range(half)), sums(range(half, k))


def brute_force_S(inst: ProblemInstance, N: int, table: sieve.PrimeTable):
    """(weighted, unweighted) S(N) by meet-in-the-middle enumeration over
    the classified prime lists; the oracle path."""
    left, right = _oracle_tables(inst, table)
    count, weight = 0, 0.0
    for s, (cnt, wt) in left.items():
        hit = right.get(N - s)
        if hit is not None:
            count += cnt * hit[0]
            weight += wt * hit[1]
    return weight, count


def brute_force_all(inst: ProblemInstance, table: sieve.PrimeTable):
    """{N: (weighted, unweighted) S(N)} for every N with a solution, from
    one pair of oracle tables; N absent from the dict has S(N) = (0.0, 0).
    Each entry equals brute_force_S(inst, N, table), summed in the same
    order."""
    left, right = _oracle_tables(inst, table)
    out = {}
    for s, (cnt, wt) in left.items():
        for t, (c1, w1) in right.items():
            c0, w0 = out.get(s + t, (0, 0.0))
            out[s + t] = (c0 + cnt * c1, w0 + wt * w1)
    return {N: (w, c) for N, (c, w) in out.items()}


def _sharp_component(inst: ProblemInstance, fc, z: float) -> np.ndarray:
    """Weight array Lambda_{K,C}(n) * Lambda_z(n) over n = 0..X."""
    X = inst.X
    w = sieve.sieve_survivor_mask(X, z).astype(np.float64)
    w *= sieve.c_of_z_float(z)
    lam = sieve.lambda_kc_table(fc.spec, fc.cls)
    w *= lam[np.arange(X + 1) % len(lam)]
    return w


def h_sharp_array(inst: ProblemInstance, z: float) -> CoefficientArray:
    """Coefficients of H_sharp: the prefactor times the convolution of the
    congruence-sieve weight arrays."""
    check_memory(inst)
    arrays = {fc: _sharp_component(inst, fc, z)
              for fc in dict.fromkeys(inst.components)}
    vals = _convolve(inst, [arrays[fc] for fc in inst.components])
    vals *= float(inst.prefactor)
    return CoefficientArray(inst.attainable_range[0], vals,
                            np.zeros(0, dtype=np.int64))


def h_sharp_coefficient(inst: ProblemInstance, z: float, N: int) -> float:
    return h_sharp_array(inst, z).weighted_at(N)


def h_flat_norms(inst: ProblemInstance, z: float,
                 table: sieve.PrimeTable):
    """(L1, L2) of H_flat = H - H_sharp: L2 by Parseval over coefficients,
    L1 by sampling the difference polynomial at 4x-oversampled roots of
    unity."""
    if inst.X < 2:
        return 0.0, 0.0
    diff = _weighted_counts(inst, table)[1] - h_sharp_array(inst, z).weighted
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


def verify_theorem(inst: ProblemInstance, z: float, N_list,
                   table: sieve.PrimeTable,
                   P_max: int = 10**4) -> VerifyResult:
    """Per-N comparison of S(N) against the assembled main term."""
    coeffs = representation_counts(inst, table)
    lo, hi = inst.attainable_range
    span = hi - lo
    rows = []
    for N, rep in zip(N_list, singular.main_terms(inst, N_list, P_max)):
        sw = coeffs.weighted_at(N)
        su = coeffs.unweighted_at(N)
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


def parseval_check(inst: ProblemInstance, table: sieve.PrimeTable,
                   oversample: int = 4):
    """(sum of S(N)^2, grid quadrature of |H|^2) where the grid side
    evaluates H(alpha) = prod G_i(a_i alpha) from the prime sums directly,
    independent of the convolution path."""
    comps, weighted = _weighted_counts(inst, table)
    lhs = float(np.sum(weighted ** 2))
    M = oversample * len(weighted)
    grid = np.arange(M) / M
    H = np.ones(M, dtype=complex)
    for wpa, ai in zip(comps, inst.a):
        ps = wpa.primes.astype(np.float64)
        logs = np.log(ps)
        phases = np.exp(2j * np.pi * ((ai * grid[:, None] * ps[None, :]) % 1.0))
        H *= phases @ logs
    rhs = float(np.mean(np.abs(H) ** 2))
    return lhs, rhs
