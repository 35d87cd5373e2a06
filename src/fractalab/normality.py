"""Digit statistics of sampled points: certified digit extraction,
chi-square block-frequency tests and base-p orbit Weyl sums.

A digit is certified by one cell per enclosure end: every x in [lo, hi] has
the same first n base-b digits of frac(x) (and integer part) exactly when
floor(lo * b**n) == floor(hi * b**n).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ifs_core import PreconditionError, ShortPrefixError, _draw_symbols

# compose_word stays bound here: perfbench's tracer test wraps and restores it by name
from .ifs_core import compose_word  # noqa: F401

GUARD_DIGITS = 8
_LEAF_DIGITS = 128  # at most this many digits take one divmod each


class DigitExtractionError(RuntimeError):
    """Boundary-straddle retry budget exhausted."""


def _cell(x, base, n):
    """The depth-n base-`base` cell floor(x * base**n) of x (exact)."""
    x = Fraction(x)
    return x.numerator * base**n // x.denominator


def _digits(cell, base, n):
    """The n base-`base` digits of cell mod base**n, most significant first:
    for the cell of x, the first n digits of frac(x)."""
    return _convert(cell % base**n, base, n)


def _convert(rest, base, k):
    """The k base-`base` digits of rest < base**k, most significant first.

    Divide and conquer (Brent and Zimmermann, Modern Computer Arithmetic,
    2010, 1.7): one divmod by base**(k - k//2) splits rest into two halves,
    each converted alike.  Runs of at most _LEAF_DIGITS take one divmod per
    digit.
    """
    if k <= _LEAF_DIGITS:
        digits = [0] * k
        for i in reversed(range(k)):
            rest, digits[i] = divmod(rest, base)
        return digits
    high, rest = divmod(rest, base ** (k - k // 2))
    return _convert(high, base, k // 2) + _convert(rest, base, k - k // 2)


def _require_int(name, value, low):
    """ValueError naming the parameter unless value is an int (not a bool) >= low."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")


@dataclass
class DigitStream:
    base: int
    digits: list
    certified_upto: int
    prefix_len: int = 0

    def head(self, n):
        if n > self.certified_upto:
            raise PreconditionError(f"only {self.certified_upto} digits are certified")
        return self.digits[:n]


def digits_of_sample(ifs, p_weights, base, n_digits, rng_seed=0, max_extensions=64):
    """Certified base-`base` digits of a nu-sampled point.

    Draws the symbol sequence from the seed and keeps lengthening the
    drawn prefix (the same stream, so certified digits never change) until
    the enclosure f_eta(I) lies inside a single digit cell at depth
    n_digits; the enclosure is asked for GUARD_DIGITS digits more.  A prefix
    whose cylinder is still too wide for that takes the stream's next
    symbols, one at a time, until it fits.
    """
    from .ifs_core import coding_point

    _require_int("base", base, 2)
    _require_int("n_digits", n_digits, 0)
    rng = np.random.default_rng(rng_seed)
    need = Fraction(base) ** -(n_digits + GUARD_DIGITS)
    log_need = -(n_digits + GUARD_DIGITS) * math.log(base)
    base_len = max(1, int(math.ceil((math.log(ifs.width_float) - log_need) / ifs.big_d)))

    prefix = [int(s) + 1 for s in _draw_symbols(ifs, p_weights, rng, base_len)]
    for attempt in range(max_extensions + 1):
        while True:
            try:
                enc = coding_point(ifs, prefix, need)
                break
            except ShortPrefixError:
                prefix.append(int(_draw_symbols(ifs, p_weights, rng, 1)[0]) + 1)
        cell = _cell(enc.lo, base, n_digits)
        if cell == _cell(enc.hi, base, n_digits):
            return DigitStream(
                base=base,
                digits=_digits(cell, base, n_digits),
                certified_upto=n_digits,
                prefix_len=len(prefix),
            )
        # straddling a digit boundary: extend the sequence and shrink
        extra = max(4, base_len // 8)
        prefix.extend(int(s) + 1 for s in _draw_symbols(ifs, p_weights, rng, extra))
        need /= Fraction(base) ** 2
    raise DigitExtractionError(
        f"point still straddles a base-{base} cell boundary after "
        f"{max_extensions} prefix extensions (seed {rng_seed})"
    )


@dataclass
class BlockChi2:
    block_len: int
    statistic: float
    dof: int
    p_value: float
    counts: dict


@dataclass
class DigitFrequencyReport:
    base: int
    n: int
    blocks: list  # BlockChi2 per block length
    min_p_value: float


def digit_frequency_test(stream, n, block_len):
    """Chi-square uniformity test over digit blocks of length 1..block_len."""
    from scipy import stats as sps

    ints = all(isinstance(v, int) and not isinstance(v, bool) for v in (block_len, n))
    if not ints or not 1 <= block_len <= n:
        raise ValueError(f"need ints 1 <= block_len <= N, got block_len {block_len!r} and N {n!r}")
    if n > stream.certified_upto:
        raise PreconditionError("N exceeds the certified digit count")
    digits = stream.digits[:n]
    base = stream.base
    reports = []
    for ell in range(1, block_len + 1):
        m = n // ell
        counts = Counter(zip(*[iter(digits[: m * ell])] * ell))  # the m disjoint blocks, in order
        cells = base**ell
        expected = m / cells
        stat = sum((c - expected) ** 2 for c in counts.values()) / expected
        stat += (cells - len(counts)) * expected  # empty cells
        dof = cells - 1
        pval = float(sps.chi2.sf(stat, dof))
        reports.append(
            BlockChi2(block_len=ell, statistic=stat, dof=dof, p_value=pval, counts=counts)
        )
    return DigitFrequencyReport(
        base=base, n=n, blocks=reports, min_p_value=min(r.p_value for r in reports)
    )


@dataclass
class OrbitStats:
    base: int
    n: int
    weyl: dict  # {q: complex W_{q,N}}


def weyl_sums(stream, base, q_set, n):
    """Weyl sums W_{q,N} = (1/N) sum_{m<=N} e(q * base^m * x) of the orbit of
    the point x behind a certified DigitStream.

    Each orbit value T^m x is read off 40 certified digits, fewer where the
    stream ends; N is capped at certified - 12, so every value is accurate to
    base^-12 or better."""
    _require_int("base", base, 2)
    _require_int("N", n, 1)
    if not isinstance(stream, DigitStream):
        raise TypeError(f"weyl_sums needs a DigitStream, got {type(stream).__name__}")
    if stream.base != base:
        raise ValueError("digit stream base mismatch")
    slack = 12
    if n + slack > stream.certified_upto:
        raise PreconditionError(
            f"N={n} needs {n + slack} certified digits, have {stream.certified_upto}"
        )
    # orbit value T^m x ~ 0.d_{m+1} d_{m+2} ... d_{m+40}, digits past the
    # stream read as 0; pass j adds the (j+1)-th digit of every value
    padded = np.array(stream.digits[: n + 40] + [0] * 40, dtype=float)
    angles = np.zeros(n)
    scale = 1.0
    for j in range(40):
        scale /= base
        angles += padded[1 + j : n + 1 + j] * scale

    weyl = {}
    phases = np.exp(2j * np.pi * angles)
    for q in q_set:
        qf = float(q)
        if qf == 0:
            weyl[q] = 1 + 0j
        else:
            weyl[q] = complex(np.mean(phases**int(q))) if float(q).is_integer() else complex(
                np.mean(np.exp(2j * np.pi * qf * angles))
            )
    return OrbitStats(base=base, n=n, weyl=weyl)
