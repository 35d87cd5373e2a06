"""Derivative-cocycle random walks, stopping times and conditional laws.

The walk attached to (Phi, p) has increments X_i = -log|f'_{omega_i}(x)|
evaluated at the coding point x of the shifted sequence, partial sums S_n,
and stopping times tau_k = min{n : S_n >= k*chi} where chi is the Lyapunov
exponent.  For affine systems the increments depend only on the symbols and
everything is simulated exactly up to float rounding; smooth systems get a
backward-evaluation scheme whose coding-point error is below 1e-15 * width(I).
lyapunov's Monte Carlo mode walks independent stationary rows of at most
_ROW steps, so one numpy column step serves every row, and its stderr is the
spread of the row means (batch means).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ifs_core import (PreconditionError, _column_maps, _draw_symbols, _pull_back, _require_int, _row_chunks,
                       _weight_vector, validate_word)

_ROW = 64  # steps per row of lyapunov's Monte Carlo walk


def _smooth_tail_length(ifs):
    # coding-point error <= dmax^T * width(I) <= 1e-16 * width(I)
    return int(math.ceil(16 * math.log(10) / ifs.big_d)) + 1


def _increments(ifs, sym, x):
    """X for smooth walks over the columns of sym, row r entered at x[r].

    X[r, j] = -log|f'_{sym[r, j]}| at the point the row holds before column
    j.  Each column evaluates every smooth map's derivative on all rows,
    each row keeping its own map's value, as _column_maps does for the maps.
    """
    apply, masks = _column_maps(ifs, sym)
    smooth = [(i, m) for i, m in enumerate(ifs.maps) if m.kind != "affine"]
    incs = ifs.steps[sym]  # exact for affine maps; smooth ones are set below
    for j in range(sym.shape[1] - 1, -1, -1):
        # a smooth map takes its increment before its column
        for i, m in smooth:
            incs[:, j] = np.where(masks[i, j], -np.log(np.abs(m.deriv(x))), incs[:, j])
        x = apply(j, x)
    return incs


def _walk_matrix(ifs, p, n_paths, length, rng):
    """(symbols, X) for n_paths walks of the given length.

    symbols is 0-based (n_paths, length) in _draw_symbols' narrow type;
    X, a new array the caller may overwrite, has X[i, j] the increment
    X_{j+1} = -log|f'_{omega_{j+1}}(x_{sigma^{j+1} omega})|.

    A smooth system draws T = _smooth_tail_length more symbols per row and
    pulls the midpoint of I back through them to the row's coding point.
    """
    if ifs.is_affine:
        sym = _draw_symbols(ifs, p, rng, (n_paths, length))
        return sym, ifs.steps[sym.astype(np.intp)]  # an intp index gathers faster
    sym = _draw_symbols(ifs, p, rng, (n_paths, length + _smooth_tail_length(ifs)))
    return sym[:, :length], _increments(ifs, sym[:, :length], _pull_back(ifs, sym[:, length:]))


@dataclass
class LyapunovEstimate:
    value: float
    stderr: float
    mode: str


def lyapunov(ifs, p, mode="exact", n=100_000, rng_seed=0):
    """Lyapunov exponent chi = -E log|f'| under the stationary sampling.

    The Monte Carlo mode walks rows = max(2, ceil(n / _ROW)) independent
    stationary rows of ceil(n / rows) steps, so the steps used are n rounded
    up to whole rows.  Every increment has mean chi, so the value is the mean
    of the row means, and the stderr is their sample sd / sqrt(rows): batch
    means, which keep the serial correlation of a smooth walk's increments
    that the per-step variance leaves out.
    """
    if mode == "exact":
        if not ifs.is_affine:
            raise PreconditionError("exact Lyapunov exponent requires an affine IFS")
        chi = sum(w * step for w, step in zip(_weight_vector(ifs, p).floats, ifs.steps.tolist()))
        return LyapunovEstimate(chi, 0.0, "exact")
    if mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an int >= 1, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rows = max(2, -(-n // _ROW))
    length = -(-n // rows)
    rng = np.random.default_rng(rng_seed)
    means = np.concatenate([_walk_matrix(ifs, p, m, length, rng)[1].mean(axis=1) for m in _row_chunks(rows, length)])
    return LyapunovEstimate(float(means.mean()), float(means.std(ddof=1)) / math.sqrt(rows), "monte_carlo")


@dataclass
class GammaLaw:
    """Limiting law of S_{tau_k} on [k*chi, k*chi + D'].

    Represented as a mixture over atoms (w_i, X_i) of the conditional X_1
    distribution on the suffix cylinder: density(t) proportional to
    P(X_1 >= t - k*chi).
    """

    kchi: float
    d_prime: float
    atoms: list  # (weight, X) pairs, weights summing to 1
    mean_x: float = field(init=False)

    def __post_init__(self):
        self.mean_x = sum(w * x for w, x in self.atoms)

    def density(self, t):
        t = np.asarray(t, dtype=float)
        u = t - self.kchi
        out = np.zeros_like(u)
        for w, x in self.atoms:
            out += w * ((u >= 0) & (u <= x))
        out = out / self.mean_x
        return float(out) if out.ndim == 0 else out

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        u = np.clip(t - self.kchi, 0.0, None)
        out = np.zeros_like(u)
        for w, x in self.atoms:
            out += w * np.minimum(u, x)
        out = out / self.mean_x
        return float(out) if out.ndim == 0 else out

    def mass(self):
        return self.cdf(self.kchi + self.d_prime)

    def max_density(self):
        return self.density(self.kchi)


def gamma_law(ifs, p, eta_prime, k, chi, rng_seed=0):
    """Gamma law of the cell with suffix eta_prime.

    Affine systems give an exact single atom (X_1 is constant on the
    cylinder); smooth systems sample 256 coding points of continuations to
    build an atom mixture.
    """
    if not eta_prime:
        raise PreconditionError("eta_prime must be a nonempty word")
    first, *rest = validate_word(ifs, eta_prime)
    kchi = float(k) * float(chi)
    dp = ifs.big_d_prime
    if ifs.is_affine:
        return GammaLaw(kchi=kchi, d_prime=dp, atoms=[(1.0, float(ifs.steps[first - 1]))])
    # smooth: X_1 = -log|f'_{first}(x)| with x a coding point of sequences
    # extending the rest of eta_prime
    rng = np.random.default_rng(rng_seed)
    n_atoms = 256
    tail = _draw_symbols(ifs, p, rng, (n_atoms, _smooth_tail_length(ifs)))
    body = np.tile(np.array(rest, dtype=int) - 1, (n_atoms, 1))
    x = _pull_back(ifs, np.hstack([body, tail]))
    xs = _increments(ifs, np.full((n_atoms, 1), first - 1), x)[:, 0]
    return GammaLaw(kchi=kchi, d_prime=dp, atoms=[(1.0 / n_atoms, float(v)) for v in xs])


@dataclass(slots=True)
class CellStat:
    prefix: tuple
    suffix: tuple
    count: int
    ks: float


@dataclass
class LltReport:
    k: float
    h: float
    h_prime: float
    paths: int
    cells: list  # CellStat, sorted by (prefix, suffix)
    weighted_median_ks: float
    excluded_mass: float
    min_cell: int


def _weighted_median(values, weights):
    order = np.argsort(values)
    v, w = np.asarray(values)[order], np.asarray(weights, dtype=float)[order]
    cum = np.cumsum(w)
    return float(v[int(np.searchsorted(cum, 0.5 * cum[-1]))])


def _first_at_least(S, target):
    """Per row of the non-decreasing S, the first column with S >= target
    (a scalar or a column), or S.shape[1] where the row never gets there."""
    hit = S >= target
    return np.where(hit[:, -1], hit.argmax(axis=1), S.shape[1])


def _gather_words(words, start, stop):
    """Rows words[r, start[r] : stop[r] + 1] of 1-based symbols, left-aligned
    and padded with 0, so that row order is the order of the word tuples;
    every stop[r] is a column of words."""
    cols = start[:, None] + np.arange(int((stop - start).max()) + 1)
    out = np.take_along_axis(words, np.minimum(cols, words.shape[1] - 1), axis=1)
    return np.where(cols <= stop[:, None], out, 0)


def _stack_padded(blocks):
    width = max(b.shape[1] for b in blocks)
    return np.vstack([np.pad(b, ((0, 0), (0, width - b.shape[1]))) for b in blocks])


def conditional_llt_experiment(ifs, p, k, h, h_prime, paths, rng_seed=0, min_cell=30):
    """Per-cell empirical law of S_{tau_k} against its Gamma law.

    Paths are binned by cell key (prefix omega|tau~_h, suffix of length
    tau~_{h'} after tau_k - 1); per-cell Kolmogorov distances are reported
    with the P-weighted median over cells holding at least min_cell samples.
    h_prime None means h' = sqrt(k).
    Only affine systems are supported: the cell partition needs the exact
    tilde walk, which is only available symbol-wise in the affine case.

    The paths are walked in the row chunks of _row_chunks, each one
    _walk_matrix draw; S is the cumsum of its increments, taken in place.
    Each key is a row of 1-based symbols (the sampler's narrow type, which
    holds n), prefix then suffix, each left-aligned and padded with 0, so
    that row order is tuple order.  One lexsort on (key, S_tau) puts every
    cell in a contiguous run sorted by S_tau, and each cell's distance to
    the uniform law on [k*chi, k*chi + X_1] is the sorted-sample formula
    reduced over its run.  A cell's prefix and suffix are the nonzero
    symbols of its key's two parts.
    """
    if not ifs.is_affine:
        raise PreconditionError(
            "conditional LLT cells require an affine IFS (exact tilde walk)"
        )
    if not k > 0:
        raise ValueError(f"k must be positive, got {k}")
    if not h >= 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if h_prime is None:
        h_prime = math.sqrt(k)
    if not h_prime > 0:
        raise ValueError("h_prime must be positive")
    _require_int("paths", paths)
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    chi = lyapunov(ifs, p, "exact").value
    d = ifs.big_d
    dp = ifs.big_d_prime
    length = int(math.ceil(((k + h + h_prime) * chi + 3 * dp) / d)) + 4
    rng = np.random.default_rng(rng_seed)

    values, prefixes, suffixes = [], [], []
    for m in _row_chunks(paths, length):
        sym, S = _walk_matrix(ifs, p, m, length, rng)
        np.cumsum(S, axis=1, out=S)
        words = sym + 1  # in the sampler's narrow type, which holds n: narrow keys sort faster
        rows = np.arange(m)
        j = _first_at_least(S, k * chi)  # tau_k - 1
        base = np.where(j > 0, S[rows, np.maximum(j - 1, 0)], 0.0)
        q = np.minimum(_first_at_least(S, (base + h_prime * chi)[:, None]), length - 1)
        ph = np.minimum(_first_at_least(S, h * chi), length - 1) if h > 0 else np.full(m, -1)
        values.append(S[rows, j])
        prefixes.append(_gather_words(words, np.zeros(m, dtype=np.intp), ph))
        suffixes.append(_gather_words(words, j, q))

    s_tau = np.concatenate(values)
    prefix = _stack_padded(prefixes)
    pw = prefix.shape[1]
    keys = np.hstack([prefix, _stack_padded(suffixes)])
    order = np.lexsort((s_tau, *keys.T[::-1]))
    keys, s_tau = keys[order], s_tau[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    counts = np.diff(np.r_[starts, paths])
    x1 = ifs.steps[keys[starts, pw] - 1]
    u = np.clip((s_tau - k * chi) / np.repeat(x1, counts), 0.0, 1.0)
    n = np.repeat(counts, counts)
    rank = np.arange(paths) - np.repeat(starts, counts)
    ks = np.maximum.reduceat(np.maximum((rank + 1) / n - u, u - rank / n), starts)

    cells = keys[starts]
    stats = [
        CellStat(tuple(pre[:a]), tuple(suf[:b]), c, v)
        for pre, suf, a, b, c, v in zip(
            cells[:, :pw].tolist(), cells[:, pw:].tolist(),
            np.count_nonzero(cells[:, :pw], axis=1).tolist(), np.count_nonzero(cells[:, pw:], axis=1).tolist(),
            counts.tolist(), ks.tolist(),
        )
    ]
    included = counts >= min_cell
    if included.any():
        med = _weighted_median(ks[included], counts[included])
    else:
        med = float("nan")
    return LltReport(
        k=k,
        h=h,
        h_prime=h_prime,
        paths=paths,
        cells=stats,
        weighted_median_ks=med,
        excluded_mass=int(counts[~included].sum()) / paths,
        min_cell=min_cell,
    )


def _chi(ifs, p, rng_seed):
    """chi for the CLT and bracket experiments: exact for an affine system,
    Monte Carlo over 1e6 steps on seed rng_seed + 1 for a smooth one."""
    if ifs.is_affine:
        return lyapunov(ifs, p, "exact").value
    return lyapunov(ifs, p, "monte_carlo", n=1_000_000, rng_seed=rng_seed + 1).value


@dataclass
class CltReport:
    n: int
    paths: int
    ks: float
    fitted_var: float
    zero_variance: bool


def clt_experiment(ifs, p, n, paths, rng_seed=0):
    """Empirical law of (S_n - n*chi)/sqrt(n) vs the best-fit Gaussian."""
    from scipy.special import ndtr

    _require_int("n", n)
    _require_int("paths", paths)
    if n < 1 or paths < 1:
        raise ValueError(f"need n >= 1 and paths >= 1, got n {n} and paths {paths}")
    if n >= 2**63:  # rng.multinomial counts in int64
        raise ValueError(f"n must be below 2^63, got {n}")
    p = _weight_vector(ifs, p)
    rng = np.random.default_rng(rng_seed)
    chi = _chi(ifs, p, rng_seed)
    if ifs.is_affine:
        counts = rng.multinomial(n, p.floats, size=paths)
        s_n = counts @ ifs.steps
    else:
        s_n = np.concatenate([_walk_matrix(ifs, p, m, n, rng)[1].sum(axis=1) for m in _row_chunks(paths, n)])
    z = (s_n - n * chi) / math.sqrt(n)
    var = float(z.var())
    if var < 1e-20:
        return CltReport(n=n, paths=paths, ks=1.0, fitted_var=var, zero_variance=True)
    # kstest's two-sided statistic, without its exact p-value
    c = ndtr(np.sort(z) / math.sqrt(var))
    grid = np.arange(paths + 1) / paths
    ks = float(max((grid[1:] - c).max(), (c - grid[:-1]).max()))
    return CltReport(n=n, paths=paths, ks=ks, fitted_var=var, zero_variance=False)


def bracket_check(ifs, p, pairs, rng_seed=0):
    """Count violations of S_{tau_k} in [k*chi, k*chi + D'] over sampled
    (path, k) pairs, 10 values of k in [0.5, 50] per path; the bracket is an
    exact identity, so the count should be zero.

    pairs // 10 paths are walked in the row chunks of _row_chunks; a chunk
    of m paths takes S as the cumsum of its increments in place, then draws
    its k values as one (10, m) uniform array, the stream of 10 draws of m.
    So the pairs move with the split; the count cannot, as the bracket holds
    for every pair.  Every row reaches every target: each step is at least D,
    so S at the last column is at least k_max*chi + 2*D'.
    """
    ks_per_path = 10
    _require_int("pairs", pairs)
    if pairs < ks_per_path:
        raise ValueError(f"pairs must be >= {ks_per_path}, got {pairs}")
    chi = _chi(ifs, p, rng_seed)
    d, dp = ifs.big_d, ifs.big_d_prime
    k_max = 50.0
    length = int(math.ceil((k_max * chi + 2 * dp) / d)) + 2
    rng = np.random.default_rng(rng_seed)
    violations = 0
    n_paths = pairs // ks_per_path
    for m in _row_chunks(n_paths, length):
        _, S = _walk_matrix(ifs, p, m, length, rng)
        np.cumsum(S, axis=1, out=S)
        rows = np.arange(m)
        for target in rng.uniform(0.5, k_max, size=(ks_per_path, m)) * chi:
            s_tau = S[rows, _first_at_least(S, target[:, None])]
            bad = (s_tau < target - 1e-9) | (s_tau > target + dp + 1e-9)
            violations += int(bad.sum())
    return violations, n_paths * ks_per_path
