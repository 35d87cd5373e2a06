"""Derivative-cocycle random walks, stopping times and conditional laws.

The walk attached to (Phi, p) has increments X_i = -log|f'_{omega_i}(x)|
evaluated at the coding point x of the shifted sequence, partial sums S_n,
and stopping times tau_k = min{n : S_n >= k*chi} where chi is the Lyapunov
exponent.  For affine systems the increments depend only on the symbols and
everything is simulated exactly up to float rounding; smooth systems get a
backward-evaluation scheme whose coding-point error is below 1e-15 * width(I).
A one-path smooth walk (lyapunov's Monte Carlo mode) is folded into blocks
run as the rows of one matrix, with every seam between blocks made exact, so
it gives the bits of the step-by-step loop in a small fraction of its Python
iterations (see _walk_matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ifs_core import PreconditionError, _column_maps, _draw_symbols, _pull_back

_CHUNK = 100_000  # paths simulated per chunk to bound peak memory
_BLOCK = 64  # columns per block of a folded one-path smooth walk


def _smooth_tail_length(ifs):
    # coding-point error <= dmax^T * width(I) <= 1e-16 * width(I)
    return int(math.ceil(16 * math.log(10) / ifs.big_d)) + 1


def _increments(ifs, sym, x):
    """(X, x') for smooth walks over the columns of sym, row r entered at x[r].

    X[r, j] = -log|f'_{sym[r, j]}| at the point the row holds before column
    j, and x' is where each row ends after its leftmost column.
    """
    apply, present, masks = _column_maps(ifs, sym)
    incs = ifs.steps[sym]  # exact for affine maps; smooth ones are set below
    for j in range(sym.shape[1] - 1, -1, -1):
        # a smooth map takes its increment before its column
        for i in present[j]:
            if ifs.maps[i].kind != "affine":
                incs[:, j] = np.where(masks[i, j], -np.log(np.abs(ifs.maps[i].deriv(x))), incs[:, j])
        x = apply(j, x)
    return incs, x


def _walk_matrix(ifs, p, n_paths, length, rng):
    """(symbols, X) for n_paths walks of the given length.

    symbols is 0-based (n_paths, length); X[i, j] is the increment
    X_{j+1} = -log|f'_{omega_{j+1}}(x_{sigma^{j+1} omega})|.

    A smooth system draws T = _smooth_tail_length more symbols per row and
    pulls the midpoint of I back through them to the row's coding point.  One
    row is folded into blocks of _BLOCK columns, the first left-padded so that
    the last ends at `length`; each block takes the next T drawn symbols as
    its tail (the last block the drawn tail, so it is exact) and all blocks
    run as the rows of one matrix.  A block whose entry point (after its tail) is not,
    bit for bit, its right neighbour's left-end point is run again from that
    point, until every seam agrees; each pass makes the rightmost wrong seam
    right for good, so this ends in fewer passes than blocks.  With every
    seam exact, each column sees the point the step-by-step loop gives it,
    so the increments are that loop's bits: the code checks the seams, it
    does not assume them.
    """
    if ifs.is_affine:
        sym = _draw_symbols(ifs, p, rng, (n_paths, length))
        return sym, ifs.steps[sym]

    tail = _smooth_tail_length(ifs)
    sym = _draw_symbols(ifs, p, rng, (n_paths, length + tail))
    if n_paths > 1:
        x = _pull_back(ifs, sym[:, length:], np.full(n_paths, float(ifs.interval_mid())))
        return sym[:, :length], _increments(ifs, sym[:, :length], x)[0]

    block = min(_BLOCK, length)
    n_blocks = -(-length // block)
    pad = n_blocks * block - length
    row = np.concatenate([np.zeros(pad, dtype=sym.dtype), sym[0]])
    blocks = row[np.arange(n_blocks)[:, None] * block + np.arange(block + tail)]
    entry = _pull_back(ifs, blocks[:, block:], np.full(n_blocks, float(ifs.interval_mid())))
    incs, left = _increments(ifs, blocks[:, :block], entry)
    while (bad := np.flatnonzero(entry[:-1].view(np.int64) != left[1:].view(np.int64))).size:
        entry[bad] = left[bad + 1]
        incs[bad], left[bad] = _increments(ifs, blocks[bad, :block], entry[bad])
    return sym[:, :length], incs.reshape(1, -1)[:, pad:]


@dataclass
class LyapunovEstimate:
    value: float
    stderr: float
    mode: str


def lyapunov(ifs, p, mode="exact", n=100_000, rng_seed=0):
    """Lyapunov exponent chi = -E log|f'| under the stationary sampling."""
    if mode == "exact":
        if not ifs.is_affine:
            raise PreconditionError("exact Lyapunov exponent requires an affine IFS")
        if len(p) != ifs.n:
            raise ValueError("weight vector length does not match the IFS")
        chi = sum(float(w) * step for w, step in zip(p, ifs.steps.tolist()))
        return LyapunovEstimate(chi, 0.0, "exact")
    if mode != "monte_carlo":
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(rng_seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        _, inc = _walk_matrix(ifs, p, 1, m, rng)
        total += float(inc.sum())
        total_sq += float((inc**2).sum())
        done += m
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return LyapunovEstimate(mean, math.sqrt(var / n), "monte_carlo")


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
    if not all(1 <= s <= ifs.n for s in eta_prime):
        raise ValueError("suffix symbol out of range")
    first = eta_prime[0]
    kchi = float(k) * float(chi)
    dp = ifs.big_d_prime
    if ifs.is_affine:
        return GammaLaw(kchi=kchi, d_prime=dp, atoms=[(1.0, float(ifs.steps[first - 1]))])
    # smooth: X_1 = -log|f'_{first}(x)| with x a coding point of sequences
    # extending the rest of eta_prime
    rng = np.random.default_rng(rng_seed)
    n_atoms = 256
    tail = _draw_symbols(ifs, p, rng, (n_atoms, _smooth_tail_length(ifs)))
    body = np.tile(np.array(eta_prime[1:], dtype=int) - 1, (n_atoms, 1))
    x = _pull_back(ifs, np.hstack([body, tail]), np.full(n_atoms, float(ifs.interval_mid())))
    fm = ifs.maps[first - 1]
    if fm.kind == "affine":
        xs = np.full(n_atoms, ifs.steps[first - 1])
    else:
        xs = -np.log(np.abs(fm.deriv(x)))
    w = 1.0 / n_atoms
    return GammaLaw(kchi=kchi, d_prime=dp, atoms=[(w, float(v)) for v in xs])


@dataclass
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
    and padded with 0, so that row order is the order of the word tuples."""
    stop = np.minimum(stop, words.shape[1] - 1)
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

    Each key is a row of 1-based symbols, prefix then suffix, each
    left-aligned and padded with 0, so that row order is tuple order.  One
    lexsort on (key, S_tau) puts every cell in a contiguous run sorted by
    S_tau, and each cell's distance to the uniform law on
    [k*chi, k*chi + X_1] is the sorted-sample formula reduced over its run.
    """
    if not ifs.is_affine:
        raise PreconditionError(
            "conditional LLT cells require an affine IFS (exact tilde walk)"
        )
    if not k > 0:
        raise ValueError(f"k must be positive, got {k}")
    if h_prime is None:
        h_prime = math.sqrt(k)
    if not h_prime > 0:
        raise ValueError("h_prime must be positive")
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    chi = lyapunov(ifs, p, "exact").value
    d = ifs.big_d
    dp = ifs.big_d_prime
    length = int(math.ceil(((k + h + h_prime) * chi + 3 * dp) / d)) + 4
    rng = np.random.default_rng(rng_seed)

    values, prefixes, suffixes = [], [], []
    done = 0
    while done < paths:
        m = min(_CHUNK, paths - done)
        sym = _draw_symbols(ifs, p, rng, (m, length))
        S = np.cumsum(ifs.steps[sym], axis=1)
        words = sym.astype(np.min_scalar_type(ifs.n)) + 1  # narrow keys sort faster
        rows = np.arange(m)
        j = _first_at_least(S, k * chi)  # tau_k - 1
        base = np.where(j > 0, S[rows, np.maximum(j - 1, 0)], 0.0)
        q = _first_at_least(S, (base + h_prime * chi)[:, None])
        ph = _first_at_least(S, h * chi) if h > 0 else np.full(m, -1)
        values.append(S[rows, j])
        prefixes.append(_gather_words(words, np.zeros(m, dtype=np.intp), ph))
        suffixes.append(_gather_words(words, j, q))
        done += m

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

    stats = [
        CellStat(tuple(filter(None, key[:pw])), tuple(filter(None, key[pw:])), c, v)
        for key, c, v in zip(keys[starts].tolist(), counts.tolist(), ks.tolist())
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

    if n < 1 or paths < 1:
        raise ValueError(f"need n >= 1 and paths >= 1, got n {n} and paths {paths}")
    rng = np.random.default_rng(rng_seed)
    if ifs.is_affine:
        chi = lyapunov(ifs, p, "exact").value
        w = np.array([float(x) for x in p])
        counts = rng.multinomial(n, w, size=paths)
        s_n = counts @ ifs.steps
    else:
        chi = lyapunov(ifs, p, "monte_carlo", n=1_000_000, rng_seed=rng_seed + 1).value
        s_chunks = []
        done = 0
        while done < paths:
            m = min(max(_CHUNK // max(n // 256, 1), 1), paths - done)
            _, inc = _walk_matrix(ifs, p, m, n, rng)
            s_chunks.append(inc.sum(axis=1))
            done += m
        s_n = np.concatenate(s_chunks)
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
    exact identity, so the count should be zero."""
    chi = lyapunov(ifs, p, "exact").value if ifs.is_affine else lyapunov(
        ifs, p, "monte_carlo", n=1_000_000, rng_seed=rng_seed + 1
    ).value
    d, dp = ifs.big_d, ifs.big_d_prime
    k_max, ks_per_path = 50.0, 10
    length = int(math.ceil((k_max * chi + 2 * dp) / d)) + 2
    rng = np.random.default_rng(rng_seed)
    violations = 0
    done = 0
    n_paths = pairs // ks_per_path
    while done < n_paths:
        m = min(_CHUNK // 4, n_paths - done)
        _, inc = _walk_matrix(ifs, p, m, length, rng)
        S = np.cumsum(inc, axis=1)
        rows = np.arange(m)
        for _ in range(ks_per_path):
            kvec = rng.uniform(0.5, k_max, size=m)
            target = kvec * chi
            idx = (S >= target[:, None]).argmax(axis=1)
            s_tau = S[rows, idx]
            bad = (s_tau < target - 1e-9) | (s_tau > target + dp + 1e-9)
            violations += int(bad.sum())
        done += m
    return violations, n_paths * ks_per_path
