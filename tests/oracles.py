"""Independent routes to the analytic results, kept next to the tests.

The package forms every PMF and CDF through the exp power-series
recurrence.  These oracles reach the same numbers another way, from the
same lens kernel: the Faa di Bruno partition sum for the PMF, the
explicit k <= 3 corollaries for the contact and nearest-neighbor CDFs,
and the closed-form log-PGF in dimension one.
"""

import math

import numpy as np

from mcpdist.analytic import McpParams, PmfVector, _check_pgf_args, _Kernel, _poisson_sums


def log_pgf_count_1d(s: float, r: float, p: McpParams) -> float:
    """Closed-form g(s) for dimension one.

    On the line the lens is piecewise linear in the separation, so the
    integral evaluates in closed form:
    2 lambda_p [ |r - rd| e^z - (r + rd) + beta expm1(z)/z ] with
    beta = 2 min(r, rd), z = lambda_d (s - 1) beta and the daughter
    intensity lambda_d = mbar / (2 rd).
    """
    if p.n != 1:
        raise ValueError("closed form is only valid in dimension 1")
    _check_pgf_args(s, r)
    if r <= 0.0 or s == 1.0:
        return 0.0
    beta = 2.0 * min(r, p.rd)
    z = p.mbar / (2.0 * p.rd) * (s - 1.0) * beta
    ramp = beta if z == 0.0 else beta * math.expm1(z) / z
    return 2.0 * p.lambda_p * (abs(r - p.rd) * math.exp(z) - (r + p.rd) + ramp)


def pgf_count_1d(s: float, r: float, p: McpParams) -> float:
    return math.exp(log_pgf_count_1d(s, r, p))


def enumerate_partitions(m: int) -> list[tuple[int, ...]]:
    """All multiplicity tuples (b_1, ..., b_m) with sum i * b_i = m.

    Each tuple encodes one integer partition of m by part multiplicities;
    m = 0 yields the single empty tuple (the empty product).
    """
    if m < 0:
        raise ValueError(f"order must be nonnegative, got {m!r}")
    if m == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    b = [0] * m

    def fill(part: int, remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(b))
            return
        if part == 0:
            return
        for count in range(remaining // part, -1, -1):
            b[part - 1] = count
            fill(part - 1, remaining - count * part)
        b[part - 1] = 0

    fill(m, m)
    return out


def count_pmf_partition(r: float, p: McpParams, m_max: int) -> PmfVector:
    """PMF via the Faa di Bruno partition sum (cross-validation path).

    P[N=m] = e^(g(0)) * sum over multiplicity tuples of
    prod_i h_i^(b_i) / b_i!.  Cost grows with the partition function, so
    this is only meant for moderate m.
    """
    if r < 0.0 or m_max < 0:
        raise ValueError("radius and m_max must be nonnegative")
    kernel = _Kernel([r], p)
    base = math.exp(kernel.log_pgf(0.0)[0])
    h = [0.0, *_poisson_sums(kernel.t, kernel.w, 1, m_max + 1)[0]]
    probs = np.empty(m_max + 1)
    for m in range(m_max + 1):
        acc = 0.0
        for b in enumerate_partitions(m):
            term = 1.0
            for i, b_i in enumerate(b, start=1):
                if b_i:
                    term *= h[i] ** b_i / math.factorial(b_i)
            acc += term
        probs[m] = base * acc
    return PmfVector(probs, 1.0 - float(probs.sum()))


def corollary_contact_cdf(r: float, k: int, p: McpParams) -> float:
    """Explicit low-order contact CDF expressions (k = 1, 2, 3)."""
    if k not in (1, 2, 3):
        raise ValueError("explicit expressions cover k = 1, 2, 3 only")
    if r <= 0.0:
        return 0.0
    kernel = _Kernel([r], p)
    e = math.exp(kernel.log_pgf(0.0)[0])
    h1, h2 = _poisson_sums(kernel.t, kernel.w, 1, 3)[0]
    if k == 1:
        return _clip01(1.0 - e)
    if k == 2:
        return _clip01(1.0 - e * (1.0 + h1))
    return _clip01(1.0 - e * (1.0 + h1) - e * (h2 + h1 * h1 / 2.0))


def corollary_nnd_cdf(r: float, k: int, p: McpParams) -> float:
    """Explicit low-order nearest-neighbor CDF expressions (k = 1, 2, 3)."""
    if k not in (1, 2, 3):
        raise ValueError("explicit expressions cover k = 1, 2, 3 only")
    if r <= 0.0:
        return 0.0
    kernel = _Kernel([r], p)
    e = math.exp(kernel.log_pgf(0.0)[0])
    h1, h2 = _poisson_sums(kernel.t, kernel.w, 1, 3)[0]
    q0, q1, q2 = _poisson_sums(*kernel._palm, 0, 3)[0]
    if k == 1:
        return _clip01(1.0 - e * q0)
    fbar1 = e
    fbar2 = e * (1.0 + h1)
    if k == 2:
        return _clip01(1.0 - q1 * fbar1 - q0 * fbar2)
    fbar3 = e * (1.0 + h1 + h2 + h1 * h1 / 2.0)
    return _clip01(1.0 - q2 * fbar1 - q1 * fbar2 - q0 * fbar3)


def _clip01(value: float) -> float:
    return min(1.0, max(0.0, value))


def daughter_distances(rng, n: int, rd: float, radii: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The simulator's squared daughter distances, formed out of place.

    One whole array per quantity, in the simulator's draw order: the
    bit-for-bit reference for its in-place, chunked kernel.
    """
    size = int(counts.sum())
    length = rd * rng.random(size) ** (1.0 / n)
    z = rng.standard_normal(size)
    shape = (n - 1) // 2
    rest = 2.0 * rng.standard_gamma(shape, size) if shape else np.zeros(size)
    if n % 2 == 0:
        w = rng.standard_normal(size)
        rest += w * w
    q = np.sqrt(z * z + rest)
    scale = np.divide(length, q, out=np.zeros(size), where=q > 0.0)
    first = np.repeat(radii, counts) + scale * z
    return first * first + scale * scale * rest


def select_block(d2: np.ndarray, counts: np.ndarray, table: np.ndarray, cells: int) -> np.ndarray:
    """The simulator's run-by-run merge, on fresh arrays: np.partition of a new
    inf-padded table, halved by runs while it exceeds cells cells.

    Each row, sorted, is the bit-for-bit reference for the simulator's
    in-place merge at _TABLE_CELLS = cells.
    """
    runs, max_k = table.shape
    width = max_k + int(counts.max(initial=0))
    if runs > 1 and runs * width > cells:
        half = runs // 2
        cut = int(counts[:half].sum())
        return np.concatenate((select_block(d2[:cut], counts[:half], table[:half], cells),
                               select_block(d2[cut:], counts[half:], table[half:], cells)))
    work = np.full((runs, width), np.inf)
    work[:, :max_k] = table
    offset = np.arange(runs) * width + max_k - (np.cumsum(counts) - counts)
    work.reshape(-1)[np.arange(d2.size) + np.repeat(offset, counts)] = d2
    return np.partition(work, max_k - 1, axis=1)[:, :max_k]
