"""LDPC code construction and belief-propagation decoding.

The parity-check matrix comes from progressive edge growth with a
fixed variable degree: each new edge attaches to a check node as far
as possible from the variable in the current Tanner graph, which keeps
short cycles out (girth >= 6 at the sizes used here).  The generator
is obtained by Gauss-Jordan reduction of H, so encoding is systematic
on the non-pivot columns.

The decoder is flooding sum-product on log-likelihood ratios with the
convention that positive LLR favours bit 0.  Messages are clamped to
+-30 and the loop exits early once the hard decision satisfies every
parity check.
"""

from __future__ import annotations

import numpy as np

from qsdc.gf2 import gf2_row_reduce

LLR_CLAMP = 30.0
_TANH_LIM = 1.0 - 1e-12


def peg_construct(
    n_checks: int, n_vars: int, var_degree: int, rng: np.random.Generator
) -> np.ndarray:
    """Build an (n_checks x n_vars) parity-check matrix by edge growth.

    For every variable node, edges are placed one at a time on the
    check node at maximal graph distance from the variable (unreached
    checks count as infinitely far), breaking ties by lowest check
    degree and then uniformly at random.
    """
    if var_degree > n_checks:
        raise ValueError(f"var_degree {var_degree} exceeds check count {n_checks}")
    var_adj: list[list[int]] = [[] for _ in range(n_vars)]
    check_adj: list[list[int]] = [[] for _ in range(n_checks)]
    check_degree = np.zeros(n_checks, dtype=np.int64)
    all_checks = frozenset(range(n_checks))

    for v in range(n_vars):
        for _ in range(var_degree):
            # breadth-first expansion of the checks reachable from v;
            # prev holds the reached set one level before the last growth
            adjacent = set(var_adj[v])
            reached = set(adjacent)
            prev: set[int] = set()
            visited_vars = {v}
            frontier = set(reached)
            while frontier and len(reached) < n_checks:
                next_vars: set[int] = set()
                for c in frontier:
                    next_vars.update(check_adj[c])
                next_vars -= visited_vars
                if not next_vars:
                    break
                visited_vars |= next_vars
                new_checks: set[int] = set()
                for u in next_vars:
                    new_checks.update(var_adj[u])
                new_checks -= reached
                if not new_checks:
                    break
                prev = set(reached)
                reached |= new_checks
                frontier = new_checks
            candidates = all_checks - reached
            if not candidates:
                candidates = all_checks - prev
            candidates -= adjacent
            if not candidates:
                candidates = all_checks - adjacent
            cand = np.fromiter(candidates, dtype=np.int64)
            degs = check_degree[cand]
            low = cand[degs == degs.min()]
            c = int(low[rng.integers(0, low.size)])
            var_adj[v].append(c)
            check_adj[c].append(v)
            check_degree[c] += 1

    h = np.zeros((n_checks, n_vars), dtype=np.uint8)
    for v, checks in enumerate(var_adj):
        h[checks, v] = 1
    return h


def systematic_generator(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derive a systematic generator for the null space of h.

    Returns (g, info_positions) with h @ g.T = 0 over GF(2) and
    g[:, info_positions] an identity, so codeword bits at those
    positions are the information bits verbatim.  Raises ValueError if
    h is rank deficient.
    """
    m, n = h.shape
    reduced, pivots, rank = gf2_row_reduce(h)
    if rank < m:
        raise ValueError(f"parity-check matrix rank {rank} < {m}")
    info = np.setdiff1d(np.arange(n, dtype=np.int64), pivots)
    k = n - m
    g = np.zeros((k, n), dtype=np.uint8)
    g[np.arange(k), info] = 1
    g[:, pivots] = reduced[:, info].T
    return g, info


def ldpc_encode(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Codeword(s) u @ G over GF(2); u may be a single vector or a batch."""
    u = np.asarray(u, dtype=np.int64)
    if u.shape[-1] != g.shape[0]:
        raise ValueError(f"input length {u.shape[-1]} != k_u {g.shape[0]}")
    return (u @ g.astype(np.int64) % 2).astype(np.uint8)


class TannerGraph:
    """Flattened Tanner-graph edges of a parity-check matrix, grouped by check.

    Checks without edges are left out: they constrain nothing, and the
    per-check reductions need every group to be non-empty.
    """

    def __init__(self, h: np.ndarray) -> None:
        check_idx, var_idx = np.nonzero(h)  # row-major: already grouped by check
        self.var_idx = var_idx
        counts = np.bincount(check_idx, minlength=h.shape[0])
        self.counts = counts[counts > 0]
        self.starts = np.concatenate([[0], np.cumsum(self.counts)[:-1]])
        self.n_vars = h.shape[1]

    def syndrome_ok(self, v_hat: np.ndarray) -> bool:
        """True iff the hard decision v_hat meets every parity check."""
        return not (np.add.reduceat(v_hat[self.var_idx], self.starts) & 1).any()


def bp_decode(
    llrs: np.ndarray,
    edges: TannerGraph,
    info_positions: np.ndarray,
    max_iters: int = 100,
) -> tuple[np.ndarray, bool, int]:
    """Sum-product decoding of one codeword.

    Parameters
    ----------
    llrs : per-codeword-bit channel LLRs, positive favouring bit 0.
    edges : Tanner graph of the parity-check matrix.
    info_positions : systematic positions from which the information
        word is read off the hard decision.
    max_iters : flooding iteration budget.

    Returns
    -------
    (u_hat, converged, iterations); u_hat is the best-effort
    information word even when the decoder did not converge.
    """
    llr0 = np.clip(np.asarray(llrs, dtype=np.float64), -LLR_CLAMP, LLR_CLAMP)
    v_hat = (llr0 < 0).astype(np.uint8)
    if edges.syndrome_ok(v_hat):
        return v_hat[info_positions].copy(), True, 0

    q = llr0[edges.var_idx]
    r = np.zeros_like(q)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        t = np.tanh(q / 2.0)
        tt = np.where(t == 0.0, 1.0, t)
        prod = np.multiply.reduceat(tt, edges.starts)
        zeros = np.add.reduceat((t == 0.0).astype(np.int64), edges.starts)
        prod_e = np.repeat(prod, edges.counts)
        zeros_e = np.repeat(zeros, edges.counts)
        # exclusion product per edge; a zero message erases every other
        # edge of its check, two zeros erase the whole check
        excl = np.where(
            t != 0.0,
            np.where(zeros_e == 0, prod_e / tt, 0.0),
            np.where(zeros_e == 1, prod_e, 0.0),
        )
        r = 2.0 * np.arctanh(np.clip(excl, -_TANH_LIM, _TANH_LIM))
        np.clip(r, -LLR_CLAMP, LLR_CLAMP, out=r)
        totals = llr0 + np.bincount(edges.var_idx, weights=r, minlength=edges.n_vars)
        q = np.clip(totals[edges.var_idx] - r, -LLR_CLAMP, LLR_CLAMP)
        v_hat = (totals < 0).astype(np.uint8)
        if edges.syndrome_ok(v_hat):
            converged = True
            break
    return v_hat[info_positions].copy(), converged, iterations
