"""LDPC code construction and belief-propagation decoding.

The parity-check matrix comes from progressive edge growth with a
fixed variable degree: each new edge attaches to a check node as far
as possible from the variable in the current Tanner graph, which keeps
short cycles out (girth >= 6 at the sizes used here).  Ties break on
the lowest check degree, then by one rng draw over the tied checks in
ascending index order, so a seed names the same matrix on every
platform.  The generator is obtained by Gauss-Jordan reduction of H,
so encoding is systematic on the non-pivot columns and costs the XOR
of the generator's packed rows that the information bits select.

The decoder is flooding sum-product on log-likelihood ratios with the
convention that positive LLR favours bit 0.  Messages are clamped to
+-30 and the loop exits early once the hard decision satisfies every
parity check.
"""

from __future__ import annotations

import numpy as np

from qsdc.gf2 import PackedRows, row_reduce

LLR_CLAMP = 30.0
_TANH_LIM = 1.0 - 1e-12


def peg_construct(
    n_checks: int, n_vars: int, var_degree: int, rng: np.random.Generator
) -> np.ndarray:
    """Build a parity-check matrix by edge growth: row v of the table lists variable v's checks.

    For every variable node, edges are placed one at a time on the
    check node at maximal graph distance from the variable (unreached
    checks count as infinitely far), breaking ties by lowest check
    degree and then by one uniform draw over the tied checks in
    ascending index order.  The first edge of a variable has no graph
    to search, so every check is a candidate.

    The growing graph is held as packed bit rows, row c having bit c2
    set when some variable joins checks c and c2, so one breadth-first
    level is the OR of the frontier's rows.  No step depends on hash or
    set order: the table is a function of the arguments and the rng state.
    """
    if var_degree > n_checks:
        raise ValueError(f"var_degree {var_degree} exceeds check count {n_checks}")
    var_checks = np.empty((n_vars, var_degree), dtype=np.int64)
    check_degree = np.zeros(n_checks, dtype=np.int64)
    linked = np.zeros((n_checks, (n_checks + 7) // 8), dtype=np.uint8)
    every_check = np.packbits(np.ones(n_checks, dtype=bool))

    for v in range(n_vars):
        for j in range(var_degree):
            adjacent = var_checks[v, :j]
            candidates = every_check
            if j:
                # breadth-first expansion of the checks reachable from v;
                # prev holds the unreached set one level before the last growth
                unreached = every_check.copy()
                for c in adjacent.tolist():
                    unreached[c >> 3] ^= 0x80 >> (c & 7)
                prev = unreached
                n_reached = j
                frontier = adjacent
                while n_reached < n_checks:
                    new = np.bitwise_or.reduce(linked.take(frontier, axis=0), axis=0)
                    new &= unreached
                    frontier = np.unpackbits(new, count=n_checks).nonzero()[0]
                    if not frontier.size:
                        break
                    prev, unreached = unreached, unreached ^ new
                    n_reached += frontier.size
                candidates = unreached if n_reached < n_checks else prev
            cand = np.unpackbits(candidates, count=n_checks).nonzero()[0]
            degs = check_degree[cand]
            low = cand[degs == degs.min()]
            c = int(low[rng.integers(0, low.size)])
            for c2 in adjacent.tolist():
                linked[c, c2 >> 3] |= 0x80 >> (c2 & 7)
                linked[c2, c >> 3] |= 0x80 >> (c & 7)
            var_checks[v, j] = c
            check_degree[c] += 1
    return var_checks


def systematic_generator(h: PackedRows) -> tuple[PackedRows, np.ndarray]:
    """Derive a systematic generator for the null space of h.

    Returns (g, info_positions) with h @ g.T = 0 over GF(2) and
    g[:, info_positions] an identity, so codeword bits at those
    positions are the information bits verbatim.  Raises ValueError if
    h is rank deficient.
    """
    m, n = h.rows.shape[0], h.n_cols
    reduced, pivots = row_reduce(h)
    if pivots.size < m:
        raise ValueError(f"parity-check matrix rank {pivots.size} < {m}")
    info = np.delete(np.arange(n), pivots)
    k = n - m
    # g.T: e_j at row info[j] and reduced[:, info], the rows info of reduced.T, at the pivots
    gt = np.zeros((n, (k + 7) // 8), dtype=np.uint8)
    gt[pivots] = PackedRows(reduced.transpose().rows[info], m).transpose().rows
    j = np.arange(k)
    gt[info, j >> 3] = 0x80 >> (j & 7)
    return PackedRows(gt, k).transpose(), info


def ldpc_encode(u: np.ndarray, g: PackedRows) -> np.ndarray:
    """Codeword(s) u @ G over GF(2), G as packed rows; u may be a single vector or a batch."""
    u = np.asarray(u)
    if u.shape[-1] != g.rows.shape[0]:
        raise ValueError(f"input length {u.shape[-1]} != k_u {g.rows.shape[0]}")
    return g.left_mul(u)


class TannerGraph:
    """Flattened Tanner-graph edges of a parity-check matrix, grouped by check.

    Built from a peg_construct table, with each check's variables in
    ascending order.  Checks without edges are left out of the groups:
    they constrain nothing, and the per-check reductions need every
    group to be non-empty.
    """

    def __init__(self, var_checks: np.ndarray, n_checks: int) -> None:
        n_vars, degree = var_checks.shape
        flat = var_checks.ravel()
        # a stable sort keeps each check's variables in ascending order
        self.var_idx = np.argsort(flat, kind="stable") // degree
        counts = np.bincount(flat, minlength=n_checks)
        self.checks = np.flatnonzero(counts)
        self.counts = counts[self.checks]
        self.starts = np.concatenate([[0], np.cumsum(self.counts)[:-1]])
        self.n_checks = n_checks
        self.n_vars = n_vars

    def parity_rows(self) -> PackedRows:
        """H as packed rows, one per check."""
        rows = np.zeros((self.n_checks, (self.n_vars + 7) // 8), dtype=np.uint8)
        bits = (0x80 >> (self.var_idx & 7)).astype(np.uint8)
        np.bitwise_or.at(rows, (np.repeat(self.checks, self.counts), self.var_idx >> 3), bits)
        return PackedRows(rows, self.n_vars)

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
