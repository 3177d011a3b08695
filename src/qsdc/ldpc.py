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
convention that positive LLR favours bit 0.  Its messages are half-LLRs:
the channel LLR is clamped to +-30 and halved once, so no halving comes
before a tanh and no doubling after an arctanh.  Halving is exact above
the subnormal range (magnitudes from about 4.5e-308), so there each
message is half the full-scale one and every hard decision is a
full-scale decoder's.  The loop exits early once the hard decision
satisfies every parity check.  It works on a padded check-slot table
(`TannerGraph`), one column per check, so a check's product, its zero
count and the parity of its hard decisions are each one reduction
along the columns, and a variable's total is one reduction over its
edges.  A product takes a check's factors in ascending variable order
and multiplies the pads by exactly 1.0; a total adds a variable's
messages in ascending check order.  Every message therefore equals,
as a value, the one on edges grouped check by check.  Zero masks are
arithmetic, not masked writes, so an erased message is r * 0.0 and may
be -0.0 where a masked write gave +0.0.  No step reads the sign of a
zero: hard decisions are `< 0`, a zero tanh becomes 1.0 before any
product, and x + 0.0 == x - 0.0 == x for every nonzero x.
"""

from __future__ import annotations

import numpy as np

from qsdc.gf2 import PackedRows, row_reduce

LLR_CLAMP = 30.0
_HALF_CLAMP = LLR_CLAMP / 2
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
    unpack, or_reduce, take, draw = np.unpackbits, np.bitwise_or.reduce, linked.take, rng.integers

    for v in range(n_vars):
        adjacent = []
        for j in range(var_degree):
            candidates = every_check
            if j:
                # breadth-first expansion of the checks reachable from v;
                # prev holds the unreached set one level before the last growth
                unreached = every_check.copy()
                for c in adjacent:
                    unreached[c >> 3] ^= 0x80 >> (c & 7)
                prev = unreached
                n_reached = j
                frontier = adjacent
                while n_reached < n_checks:
                    new = or_reduce(take(frontier, axis=0), axis=0)
                    new &= unreached
                    frontier = unpack(new, count=n_checks).view(bool).nonzero()[0]
                    if not frontier.size:
                        break
                    prev, unreached = unreached, unreached ^ new
                    n_reached += frontier.size
                candidates = unreached if n_reached < n_checks else prev
            cand = unpack(candidates, count=n_checks).view(bool).nonzero()[0]
            degs = check_degree[cand]
            low = cand[degs == degs.min()]
            c = int(low[draw(0, low.size)])
            for c2 in adjacent:
                linked[c, c2 >> 3] |= 0x80 >> (c2 & 7)
                linked[c2, c >> 3] |= 0x80 >> (c & 7)
            adjacent.append(c)
            check_degree[c] += 1
        var_checks[v] = adjacent
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
    """Codeword u @ G over GF(2) of one information word u, G as packed rows."""
    u = np.asarray(u)
    if u.shape != (g.rows.shape[0],):
        raise ValueError(f"information-word shape {u.shape} != ({g.rows.shape[0]},)")
    return g.left_mul(u)


class TannerGraph:
    """H as a padded check-slot table: one column per check, one row per slot.

    Built from a peg_construct table.  Checks without edges are left
    out: they constrain nothing.  Each remaining check is a column of
    `slots`, holding its variables in ascending order from row 0 down,
    and a check shorter than the longest is padded with the dummy
    variable `n_vars` (`pad` marks those slots).  `var_edges[:, v]` are
    the flat positions in the table of variable v's edges, in ascending
    check order, and `checks[c]` is the row of H that column c stands for.

    The decoder sets the messages on pads to 1.0 and gives the dummy a
    total of 0.0, so a pad changes no product and no parity; and since
    the orders above are the orders of a check-by-check edge list,
    reducing along the table rounds exactly as reducing that list does.
    """

    def __init__(self, var_checks: np.ndarray, n_checks: int) -> None:
        n_vars, degree = var_checks.shape
        flat = var_checks.ravel()
        # a stable sort keeps each check's variables in ascending order
        order = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=n_checks)
        self.checks = np.flatnonzero(counts)
        counts = counts[self.checks]
        group = np.repeat(np.arange(self.checks.size), counts)
        slot = np.arange(flat.size) - (np.cumsum(counts) - counts)[group]
        self.slots = np.full((counts.max(initial=0), self.checks.size), n_vars, dtype=np.intp)
        var = order // degree
        self.slots[slot, group] = var
        self.pad = self.slots == n_vars
        # the edges in check order, regrouped by variable: a stable sort
        # keeps each variable's edges in ascending check order
        by_var = np.argsort(var, kind="stable")
        position = (slot * self.checks.size + group)[by_var]
        self.var_edges = np.ascontiguousarray(position.reshape(n_vars, degree).T)
        self.n_checks = n_checks
        self.n_vars = n_vars

    def parity_rows(self) -> PackedRows:
        """H as packed rows, one per check."""
        rows = np.zeros((self.n_checks, (self.n_vars + 7) // 8), dtype=np.uint8)
        edge = ~self.pad
        var = self.slots[edge]
        check = np.broadcast_to(self.checks, self.slots.shape)[edge]
        np.bitwise_or.at(rows, (check, var >> 3), (0x80 >> (var & 7)).astype(np.uint8))
        return PackedRows(rows, self.n_vars)


def _parity_ok(ones: np.ndarray) -> bool:
    """True iff every column of a slot table of hard-decided ones has even parity."""
    return not np.logical_xor.reduce(ones, axis=0).any()


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
    # half-LLR messages, as the module docstring says
    half0 = 0.5 * np.clip(np.asarray(llrs, dtype=np.float64), -LLR_CLAMP, LLR_CLAMP)
    slots, pad, var_edges = edges.slots, edges.pad, edges.var_edges
    # per-variable totals and the dummy's 0.0, which no parity can see;
    # one gather into the slot table feeds the syndrome and the messages
    totals = np.zeros(edges.n_vars + 1)
    totals[:-1] = half0
    gathered = totals.take(slots)
    converged = _parity_ok(gathered < 0)
    r = np.zeros_like(gathered)
    # zero counts in the narrowest type a check degree fits, uint8 here:
    # counting bools into the default int64 costs about 3x as much
    count = np.min_scalar_type(slots.shape[0])
    iterations = 0
    while not converged and iterations < max_iters:
        iterations += 1
        q = np.subtract(gathered, r, out=gathered)
        np.minimum(np.maximum(q, -_HALF_CLAMP, out=q), _HALF_CLAMP, out=q)
        t = np.tanh(q, out=q)
        np.putmask(t, pad, 1.0)
        # exclusion product per edge: zero messages leave the product, and
        # an edge is erased as soon as some other edge of its check is zero
        zero = t == 0.0
        n_zero = np.add.reduce(zero.view(np.uint8), axis=0, dtype=count)
        # t is +-0.0 exactly where zero is set: adding the mask makes those
        # 1.0 without the per-element branch of a masked write on a new mask
        np.add(t, zero, out=t)
        np.divide(np.multiply.reduce(t, axis=0), t, out=r)
        np.minimum(np.maximum(r, -_TANH_LIM, out=r), _TANH_LIM, out=r)
        # erase by multiplying the clamped, finite r by 0 or 1, not by a
        # masked write: the keep mask changes every iteration
        np.multiply(r, n_zero == zero.view(np.uint8), out=r)
        np.arctanh(r, out=r)
        np.add(half0, np.add.reduce(r.take(var_edges), axis=0), out=totals[:-1])
        gathered = totals.take(slots)
        converged = _parity_ok(gathered < 0)
    return (totals[info_positions] < 0).astype(np.uint8), converged, iterations
