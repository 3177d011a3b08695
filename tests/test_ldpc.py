"""Parity-check construction, systematic encoding, BP decoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsdc.gf2 import PackedRows
from qsdc.ldpc import (
    _TANH_LIM,
    LLR_CLAMP,
    TannerGraph,
    _parity_ok,
    bp_decode,
    ldpc_encode,
    peg_construct,
    systematic_generator,
)
from qsdc.wiretap_code import CodeParams, build_code, code_description
from test_gf2 import gf2_matmul, gf2_row_reduce

# digests of the nominal code, build_code(CodeParams(1312, 656, 128, 830, seed=12345))
NOMINAL_H_SHA256 = "3657a253754e26e89b2dcb48d14885641fce070fdf8ca575c1c8efc47277cb51"
NOMINAL_G_SHA256 = "a9d072541545c1538e2b2a5e10f07c8135825975d3a5df0ed6cc96c725e98375"
NOMINAL_UHF_SHA256 = "adb8864687bfa51e3b024983494a874b3976a431b4046e4b28b41b380b5ce352"
# build_code(CodeParams(100, 50, 10, 4, seed=7)): no width is a multiple of 8, so a
# digest of padded row bytes would differ from the digest of the bits
ODD_CODE_SHA256 = {
    "h": "7da8029a0a2762b1f4d0117079acdc8269f19687bc541a872345f303a34e21ac",
    "g": "1f9574e0869186fec816653838c206aa83b31c36644fdb4f5b33b694eaa68d37",
    "uhf": "4bece5da8b036a1435e2f7c42bd7a3357f130d748db4a382dbd899129178e47f",
}


def dense_h(var_checks, n_checks):
    """H with a 1 at (check, variable) for every entry of a peg_construct table."""
    h = np.zeros((n_checks, var_checks.shape[0]), dtype=np.uint8)
    h[var_checks, np.arange(var_checks.shape[0])[:, None]] = 1
    return h


def dense_systematic_generator(h):
    """The generator systematic_generator must return, built densely."""
    m, n = h.shape
    reduced, pivots, rank = gf2_row_reduce(h)
    assert rank == m
    info = np.setdiff1d(np.arange(n), pivots)
    g = np.zeros((n - m, n), dtype=np.uint8)
    g[np.arange(n - m), info] = 1
    g[:, pivots] = reduced[:, info].T
    return g, info


def _peg_reference(n_checks, n_vars, var_degree, rng):
    """Set-based progressive edge growth, the oracle for peg_construct.

    Each edge runs a breadth-first search over Python sets of checks
    and variables; the tied candidates are sorted before the rng draw.
    """
    var_adj = [[] for _ in range(n_vars)]
    check_adj = [[] for _ in range(n_checks)]
    check_degree = np.zeros(n_checks, dtype=np.int64)
    all_checks = frozenset(range(n_checks))

    for v in range(n_vars):
        for _ in range(var_degree):
            adjacent = set(var_adj[v])
            reached = set(adjacent)
            prev = set()
            visited_vars = {v}
            frontier = set(reached)
            while frontier and len(reached) < n_checks:
                next_vars = set()
                for c in frontier:
                    next_vars.update(check_adj[c])
                next_vars -= visited_vars
                if not next_vars:
                    break
                visited_vars |= next_vars
                new_checks = set()
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
            cand = np.array(sorted(candidates), dtype=np.int64)
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


def _llrs_from_codeword(v, scale=8.0):
    return scale * (1.0 - 2.0 * v.astype(float))


def test_peg_degrees_and_girth(rng):
    table = peg_construct(64, 128, 3, rng)
    assert table.shape == (128, 3)
    h = dense_h(table, 64)
    assert (h.sum(axis=0) == 3).all()
    # check degrees stay balanced under min-degree selection
    cd = h.sum(axis=1)
    assert cd.max() - cd.min() <= 2
    # no 4-cycles: two checks never share two variables
    overlap = h.astype(int) @ h.T.astype(int)
    np.fill_diagonal(overlap, 0)
    assert overlap.max() <= 1


@pytest.mark.parametrize(
    "n_checks, n_vars, var_degree",
    [
        (3, 6, 3),
        (5, 7, 2),
        (12, 24, 3),
        (20, 40, 3),
        (33, 50, 4),
        (64, 128, 3),
        (9, 9, 9),
        # every edge a first edge: the lowest degree rises five times
        (7, 40, 1),
        # more checks than variables: most searches stall before reaching all
        (200, 150, 3),
        # many checks tied at the lowest degree on every draw
        (16, 32, 2),
    ],
)
def test_peg_equals_set_reference(n_checks, n_vars, var_degree):
    for seed in range(3):
        want = _peg_reference(n_checks, n_vars, var_degree, np.random.default_rng(seed))
        got = peg_construct(n_checks, n_vars, var_degree, np.random.default_rng(seed))
        assert (dense_h(got, n_checks) == want).all(), seed


def test_peg_nominal_code_pinned(default_code):
    h = default_code.edges.parity_rows().unpack()
    description = code_description(default_code)
    assert f"h_sha256 = {NOMINAL_H_SHA256}\n" in description
    assert f"g_sha256 = {NOMINAL_G_SHA256}\n" in description
    assert f"uhf_sha256 = {NOMINAL_UHF_SHA256}\n" in description
    assert (h.sum(axis=0) == 3).all()
    # girth >= 6: two checks never share two variables
    overlap = h.astype(np.int64) @ h.T.astype(np.int64)
    np.fill_diagonal(overlap, 0)
    assert overlap.max() <= 1


def test_peg_deterministic_given_rng_state():
    h1 = peg_construct(32, 64, 3, np.random.default_rng(5))
    h2 = peg_construct(32, 64, 3, np.random.default_rng(5))
    assert (h1 == h2).all()


def test_odd_width_code_digests_pinned():
    description = code_description(build_code(CodeParams(100, 50, 10, 4, seed=7)))
    for name, digest in ODD_CODE_SHA256.items():
        assert f"{name}_sha256 = {digest}\n" in description


def test_systematic_generator_annihilated_by_h(small_code):
    h = small_code.edges.parity_rows().unpack()
    g, info = small_code.g_rows.unpack(), small_code.info_positions
    k = g.shape[0]
    assert (gf2_matmul(g, h.T) == 0).all()
    # info positions carry the message verbatim
    assert (g[:, info] == np.eye(k, dtype=np.uint8)).all()


def test_systematic_generator_rejects_rank_deficiency():
    h = np.zeros((4, 8), dtype=np.uint8)
    h[0] = h[1] = np.array([1, 1, 1, 0, 0, 0, 0, 0], dtype=np.uint8)
    with pytest.raises(ValueError):
        systematic_generator(PackedRows.pack(h))


@pytest.mark.parametrize("n_checks, n_vars", [(12, 24), (20, 43), (64, 128), (77, 150)])
def test_systematic_generator_matches_dense_oracle(n_checks, n_vars):
    for seed in range(4):
        table = peg_construct(n_checks, n_vars, 3, np.random.default_rng(seed))
        h = dense_h(table, n_checks)
        if gf2_row_reduce(h)[2] < n_checks:
            with pytest.raises(ValueError):
                systematic_generator(PackedRows.pack(h))
            continue
        want_g, want_info = dense_systematic_generator(h)
        g, info = systematic_generator(PackedRows.pack(h))
        assert g.unpack().shape == want_g.shape
        assert (g.unpack() == want_g).all()
        assert np.array_equal(info, want_info)


def test_encode_linear(small_code, rng):
    g = small_code.g_rows
    k = small_code.k_u
    a = rng.integers(0, 2, k, dtype=np.uint8)
    b = rng.integers(0, 2, k, dtype=np.uint8)
    assert (ldpc_encode(a ^ b, g) == (ldpc_encode(a, g) ^ ldpc_encode(b, g))).all()


def test_bp_decode_noiseless_zero_iterations(small_code, rng):
    u = rng.integers(0, 2, small_code.k_u, dtype=np.uint8)
    v = ldpc_encode(u, small_code.g_rows)
    u_hat, converged, iters = bp_decode(
        _llrs_from_codeword(v), small_code.edges, small_code.info_positions
    )
    assert converged and iters == 0
    assert (u_hat == u).all()


def test_bp_decode_corrects_single_erasure(small_code, rng):
    u = rng.integers(0, 2, small_code.k_u, dtype=np.uint8)
    v = ldpc_encode(u, small_code.g_rows)
    llrs = _llrs_from_codeword(v)
    # erase a 1-bit: a zero LLR hard-decides to 0, so BP must iterate
    llrs[np.flatnonzero(v)[0]] = 0.0
    u_hat, converged, iters = bp_decode(llrs, small_code.edges, small_code.info_positions)
    assert converged and iters >= 1
    assert (u_hat == u).all()


def test_bp_decode_corrects_flips(small_code, rng):
    u = rng.integers(0, 2, small_code.k_u, dtype=np.uint8)
    v = ldpc_encode(u, small_code.g_rows)
    for n_flips in (1, 3, 7):
        llrs = _llrs_from_codeword(v, scale=2.0)
        flip = rng.choice(llrs.size, n_flips, replace=False)
        llrs[flip] *= -1.0
        u_hat, converged, _ = bp_decode(llrs, small_code.edges, small_code.info_positions)
        assert converged
        assert (u_hat == u).all()


def _low_snr_llrs(rng, n):
    """Consistent Gaussian LLRs of the all-zero codeword, mean 0.5: far below BP's threshold."""
    return rng.normal(0.5, 1.0, n)


def test_bp_decode_hopeless_input_reports_failure(small_code, rng):
    u_hat, converged, iters = bp_decode(
        _low_snr_llrs(rng, small_code.l), small_code.edges, small_code.info_positions
    )
    assert converged is False and iters == 100
    assert u_hat.shape == (small_code.k_u,) and u_hat.dtype == np.uint8


def test_bp_decode_respects_max_iters(small_code, rng):
    u_hat, converged, iters = bp_decode(
        _low_snr_llrs(rng, small_code.l), small_code.edges, small_code.info_positions, max_iters=7
    )
    assert converged is False and iters == 7
    assert u_hat.shape == (small_code.k_u,) and u_hat.dtype == np.uint8


def test_llr_clamp_constant():
    assert LLR_CLAMP == 30.0


def test_check_messages_stay_inside_the_clamp():
    # bp_decode clips no check message to LLR_CLAMP: the clip of the
    # exclusion product to +-_TANH_LIM already keeps each one inside
    assert 2.0 * np.arctanh(_TANH_LIM) < LLR_CLAMP


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32))
def test_bp_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    edges = TannerGraph(peg_construct(12, 24, 3, rng), 12)
    try:
        g, info = systematic_generator(edges.parity_rows())
    except ValueError:
        return  # rank-deficient draw: construction rejects it upstream
    u = rng.integers(0, 2, 12, dtype=np.uint8)
    v = ldpc_encode(u, g)
    u_hat, converged, _ = bp_decode(_llrs_from_codeword(v), edges, info)
    assert converged and (u_hat == u).all()


def _slot_table(h):
    """The check-slot table of dense H: each non-empty row's columns, padded with n_vars."""
    rows = [np.flatnonzero(row) for row in h if row.any()]
    table = np.full((max(map(len, rows)), len(rows)), h.shape[1])
    for c, row in enumerate(rows):
        table[: row.size, c] = row
    return table


def syndrome_ok(edges, v_hat):
    """True iff the hard decision v_hat meets every parity check of the slot table edges."""
    return _parity_ok(np.append(v_hat != 0, False).take(edges.slots))


def test_tanner_graph_syndrome_matches_dense_parity(small_code, rng):
    table = peg_construct(128, 256, 3, np.random.default_rng(np.random.SeedSequence([99, 0, 0])))
    h = dense_h(table, 128)
    edges = TannerGraph(table, 128)
    # each check's variables in ascending order, the same H packed, and
    # each variable's edges in ascending check order
    assert np.array_equal(edges.slots, _slot_table(h))
    assert np.array_equal(edges.pad, edges.slots == 256)
    assert (edges.parity_rows().unpack() == h).all()
    assert (edges.slots.ravel()[edges.var_edges] == np.arange(256)).all()
    var_checks = edges.checks[edges.var_edges % edges.checks.size]
    assert np.array_equal(var_checks.T, np.nonzero(h.T)[1].reshape(256, 3))
    # the small code was built from this table on its first attempt
    assert np.array_equal(small_code.edges.slots, edges.slots)
    for _ in range(20):
        v = rng.integers(0, 2, small_code.l, dtype=np.uint8)
        dense_ok = not ((h.astype(np.int64) @ v) % 2).any()
        assert syndrome_ok(edges, v) == dense_ok
    u = rng.integers(0, 2, small_code.k_u, dtype=np.uint8)
    assert syndrome_ok(edges, ldpc_encode(u, small_code.g_rows))


def test_tanner_graph_skips_empty_checks():
    # variable 0 on check 0, variables 1 and 2 on check 2; check 1 is empty
    edges = TannerGraph(np.array([[0], [2], [2]]), 3)
    assert edges.checks.tolist() == [0, 2]
    assert edges.slots.tolist() == [[0, 1], [3, 2]]
    assert edges.pad.tolist() == [[False, False], [True, False]]
    assert edges.var_edges.tolist() == [[0, 1, 3]]
    assert (edges.parity_rows().unpack() == [[1, 0, 0], [0, 0, 0], [0, 1, 1]]).all()
    assert syndrome_ok(edges, np.array([0, 1, 1], dtype=np.uint8))
    assert not syndrome_ok(edges, np.array([0, 0, 1], dtype=np.uint8))
    assert not syndrome_ok(edges, np.array([1, 1, 1], dtype=np.uint8))


class _ReferenceTannerGraph:
    """Flattened Tanner-graph edges grouped by check, as _reference_bp_decode reads them."""

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

    def syndrome_ok(self, v_hat: np.ndarray) -> bool:
        """True iff the hard decision v_hat meets every parity check."""
        return not (np.add.reduceat(v_hat[self.var_idx], self.starts) & 1).any()


def _reference_bp_decode(llrs, edges, info_positions, max_iters=100):
    """Flooding sum-product on edges grouped by check, the oracle for bp_decode."""
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


def _reference_graph(edges):
    """The oracle's graph of the H that edges packs, each variable's checks ascending."""
    h = edges.parity_rows().unpack()
    return _ReferenceTannerGraph(np.nonzero(h.T)[1].reshape(edges.n_vars, -1), edges.n_checks)


LLR_FAMILIES = (
    "gaussian", "erasures", "signed_zeros", "underflow", "subnormal", "beyond_clamp", "noise"
)


def _family_llrs(family, rng, n):
    """Channel LLRs of the all-zero codeword that stress one corner of the decoder."""
    mean = rng.uniform(0.5, 4.0)
    llrs = rng.normal(mean, np.sqrt(2.0 * mean), n)
    if family == "erasures":
        llrs[rng.random(n) < 0.6] = 0.0
    elif family == "signed_zeros":
        # -0.0 and 0.0 both give tanh == 0, a zero message
        llrs[rng.random(n) < 0.3] = -0.0
        llrs[rng.random(n) < 0.2] = 0.0
    elif family == "underflow":
        # a check's product of tanh(~1e-150) underflows to zero
        llrs = np.sign(llrs) * 10.0 ** rng.uniform(-160.0, -140.0, n)
    elif family == "subnormal":
        # halving rounds in the subnormal range, and a check's product
        # of such messages underflows to zero with no zero factor
        tiny = rng.random(n) < 0.3
        sign = rng.choice([-1.0, 1.0], n)
        llrs[tiny] = (sign * 10.0 ** rng.uniform(-320.0, -305.0, n))[tiny]
    elif family == "beyond_clamp":
        llrs *= 20.0
    elif family == "noise":
        llrs = rng.normal(0.0, 1.0, n)
    return llrs


def _assert_decoders_agree(edges, llrs, max_iters):
    everything = np.arange(edges.n_vars)
    want = _reference_bp_decode(llrs, _reference_graph(edges), everything, max_iters)
    # an inf * 0 or 0 / 0 brought in by the arithmetic zero masks raises
    with np.errstate(invalid="raise"):
        got = bp_decode(llrs, edges, everything, max_iters)
    assert got[0].dtype == want[0].dtype
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]
    assert type(got[1]) is bool


# variable degree 2; check 2 is empty, check 0 has degree 2 and check 5 degree 1
IRREGULAR_VAR_CHECKS = np.array([[0, 1], [3, 0], [1, 3], [4, 1], [3, 4], [5, 4], [1, 3]])


@pytest.mark.parametrize("code_name", ["default_code", "small_code", "toy_code", "irregular"])
@pytest.mark.parametrize("max_iters", [1, 2, 5, 100])
def test_bp_decode_matches_reference_decoder(code_name, max_iters, request):
    if code_name == "irregular":
        edges = TannerGraph(IRREGULAR_VAR_CHECKS, 6)
    else:
        edges = request.getfixturevalue(code_name).edges
    rng = np.random.default_rng([max_iters, edges.n_vars])
    draws = 2 if edges.n_vars > 1000 else 8
    for family in LLR_FAMILIES:
        for _ in range(draws):
            _assert_decoders_agree(edges, _family_llrs(family, rng, edges.n_vars), max_iters)


def test_irregular_graph_layout():
    edges = TannerGraph(IRREGULAR_VAR_CHECKS, 6)
    assert edges.checks.tolist() == [0, 1, 3, 4, 5]
    assert (~edges.pad).sum(axis=0).tolist() == [2, 4, 4, 3, 1]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 40),
    st.integers(1, 40),
    st.integers(1, 4),
    st.sampled_from(LLR_FAMILIES),
    st.sampled_from([1, 2, 5, 100]),
    st.integers(0, 2**32),
)
def test_bp_decode_matches_reference_on_random_codes(
    n_checks, extra_vars, var_degree, family, max_iters, seed
):
    rng = np.random.default_rng(seed)
    var_degree = min(var_degree, n_checks)
    n_vars = n_checks + extra_vars
    edges = TannerGraph(peg_construct(n_checks, n_vars, var_degree, rng), n_checks)
    _assert_decoders_agree(edges, _family_llrs(family, rng, n_vars), max_iters)
