"""Parity-check construction, systematic encoding, BP decoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsdc.gf2 import PackedRows
from qsdc.ldpc import (
    LLR_CLAMP,
    TannerGraph,
    bp_decode,
    ldpc_encode,
    peg_construct,
    systematic_generator,
)
from qsdc.wiretap_code import code_description
from test_gf2 import gf2_matmul

# h_sha256 of the nominal code, build_code(1312, 656, 128, 830, seed=12345)
NOMINAL_H_SHA256 = "3657a253754e26e89b2dcb48d14885641fce070fdf8ca575c1c8efc47277cb51"


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
    h = peg_construct(64, 128, 3, rng)
    assert h.shape == (64, 128)
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
    [(3, 6, 3), (5, 7, 2), (12, 24, 3), (20, 40, 3), (33, 50, 4), (64, 128, 3), (9, 9, 9)],
)
def test_peg_equals_set_reference(n_checks, n_vars, var_degree):
    for seed in range(3):
        want = _peg_reference(n_checks, n_vars, var_degree, np.random.default_rng(seed))
        got = peg_construct(n_checks, n_vars, var_degree, np.random.default_rng(seed))
        assert (got == want).all(), seed


def test_peg_nominal_code_pinned(default_code):
    h = default_code.h
    assert f"h_sha256 = {NOMINAL_H_SHA256}\n" in code_description(default_code)
    assert (h.sum(axis=0) == 3).all()
    # girth >= 6: two checks never share two variables
    overlap = h.astype(np.int64) @ h.T.astype(np.int64)
    np.fill_diagonal(overlap, 0)
    assert overlap.max() <= 1


def test_peg_deterministic_given_rng_state():
    h1 = peg_construct(32, 64, 3, np.random.default_rng(5))
    h2 = peg_construct(32, 64, 3, np.random.default_rng(5))
    assert (h1 == h2).all()


def test_systematic_generator_annihilated_by_h(small_code):
    h, g, info = small_code.h, small_code.g, small_code.info_positions
    k = g.shape[0]
    assert (gf2_matmul(g, h.T) == 0).all()
    # info positions carry the message verbatim
    assert (g[:, info] == np.eye(k, dtype=np.uint8)).all()


def test_systematic_generator_rejects_rank_deficiency():
    h = np.zeros((4, 8), dtype=np.uint8)
    h[0] = h[1] = np.array([1, 1, 1, 0, 0, 0, 0, 0], dtype=np.uint8)
    with pytest.raises(ValueError):
        systematic_generator(h)


def test_encode_linear(small_code, rng):
    g = small_code.g_rows
    k = small_code.k_u
    a = rng.integers(0, 2, k, dtype=np.uint8)
    b = rng.integers(0, 2, k, dtype=np.uint8)
    assert (ldpc_encode(a ^ b, g) == (ldpc_encode(a, g) ^ ldpc_encode(b, g))).all()


def test_encode_batch_matches_single(small_code, rng):
    g = small_code.g_rows
    batch = rng.integers(0, 2, (5, small_code.k_u), dtype=np.uint8)
    enc = ldpc_encode(batch, g)
    for i in range(5):
        assert (enc[i] == ldpc_encode(batch[i], g)).all()


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


def test_bp_decode_hopeless_input_reports_failure(small_code, rng):
    # adversarial all-zero LLRs cannot converge to a unique codeword
    llrs = np.zeros(small_code.l)
    u_hat, converged, iters = bp_decode(llrs, small_code.edges, small_code.info_positions)
    assert u_hat.shape == (small_code.k_u,)
    assert isinstance(converged, bool)


def test_bp_decode_respects_max_iters(small_code):
    llrs = np.zeros(small_code.l)
    llrs[0] = 1.0  # inconsistent with nothing, but cannot fix the rest
    _, converged, iters = bp_decode(
        llrs, small_code.edges, small_code.info_positions, max_iters=7
    )
    if not converged:
        assert iters == 7


def test_llr_clamp_constant():
    assert LLR_CLAMP == 30.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32))
def test_bp_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    h = peg_construct(12, 24, 3, rng)
    try:
        g, info = systematic_generator(h)
    except ValueError:
        return  # rank-deficient draw: construction rejects it upstream
    u = rng.integers(0, 2, 12, dtype=np.uint8)
    v = ldpc_encode(u, PackedRows.pack(g))
    u_hat, converged, _ = bp_decode(_llrs_from_codeword(v), TannerGraph(h), info)
    assert converged and (u_hat == u).all()


def test_tanner_graph_syndrome_matches_dense_parity(small_code, rng):
    edges = small_code.edges
    assert edges.var_idx.size == int(small_code.h.sum())
    for _ in range(20):
        v = rng.integers(0, 2, small_code.l, dtype=np.uint8)
        dense_ok = not ((small_code.h.astype(np.int64) @ v) % 2).any()
        assert edges.syndrome_ok(v) == dense_ok
    u = rng.integers(0, 2, small_code.k_u, dtype=np.uint8)
    assert edges.syndrome_ok(ldpc_encode(u, small_code.g_rows))


def test_tanner_graph_skips_empty_checks():
    h = np.array([[1, 1, 0], [0, 0, 0], [0, 1, 1]], dtype=np.uint8)
    edges = TannerGraph(h)
    assert edges.counts.tolist() == [2, 2]
    assert edges.syndrome_ok(np.array([1, 1, 1], dtype=np.uint8))
    assert not edges.syndrome_ok(np.array([0, 0, 1], dtype=np.uint8))
