"""Wiretap code construction, whitening, packed storage and its description."""

import configparser
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsdc.gf2 import MAX_INVERTIBLE_DRAWS, PackedRows, random_invertible
from qsdc.ldpc import TannerGraph, ldpc_encode, peg_construct
from qsdc.spreading import keystream
from qsdc.wiretap_code import (
    CodeParams,
    _checksums,
    build_code,
    code_description,
    uhf_invert,
    uhf_map,
)
from test_gf2 import gf2_matmul


def _array_bytes(obj) -> int:
    """Bytes of every numpy array reachable through obj's attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if hasattr(obj, "__dict__"):
        return sum(_array_bytes(value) for value in vars(obj).values())
    return 0


def test_build_code_shapes(small_code):
    c = small_code
    assert (c.edges.n_checks, c.edges.n_vars) == (c.l - c.k_u, c.l)
    assert c.g_rows.unpack().shape == (c.k_u, c.l)
    assert c.uhf_rows.unpack().shape == c.uhf_inv_rows.unpack().shape == (c.k_u, c.k_u)
    assert c.k_m == c.k_u - c.k_r
    assert c.block_chips == c.n_spread * c.l


def test_build_code_deterministic():
    a = build_code(CodeParams(64, 32, 8, 4, seed=5))
    b = build_code(CodeParams(64, 32, 8, 4, seed=5))
    assert code_description(a) == code_description(b)
    assert np.array_equal(a.edges.slots, b.edges.slots)
    for name in ("g_rows", "uhf_rows", "uhf_inv_rows"):
        assert (getattr(a, name).rows == getattr(b, name).rows).all()


def test_build_code_seed_sensitivity():
    a = build_code(CodeParams(64, 32, 8, 4, seed=5))
    b = build_code(CodeParams(64, 32, 8, 4, seed=6))
    assert not np.array_equal(a.edges.slots, b.edges.slots)
    assert (a.uhf_rows.rows != b.uhf_rows.rows).any()


def test_nominal_code_holds_only_packed_rows(default_code):
    # g, uhf and uhf_inv as packed rows, H as its Tanner graph: about
    # 0.26 MiB; the four dense 0/1 matrices alone would take 2.58 MiB
    assert _array_bytes(default_code) <= 0.5 * 2**20
    for value in vars(default_code).values():
        assert isinstance(value, (int, PackedRows, TannerGraph)) or value.ndim == 1


def test_code_params_validation():
    with pytest.raises(ValueError):
        CodeParams(64, 64, 8, 4, seed=1)  # k_u must be < l
    with pytest.raises(ValueError):
        CodeParams(64, 32, 32, 4, seed=1)  # k_r must be < k_u
    with pytest.raises(ValueError):
        CodeParams(64, 32, 0, 4, seed=1)
    with pytest.raises(ValueError):
        CodeParams(64, 32, 8, 0, seed=1)
    with pytest.raises(ValueError):
        CodeParams(64, 62, 8, 4, seed=1)  # two checks for degree-3 variables
    with pytest.raises(ValueError, match="must exceed the variable degree 3"):
        CodeParams(20, 17, 1, 4, seed=1)  # three checks: every column of H all ones
    with pytest.raises(ValueError, match="seed must be >= 0"):
        CodeParams(64, 32, 8, 4, seed=-1)
    CodeParams(20, 16, 1, 4, seed=0)
    with pytest.raises(ValueError):
        CodeParams(1312, 656, 128, 2**32 // 1312 + 1, seed=1)  # chips past uint32
    CodeParams(2**12, 656, 128, 2**20, seed=1)  # exactly 2**32 chips


def test_uhf_is_invertible(small_code):
    eye = np.eye(small_code.k_u, dtype=np.uint8)
    uhf_t, uhf_inv_t = small_code.uhf_rows.unpack(), small_code.uhf_inv_rows.unpack()
    assert (gf2_matmul(uhf_t, uhf_inv_t) == eye).all()


def test_packed_products_equal_gf2_matmul(small_code, default_code, rng):
    for code in (small_code, default_code):
        g = code.g_rows.unpack()
        uhf, uhf_inv = code.uhf_rows.unpack().T, code.uhf_inv_rows.unpack().T
        for x in rng.integers(0, 2, (6, code.k_u), dtype=np.uint8):
            assert (ldpc_encode(x, code.g_rows) == gf2_matmul(x, g)).all()
            u = uhf_map(x[: code.k_m], x[code.k_m :], code)
            assert (u == gf2_matmul(uhf, x)).all()
            m, r = uhf_invert(x, code)
            assert (np.concatenate([m, r]) == gf2_matmul(uhf_inv, x)).all()
        zero = np.zeros(code.k_u, dtype=np.uint8)
        assert not ldpc_encode(zero, code.g_rows).any()


def test_uhf_roundtrip(small_code, rng):
    m = rng.integers(0, 2, small_code.k_m, dtype=np.uint8)
    r = rng.integers(0, 2, small_code.k_r, dtype=np.uint8)
    u = uhf_map(m, r, small_code)
    m2, r2 = uhf_invert(u, small_code)
    assert (m2 == m).all() and (r2 == r).all()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_uhf_roundtrip_property(seed):
    code = build_code(CodeParams(32, 16, 4, 2, seed=21))
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 2, code.k_m, dtype=np.uint8)
    r = rng.integers(0, 2, code.k_r, dtype=np.uint8)
    m2, r2 = uhf_invert(uhf_map(m, r, code), code)
    assert (m2 == m).all() and (r2 == r).all()


def test_uhf_map_rejects_bad_lengths(small_code):
    with pytest.raises(ValueError):
        uhf_map(
            np.zeros(small_code.k_m + 1, dtype=np.uint8),
            np.zeros(small_code.k_r, dtype=np.uint8),
            small_code,
        )


class _SingularDraws:
    """A generator whose every draw is the all-zero matrix, singular at any size."""

    def integers(self, low, high, size, dtype):
        return np.zeros(size, dtype=dtype)


def _zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.uint8)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda c: peg_construct(4, 8, 5, np.random.default_rng(0)), ValueError,
                     "var_degree 5 exceeds check count 4", id="peg_construct var_degree"),
        pytest.param(lambda c: ldpc_encode(_zeros(c.k_u + 1), c.g_rows), ValueError,
                     "information-word shape (129,) != (128,)", id="ldpc_encode shape"),
        pytest.param(lambda c: uhf_map(_zeros(c.k_m), _zeros(c.k_r - 1), c), ValueError,
                     "random-bit length (31,) != (32,)", id="uhf_map random bits"),
        pytest.param(lambda c: uhf_invert(_zeros(c.k_u - 1), c), ValueError,
                     "information-word length (127,) != (128,)", id="uhf_invert length"),
        pytest.param(lambda c: keystream(c.seed, 0, 2**32 + 1), ValueError,
                     f"length must lie in [0, 2**32], got {2**32 + 1}", id="keystream length"),
        pytest.param(lambda c: random_invertible(4, _SingularDraws()), RuntimeError,
                     f"no invertible matrix found in {MAX_INVERTIBLE_DRAWS} draws",
                     id="random_invertible gives up"),
    ],
)
def test_input_checks_name_the_bad_input(small_code, call, error, message):
    # small_code is CodeParams(256, 128, 32, 8): k_u 128, k_r 32
    with pytest.raises(error, match=re.escape(message)):
        call(small_code)


def test_uhf_mixes_random_bits(small_code, rng):
    # two transmissions of the same message with different random bits
    # must produce different whitened words
    m = rng.integers(0, 2, small_code.k_m, dtype=np.uint8)
    r1 = np.zeros(small_code.k_r, dtype=np.uint8)
    r2 = np.ones(small_code.k_r, dtype=np.uint8)
    assert (uhf_map(m, r1, small_code) != uhf_map(m, r2, small_code)).any()


def code_from_description(text: str):
    """Rebuild a code from its description, verifying the checksums."""
    cp = configparser.ConfigParser()
    cp.read_string(text)
    if "wiretap-code" not in cp:
        raise ValueError("missing [wiretap-code] section")
    sec = cp["wiretap-code"]
    params = {f.name: int(sec[f.name]) for f in dataclasses.fields(CodeParams)}
    code = build_code(CodeParams(**params))
    for name, digest in _checksums(code).items():
        want = sec.get(f"{name}_sha256")
        if want is not None and want != digest:
            raise ValueError(f"checksum mismatch for {name}: rebuilt code differs")
    return code


def test_code_description_roundtrip(small_code):
    text = code_description(small_code)
    rebuilt = code_from_description(text)
    assert code_description(rebuilt) == text
    assert np.array_equal(rebuilt.edges.slots, small_code.edges.slots)
    assert (rebuilt.g_rows.rows == small_code.g_rows.rows).all()
    assert (rebuilt.uhf_rows.rows == small_code.uhf_rows.rows).all()


def test_code_description_tamper_detection(small_code):
    text = code_description(small_code)
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("h_sha256"):
            key, _, value = line.partition(" = ")
            flipped = ("0" if value.strip()[0] != "0" else "f") + value.strip()[1:]
            lines[i] = f"{key} = {flipped}"
    with pytest.raises(ValueError):
        code_from_description("\n".join(lines))
