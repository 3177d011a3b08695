"""Wiretap code: universal-hash preprocessing over a spread LDPC code.

A block carries k_u information bits: k_m secret message bits plus
k_r fresh uniform bits.  The information word is whitened by an
invertible random binary matrix (a universal hash family member fixed
by the code seed), LDPC encoded to l coded bits, and spread by
n_spread chips per bit.  The receiver inverts the chain after
belief-propagation decoding.

CodeParams names a code by those five numbers and rejects any that no
code can be built from; a WiretapCode is its CodeParams plus the
matrices.  build_code is deterministic in the CodeParams, and
code_description records them plus the sha256 of each matrix's bits,
so two parties that build from the same parameters can compare
descriptions to verify they built the same code.

The built matrices can also be kept on disk (store_code, load_code):
one uncompressed .npz per code in the user's cache directory, named by
a digest of what the matrices depend on, so a fresh process loads them
instead of running the construction again.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
import tempfile
import tokenize
import zipfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from qsdc.gf2 import PackedRows, random_invertible
from qsdc.ldpc import TannerGraph, peg_construct, systematic_generator

VAR_DEGREE = 3
MAX_BUILD_ATTEMPTS = 16


@dataclass(frozen=True)
class CodeParams:
    """The parameters that name a wiretap code, validated on construction:
    k_r random and k_u - k_r message bits per block, l coded bits, n_spread
    chips per coded bit and the seed every matrix is drawn from."""

    l: int = 1312
    k_u: int = 656
    k_r: int = 128
    n_spread: int = 830
    seed: int = 12345

    def __post_init__(self) -> None:
        if not 0 < self.k_r < self.k_u < self.l:
            raise ValueError(
                f"need 0 < k_r < k_u < l, got k_r={self.k_r}, k_u={self.k_u}, l={self.l}"
            )
        if self.n_spread < 1:
            raise ValueError(f"n_spread must be >= 1, got {self.n_spread}")
        if self.n_spread * self.l > 2**32:
            # the keystream indexes a block's chips by uint32
            raise ValueError(f"n_spread * l = {self.n_spread * self.l} chips exceed 2**32")
        if self.l - self.k_u <= VAR_DEGREE:
            # with as many checks as a variable has edges, every column of
            # H is all ones and H has rank 1; with fewer, no column fits
            raise ValueError(
                f"l - k_u = {self.l - self.k_u} must exceed the variable degree {VAR_DEGREE}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def k_m(self) -> int:
        return self.k_u - self.k_r

    @property
    def block_chips(self) -> int:
        return self.n_spread * self.l


@dataclass(frozen=True, eq=False, kw_only=True)
class WiretapCode(CodeParams):
    """All public material of one code instance: H as its Tanner graph, the rest as packed rows.

    Two codes compare equal when their parameters do."""

    edges: TannerGraph
    info_positions: np.ndarray
    # the per-block maps u -> u @ g, x -> uhf @ x and u -> uhf_inv @ u,
    # each the XOR of the rows its input selects: g, uhf.T and uhf_inv.T
    g_rows: PackedRows
    uhf_rows: PackedRows
    uhf_inv_rows: PackedRows


def build_code(params: CodeParams) -> WiretapCode:
    """Construct the code deterministically from its parameters.

    The parity-check matrix is redrawn with a derived seed when the
    Gauss-Jordan reduction finds it rank deficient, up to
    MAX_BUILD_ATTEMPTS times; ValueError when every draw is.
    """
    m = params.l - params.k_u
    for attempt in range(MAX_BUILD_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence([params.seed, 0, attempt]))
        edges = TannerGraph(peg_construct(m, params.l, VAR_DEGREE, rng), m)
        try:
            g, info = systematic_generator(edges.parity_rows())
            break
        except ValueError:
            continue
    else:
        raise ValueError(
            f"no full-rank parity-check matrix for l={params.l}, k_u={params.k_u}, "
            f"seed={params.seed} in {MAX_BUILD_ATTEMPTS} draws; try another seed"
        )

    uhf_rng = np.random.default_rng(np.random.SeedSequence([params.seed, 1]))
    uhf, uhf_inv = random_invertible(params.k_u, uhf_rng)
    return WiretapCode(
        **vars(params),
        edges=edges,
        info_positions=info,
        g_rows=g,
        uhf_rows=uhf.transpose(),
        uhf_inv_rows=uhf_inv.transpose(),
    )


# the source files whose code decides the built matrices
_BUILDER_SOURCES = ("gf2.py", "ldpc.py", "wiretap_code.py")
# the arrays a stored code holds, in the order its digest reads them
_STORED = ("var_checks", "info_positions", "g_rows", "uhf_rows", "uhf_inv_rows")
# what np.load and its reads raise on a missing, truncated or altered file:
# zipfile refuses a bad CRC or header, NotImplementedError (a RuntimeError)
# names a compression it lacks, and numpy's header parse may end in tokenize
_UNREADABLE = (OSError, EOFError, KeyError, ValueError, RuntimeError, zipfile.BadZipFile,
               tokenize.TokenError)


def code_cache_path(params: CodeParams) -> Path | None:
    """Where the code that params name is stored: $XDG_CACHE_HOME/qsdc, or
    ~/.cache/qsdc when that is unset, holds one file per code.

    build_code reads neither k_r nor n_spread, so the name is a digest of
    (l, k_u, seed), the numpy version and the builder's source files, and
    a change to any of them names another file.  None when there is no
    home directory or no source to read.
    """
    try:
        # the XDG base-directory rules ignore an empty or relative value
        env = os.environ.get("XDG_CACHE_HOME", "")
        root = Path(env) if os.path.isabs(env) else Path.home() / ".cache"
        digest = hashlib.sha256(repr((params.l, params.k_u, params.seed, np.__version__)).encode())
        for name in _BUILDER_SOURCES:
            digest.update(Path(__file__).with_name(name).read_bytes())
    except (OSError, RuntimeError):
        return None
    return root / "qsdc" / f"code-{digest.hexdigest()[:32]}.npz"


def _sha256(arrays: dict[str, np.ndarray], path: Path) -> np.ndarray:
    """The digest a stored code carries: of its file name and of each array's
    dtype, shape and bytes, so a file copied under another name fails it."""
    digest = hashlib.sha256(path.name.encode())
    for name in _STORED:
        a = arrays[name]
        digest.update(f"{name} {a.dtype.str} {a.shape}".encode())
        digest.update(a.tobytes())
    return np.frombuffer(digest.digest(), dtype=np.uint8)


def store_code(code: WiretapCode) -> None:
    """Write code to its code_cache_path, through a temporary file in the
    same directory and os.replace, so no reader sees a partial file.  A
    directory that cannot be made or written leaves no file behind."""
    path = code_cache_path(code)
    if path is None:
        return
    edges = code.edges
    arrays = {
        # variable v's checks, in ascending order: TannerGraph rebuilds
        # the same table from them as from peg_construct's order
        "var_checks": edges.checks[edges.var_edges.T % edges.checks.size],
        "info_positions": code.info_positions,
        "g_rows": code.g_rows.rows,
        "uhf_rows": code.uhf_rows.rows,
        "uhf_inv_rows": code.uhf_inv_rows.rows,
    }
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(
            dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp", delete=False
        ) as f:
            tmp = Path(f.name)
            np.savez(f, **arrays, sha256=_sha256(arrays, path))
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            tmp.unlink(missing_ok=True)


def load_code(params: CodeParams) -> WiretapCode | None:
    """The code that params name, from its code_cache_path; None when the
    file is absent, unreadable or fails its digest.  Runs no construction:
    the Tanner graph is rebuilt from the stored check table."""
    path = code_cache_path(params)
    if path is None:
        return None
    try:
        with np.load(path, allow_pickle=False) as f:
            arrays = {name: f[name] for name in _STORED}
            stored = f["sha256"]
    except _UNREADABLE:
        return None
    if not np.array_equal(stored, _sha256(arrays, path)):
        return None
    return WiretapCode(
        **vars(params),
        edges=TannerGraph(arrays["var_checks"], params.l - params.k_u),
        info_positions=arrays["info_positions"],
        g_rows=PackedRows(arrays["g_rows"], params.l),
        uhf_rows=PackedRows(arrays["uhf_rows"], params.k_u),
        uhf_inv_rows=PackedRows(arrays["uhf_inv_rows"], params.k_u),
    )


def uhf_map(message_bits: np.ndarray, random_bits: np.ndarray, code: WiretapCode) -> np.ndarray:
    """Whiten (message || random) into the information word u = M (m||r)."""
    m = np.asarray(message_bits, dtype=np.uint8)
    r = np.asarray(random_bits, dtype=np.uint8)
    if m.shape != (code.k_m,):
        raise ValueError(f"message length {m.shape} != ({code.k_m},)")
    if r.shape != (code.k_r,):
        raise ValueError(f"random-bit length {r.shape} != ({code.k_r},)")
    return code.uhf_rows.left_mul(np.concatenate([m, r]))


def uhf_invert(u: np.ndarray, code: WiretapCode) -> tuple[np.ndarray, np.ndarray]:
    """Recover (message, random bits) from an information word."""
    u = np.asarray(u, dtype=np.uint8)
    if u.shape != (code.k_u,):
        raise ValueError(f"information-word length {u.shape} != ({code.k_u},)")
    x = code.uhf_inv_rows.left_mul(u)
    return x[: code.k_m], x[code.k_m :]


def _checksums(code: WiretapCode) -> dict[str, str]:
    """sha256 of h, g and uhf, each flattened to one bit string; that is
    the row bytes only when the column count is a multiple of 8."""
    mats = {"h": code.edges.parity_rows(), "g": code.g_rows, "uhf": code.uhf_rows.transpose()}
    return {
        name: hashlib.sha256(np.packbits(mat.unpack()).tobytes()).hexdigest()
        for name, mat in mats.items()
    }


def code_description(code: WiretapCode) -> str:
    """Serialise the code parameters plus matrix checksums."""
    cp = configparser.ConfigParser()
    cp["wiretap-code"] = {
        **{f.name: str(getattr(code, f.name)) for f in fields(CodeParams)},
        **{f"{name}_sha256": digest for name, digest in _checksums(code).items()},
    }
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()
