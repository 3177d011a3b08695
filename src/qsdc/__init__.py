"""Toolkit for simulating and analysing two-way quantum secure direct communication.

The package covers the full stack of a ping-pong style QSDC link: the
four-state qubit and lossy-channel model, wiretap security analysis,
the spread-spectrum LDPC coding chain, the block protocol engine, and
attack/experiment harnesses with a command line front end.
"""

from qsdc.states import ChannelParams
from qsdc.security import ErrorRates, SecurityEstimate, half_bias_capacity, secrecy_capacity
from qsdc.wiretap_code import CodeParams, WiretapCode, build_code, uhf_invert, uhf_map
from qsdc.spreading import compute_llrs, keystream, spread
from qsdc.ldpc import bp_decode, ldpc_encode
from qsdc.protocol import ProtocolConfig, SessionTranscript, nominal_config, run_session
from qsdc.attacks import AttackModel

__all__ = [
    "ChannelParams",
    "ErrorRates",
    "SecurityEstimate",
    "half_bias_capacity",
    "secrecy_capacity",
    "WiretapCode",
    "build_code",
    "uhf_invert",
    "uhf_map",
    "compute_llrs",
    "keystream",
    "spread",
    "bp_decode",
    "ldpc_encode",
    "CodeParams",
    "ProtocolConfig",
    "SessionTranscript",
    "nominal_config",
    "run_session",
    "AttackModel",
]
