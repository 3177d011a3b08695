"""Toolkit for simulating and analysing two-way quantum secure direct communication.

The package covers the full stack of a ping-pong style QSDC link: the
four-state qubit and lossy-channel model, wiretap security analysis,
the spread-spectrum LDPC coding chain, the block protocol engine, and
attack/experiment harnesses with a command line front end.
"""
