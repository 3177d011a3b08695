"""Load and render protocol configurations as INI text.

The config dataclasses are the schema: each dataclass-typed field of
ProtocolConfig is a section of that dataclass's fields, and the other
fields of ProtocolConfig form [protocol].  Values parse by the fields'
annotations.  Missing sections and keys keep their defaults; unknown
ones are rejected so that typos fail loudly instead of silently
running the nominal setup.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import typing
from pathlib import Path

from qsdc.protocol import ProtocolConfig


def _scalar_fields(cls: type) -> dict[str, type]:
    hints = typing.get_type_hints(cls)
    return {
        f.name: hints[f.name]
        for f in dataclasses.fields(cls)
        if not dataclasses.is_dataclass(hints[f.name])
    }


def _section(name: str) -> tuple[str, type]:
    kind = typing.get_type_hints(ProtocolConfig)[name]
    return (name, kind) if dataclasses.is_dataclass(kind) else ("protocol", ProtocolConfig)


# section -> the dataclass whose scalar fields are its keys; [protocol]
# sits where ProtocolConfig's first scalar field does
_SECTIONS = dict(_section(f.name) for f in dataclasses.fields(ProtocolConfig))


def _parse_section(parser: configparser.ConfigParser, section: str) -> dict:
    known = _scalar_fields(_SECTIONS[section])
    out: dict = {}
    if not parser.has_section(section):
        return out
    for key, raw in parser.items(section):
        if key not in known:
            raise ValueError(f"unknown key '{key}' in section [{section}]")
        try:
            out[key] = known[key](raw)
        except ValueError:
            raise ValueError(
                f"[{section}] {key}: {raw!r} does not parse as {known[key].__name__}"
            ) from None
    return out


def parse_config(text: str) -> ProtocolConfig:
    """The config the INI text describes; ValueError for a bad one."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
        if parser.defaults():
            # sections() never lists [DEFAULT], whose keys leak into the others
            raise ValueError("unknown section [DEFAULT]")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ValueError(f"unknown section [{section}]")
        parsed = {section: _parse_section(parser, section) for section in _SECTIONS}
    except configparser.Error as exc:
        # a text that is not INI, or a % that starts no interpolation
        raise ValueError(f"malformed config: {exc}") from exc
    default = ProtocolConfig()
    kwargs: dict = {}
    for section, cls in _SECTIONS.items():
        values = parsed[section]
        if cls is ProtocolConfig:
            kwargs.update(values)
        elif values:
            kwargs[section] = dataclasses.replace(getattr(default, section), **values)
    return ProtocolConfig(**kwargs)


def load_config(path: str | Path) -> ProtocolConfig:
    return parse_config(Path(path).read_text())


def render_config(config: ProtocolConfig) -> str:
    parser = configparser.ConfigParser()
    for section, cls in _SECTIONS.items():
        obj = config if cls is ProtocolConfig else getattr(config, section)
        parser[section] = {k: str(getattr(obj, k)) for k in _scalar_fields(cls)}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
