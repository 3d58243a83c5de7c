"""Flat key=value run configuration (dotted keys; '#' starts a comment at the
start of a line or after whitespace)."""
from __future__ import annotations

import dataclasses
import re
import typing
from dataclasses import dataclass, field

from .backbone import EncoderConfig
from .data import SyntheticSpec, check_utf8, open_text
from .meta import MetaConfig
from .objective import ModelConfig, VQConfig

VARIANTS = ("full", "no_multihead_vq", "no_vq", "no_rescale", "no_meta")


@dataclass(frozen=True)
class DataConfig:
    manifest: str = ""  # path to a generated manifest; empty -> inline synthetic


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    iterations: int = 200
    eval_every: int = 50
    variant: str = "full"
    k: int = 10
    k_core: int = 5
    out_dir: str = ""
    data: DataConfig = field(default_factory=DataConfig)
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    encoder: EncoderConfig = field(default_factory=lambda: EncoderConfig(
        d_model=16, num_blocks=1, max_len=12))
    meta: MetaConfig = field(default_factory=MetaConfig)
    vq: VQConfig = field(default_factory=VQConfig)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name, low in (("seed", 0), ("iterations", 1), ("eval_every", 1), ("k", 1),
                          ("k_core", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        vq = effective_model_config(self).vq  # the heads this variant splits into
        if vq is not None and self.encoder.d_model % vq.heads:
            raise ValueError(f"encoder.d_model={self.encoder.d_model} not divisible "
                             f"by vq.heads={vq.heads}")


# key -> type of the top-level scalars, and section -> (key -> type): a field
# whose type is a dataclass is a section of that dataclass's fields
_HINTS = typing.get_type_hints(RunConfig)
_SECTIONS = {name: typing.get_type_hints(typ) for name, typ in _HINTS.items()
             if dataclasses.is_dataclass(typ)}
_SCALARS = {name: typ for name, typ in _HINTS.items() if name not in _SECTIONS}


def _parse_value(raw, typ):
    if typ is bool:
        low = raw.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"expected boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise ValueError(f"expected {typ.__name__}, got {raw!r}") from None


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text, **overrides):
    """Parse flat key=value text into a RunConfig, then ``dataclasses.replace``
    it with ``overrides``; unknown and repeated keys are rejected, and errors
    name the line (and the key, if one was read). A value out of range, for
    the text or after the overrides, names the line that set its key."""
    top, nested, seen = {}, {name: {} for name in _SECTIONS}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not line:
            continue
        where = f"config line {lineno}"
        if "=" not in line:
            raise ValueError(f"{where}: expected key=value, got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if "." in key:
            section, name = key.split(".", 1)
            if section not in _SECTIONS:
                raise ValueError(f"{where}: unknown section {section!r}")
            known, values = _SECTIONS[section], nested[section]
        else:
            name, known, values = key, _SCALARS, top
        if name not in known:
            raise ValueError(f"{where}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"{where}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        try:
            values[name] = _parse_value(raw, known[name])
        except ValueError as exc:
            raise ValueError(f"{where}: key {key!r}: {exc}") from None
    kwargs, defaults = dict(top), RunConfig()
    try:
        for section, values in nested.items():
            if values:
                kwargs[section] = dataclasses.replace(getattr(defaults, section), **values)
        return dataclasses.replace(RunConfig(**kwargs), **overrides)
    except ValueError as exc:  # a range error's message starts with its key
        key = re.match(r"[\w.]*", str(exc))[0]
        if key not in seen:
            raise
        raise ValueError(f"config line {seen[key]}: {exc}") from None


def load_config(path, **overrides):
    """``parse_config`` of a file; errors name the path. A byte that is not
    UTF-8 is reported ahead of any parse error."""
    with open_text(path) as fh:
        text = fh.read()
    for lineno, line in enumerate(text.split("\n"), start=1):
        check_utf8(path, lineno, line)
    try:
        return parse_config(text, **overrides)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def serialize_config(cfg):
    """Stable flat text form; parse(serialize(cfg)) == cfg."""
    lines = [f"{name}={_format_value(getattr(cfg, name))}" for name in _SCALARS]
    for section, keys in _SECTIONS.items():
        value = getattr(cfg, section)
        lines += [f"{section}.{key}={_format_value(getattr(value, key))}" for key in keys]
    lines.sort()
    return "\n".join(lines) + "\n"


def effective_model_config(cfg, target_domain="target"):
    """ModelConfig with the variant's VQ adjustments applied (no ``vq`` for
    ``no_vq``); the codebook aliases the table of ``target_domain``."""
    vq = None if cfg.variant == "no_vq" else cfg.vq
    if cfg.variant == "no_multihead_vq":
        vq = dataclasses.replace(vq, heads=1)
    return ModelConfig(encoder=cfg.encoder, vq=vq, target_domain=target_domain)
