"""Minimal sequential recommender: per-domain embedding tables feeding a
causal gated linear-recurrent encoder, scored against the full item space.

Parameters live in a flat name -> Tensor map; one ``embed.<domain>`` table per
domain (with a trailing padding row) plus per-block encoder weights.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

RMS_EPS = 1e-8


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int
    num_blocks: int = 1
    max_len: int = 12

    def __post_init__(self):
        for name in ("d_model", "num_blocks", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"encoder.{name} must be >= 1, got {getattr(self, name)}")


def embed_key(domain):
    return f"embed.{domain}"


def table_starts(counts):
    """First row of each table when tables of ``counts[i]`` items and a
    padding row lie one after another in one flat table."""
    return np.cumsum((0,) + tuple(c + 1 for c in counts[:-1]))


def init_parameters(cfg, item_counts, seed):
    """Fresh parameter map for encoder plus one table per domain.

    ``item_counts`` maps domain id -> |I|; each table gets one extra padding
    row. Weights are uniform(-1/sqrt(d), 1/sqrt(d)); decay logits start at 2.0
    so the recurrence gate opens near 0.88.
    """
    d = cfg.d_model
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d)
    params = {}
    for b in range(cfg.num_blocks):
        params[f"block{b}.w_in"] = Tensor(rng.uniform(-bound, bound, (d, d)))
        params[f"block{b}.decay"] = Tensor(np.full(d, 2.0))
        params[f"block{b}.ff_w1"] = Tensor(rng.uniform(-bound, bound, (d, d)))
        params[f"block{b}.ff_w2"] = Tensor(rng.uniform(-bound, bound, (d, d)))
        params[f"block{b}.norm_gain"] = Tensor(np.ones(d))
    for domain in sorted(item_counts):
        n = item_counts[domain]
        params[embed_key(domain)] = Tensor(rng.uniform(-bound, bound, (n + 1, d)))
    return params


def _rms_norm(y, gain):
    return ad.mul(ad.mul(y, ad.rms_inv(y, RMS_EPS)), gain)


def encode_steps(params, cfg, table, inputs):
    """Encode a (..., B, T) array of row indices into ``table``; returns the
    (..., B, d) output at the last position.

    Leading axes stack independent tasks, each with its own encoder weights:
    a weight then carries the same leading axes (vectors as (..., 1, d)). One
    gather lays the windows out position-major: row t*B + b holds position t
    of sequence b. Per block: h_t = sig(g) * h_{t-1} + (1 - sig(g)) * (W_in x_t)
    as one ``linear_scan`` over all positions, then a position-wise feed-forward
    with residual and RMS normalization. The last block runs the feed-forward
    on the last position only. Output at position t depends only on inputs at
    positions <= t.
    """
    *lead, batch, length = inputs.shape
    if length > cfg.max_len:
        raise ValueError(f"sequence length {length} exceeds max_len {cfg.max_len}")
    rows = batch * length
    x = ad.gather(table, inputs.swapaxes(-1, -2).reshape(tuple(lead) + (rows,)))
    for b in range(cfg.num_blocks):
        gate = ad.sigmoid(params[f"block{b}.decay"])
        inv_gate = ad.add_scalar(ad.scale(gate, -1.0), 1.0)
        drive = ad.mul(inv_gate, ad.matmul(x, params[f"block{b}.w_in"], tb=True))
        h = ad.linear_scan(drive, gate, length)
        if b == cfg.num_blocks - 1:
            h = ad.slice_axis(h, -2, rows - batch, rows)
            x = ad.slice_axis(x, -2, rows - batch, rows)
        ff = ad.matmul(ad.relu(ad.matmul(h, params[f"block{b}.ff_w1"], tb=True)),
                       params[f"block{b}.ff_w2"], tb=True)
        x = _rms_norm(ad.add(ff, x), params[f"block{b}.norm_gain"])
    return x
