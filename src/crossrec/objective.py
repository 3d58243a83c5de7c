"""Per-batch training objective: cross entropy over the full item space plus
the quantization loss where the VQ path is active.

A loss is taken over one ``TaskBatch``: one batch, or n same-shaped batches
on a leading task axis, each scored with its own encoder weights against its
own table. Both run the same code; one table is sliced where several are
gathered, and ``batch_loss`` alone gives one batch a scalar loss.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import EncoderConfig, embed_key, encode_steps, table_starts
from .vq import Codebook, quantize_domain_matrix


@dataclass(frozen=True)
class VQConfig:
    heads: int = 4

    def __post_init__(self):
        if self.heads < 1:
            raise ValueError(f"vq.heads must be >= 1, got {self.heads}")


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig
    vq: VQConfig | None = field(default_factory=VQConfig)  # None: no source quantized
    target_domain: str = "target"


def domain_item_matrix(params, domain, model_cfg, counts):
    """(item matrix with padding rows, vq loss term or None) for the tables of
    ``counts`` items that ``params[embed_key(domain)]`` holds one after
    another; the vq term holds one loss per table."""
    key = embed_key(domain)
    if key not in params:
        raise KeyError(f"unknown domain {domain!r}")
    if model_cfg.vq is None or domain == model_cfg.target_domain:
        return params[key], None
    book = Codebook(params[embed_key(model_cfg.target_domain)], model_cfg.vq.heads, counts)
    full, loss, _ = quantize_domain_matrix(params, domain, book)
    return full, loss


def item_rows(matrix, counts):
    """The item rows of ``matrix``, padding rows left out: (N, d) for one
    table, (n, N_max, d) for several, where the columns past a table's item
    count read its padding row."""
    if len(counts) == 1:  # one contiguous block: a slice is cheaper than a gather
        return ad.slice_axis(matrix, 0, 0, matrix.data.shape[0] - 1)
    return ad.gather(matrix, table_starts(counts)[:, None] + np.minimum(
        np.arange(max(counts)), np.asarray(counts)[:, None]))


def item_scores(hidden, items, counts):
    """Logits of ``items`` (from ``item_rows``) for (..., B, d) encoder
    outputs; -inf past a table's item count."""
    logits = ad.matmul(hidden, items, tb=True)
    if min(counts) < max(counts):
        past = np.arange(max(counts)) >= np.asarray(counts)[:, None, None]
        logits = ad.add(logits, Tensor(np.where(
            np.broadcast_to(past, logits.data.shape), -np.inf, 0.0)))
    return logits


def batch_loss(params, batch, model_cfg, include_vq=True):
    """Overall loss on a TaskBatch: cross entropy (+ vq term when
    applicable).

    Returns (loss tensor, dict of parts). The loss is a scalar for one batch
    and one value per task for a stack, a stack of one task included: the vq
    term holds one loss per table, and one batch's is reshaped to a scalar
    here. The parts are "ce" and, with a vq term, "vq", each a float for one
    batch and a list of per-task floats for a stack.
    """
    if batch.inputs.shape[-2] == 0:
        raise ValueError("batch_loss: empty batch")
    counts = batch.counts
    matrix, vq_term = domain_item_matrix(params, batch.domain_id, model_cfg, counts)
    rows = batch.inputs
    if len(counts) > 1:  # a stack's ids are local to each task's table
        rows = rows + table_starts(counts)[:, None, None]
    hidden = encode_steps(params, model_cfg.encoder, matrix, rows)
    # the item gather after the encoder's: the meta sweep adds a table's
    # gradient terms in tape order, and this order keeps them bit-identical
    ce = ad.cross_entropy(item_scores(hidden, item_rows(matrix, counts), counts),
                          batch.targets, counts if min(counts) < max(counts) else None)
    parts = {"ce": ce.data.tolist()}
    loss = ce
    if vq_term is not None:
        if batch.inputs.ndim == 2:  # one batch: its one table's loss as a scalar
            vq_term = ad.reshape(vq_term, ())
        parts["vq"] = vq_term.data.tolist()
        if include_vq:
            loss = ad.add(ce, vq_term)
    return loss, parts
