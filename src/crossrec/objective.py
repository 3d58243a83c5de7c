"""Per-batch training objective: cross entropy over the full item space plus
the quantization loss where the VQ path is active."""
from __future__ import annotations

from dataclasses import dataclass, field

from . import autodiff as ad
from .backbone import EncoderConfig, embed_key, encode_steps
from .vq import make_codebook, quantize_domain_matrix


@dataclass(frozen=True)
class VQConfig:
    enabled: bool = True
    heads: int = 4

    def __post_init__(self):
        if self.heads < 1:
            raise ValueError(f"vq.heads must be >= 1, got {self.heads}")


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig
    vq: VQConfig = field(default_factory=VQConfig)
    target_domain: str = "target"


def domain_item_matrix(params, domain, model_cfg):
    """(full item matrix with padding row, vq loss term or None) for a domain."""
    use_vq = model_cfg.vq.enabled and domain != model_cfg.target_domain
    if not use_vq:
        key = embed_key(domain)
        if key not in params:
            raise KeyError(f"unknown domain {domain!r}")
        return params[key], None
    book = make_codebook(params, model_cfg.target_domain, model_cfg.vq.heads)
    full, loss, _ = quantize_domain_matrix(params, domain, book)
    return full, loss


def batch_loss(params, batch, model_cfg, include_vq=True):
    """Overall loss on a TaskBatch: cross entropy (+ vq term when applicable).

    Returns (loss tensor, dict of float parts).
    """
    if batch.inputs.shape[0] == 0:
        raise ValueError("batch_loss: empty batch")
    matrix_full, vq_term = domain_item_matrix(params, batch.domain_id, model_cfg)
    item_count = matrix_full.data.shape[0] - 1
    last = encode_steps(params, model_cfg.encoder, matrix_full, batch.inputs)
    items = ad.slice_axis(matrix_full, 0, 0, item_count)
    ce = ad.cross_entropy(ad.matmul(last, items, tb=True), batch.targets)
    parts = {"ce": float(ce.data)}
    loss = ce
    if vq_term is not None:
        parts["vq"] = float(vq_term.data)
        if include_vq:
            loss = ad.add(ce, vq_term)
    return loss, parts
