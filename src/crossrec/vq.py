"""Multi-head vector quantization against a codebook aliased onto the target
domain embedding table.

The codebook is a *view*: head i, code j is the contiguous slice
``table[j][i*D:(i+1)*D]``. Quantization picks, per head, the code with highest
cosine similarity (lowest index on ties) and concatenates the chosen slices, so
every quantized head-slice is bit-identical to codebook content.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import embed_key

COS_EPS = 1e-12


@dataclass
class Codebook:
    table: Tensor  # target embedding table, padding row included
    heads: int
    size: int      # K = |I_target|, excludes the padding row

    @property
    def head_width(self):
        d = self.table.data.shape[1]
        if d % self.heads:
            raise ValueError(f"embedding width {d} not divisible by {self.heads} heads")
        return d // self.heads


def make_codebook(params, target_domain, heads):
    table = params[embed_key(target_domain)]
    return Codebook(table=table, heads=heads, size=table.data.shape[0] - 1)


def _head_codes(z, book):
    """Per-head nearest-code indices for rows of z (N, H*D); returns (N, H)."""
    h, d = book.heads, book.head_width
    codes = np.empty((z.shape[0], h), dtype=np.int64)
    book_rows = book.table.data[:book.size]
    for i in range(h):
        cs = book_rows[:, i * d:(i + 1) * d]
        # dividing a row by |z| > 0 would not move its argmax: normalize codes only
        unit = cs / np.maximum(np.linalg.norm(cs, axis=1, keepdims=True), COS_EPS)
        # argmax takes the lowest index on ties
        codes[:, i] = np.argmax(z[:, i * d:(i + 1) * d] @ unit.T, axis=1)
    return codes


def quantize_rows(rows, book):
    """Quantize each row of a (N, H*D) tensor; returns (z_q rows, codes array).

    z_q is differentiable into the codebook (and hence the target table); the
    discrete code choice itself carries no gradient.
    """
    if rows.data.shape[1] != book.heads * book.head_width:
        raise ValueError(f"quantize: width {rows.data.shape[1]} != "
                         f"{book.heads}x{book.head_width}")
    codes = _head_codes(rows.data, book)
    h, d = book.heads, book.head_width
    # head i of code j is row j*H + i of the table seen as (rows*H, D)
    slices = ad.reshape(book.table, (book.table.data.shape[0] * h, d))
    picked = ad.gather(slices, (codes * h + np.arange(h)).ravel())
    return ad.reshape(picked, (codes.shape[0], h * d)), codes


def vq_loss(z_q, z_e):
    """||z_q - sg[z_e]||^2 + ||sg[z_q] - z_e||^2, mean over quantized positions."""
    if z_q.data.shape != z_e.data.shape:
        raise ValueError(f"vq_loss: shape mismatch {z_q.data.shape} vs {z_e.data.shape}")
    positions = 1 if z_q.data.ndim == 1 else z_q.data.shape[0]
    # exactly z_q - z_e, but add's vjp records no dead scale for the constant
    pull = ad.sum(ad.square(ad.add(z_q, Tensor(-z_e.data))))
    commit = ad.sum(ad.square(ad.sub(ad.stop_gradient(z_q), z_e)))
    return ad.scale(ad.add(pull, commit), 1.0 / positions)


def quantize_domain_matrix(params, domain, book):
    """Quantize every item row of a domain table.

    Returns (full matrix with the raw padding row last, vq loss term, codes).
    The returned matrix routes straight-through gradients to the whole domain
    table while the vq loss trains the codebook (target table) and the embeddings.
    """
    key = embed_key(domain)
    if key not in params:
        raise KeyError(f"unknown domain {domain!r}")
    table = params[key]
    raw = ad.slice_axis(table, 0, 0, table.data.shape[0] - 1)
    z_q, codes = quantize_rows(raw, book)
    return ad.straight_through(table, z_q), vq_loss(z_q, raw), codes


def write_code_dump(fh, domain, codes):
    """Text lines "domain item_id c_1 ... c_H" for offline inspection."""
    for item_id, row in enumerate(codes):
        fh.write(" ".join([str(domain), str(item_id)] + [str(int(c)) for c in row]))
        fh.write("\n")
