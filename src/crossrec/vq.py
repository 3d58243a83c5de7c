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
        zs = z[:, i * d:(i + 1) * d]
        cs = book_rows[:, i * d:(i + 1) * d]
        zn = np.maximum(np.linalg.norm(zs, axis=1), COS_EPS)
        cn = np.maximum(np.linalg.norm(cs, axis=1), COS_EPS)
        sims = (zs @ cs.T) / (zn[:, None] * cn[None, :])
        codes[:, i] = np.argmax(sims, axis=1)  # argmax takes the lowest index on ties
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
    pull = ad.sum(ad.square(ad.sub(z_q, ad.stop_gradient(z_e))))
    commit = ad.sum(ad.square(ad.sub(ad.stop_gradient(z_q), z_e)))
    return ad.scale(ad.add(pull, commit), 1.0 / positions)


def straight_through(z_e, z_q):
    """Forward value exactly z_q; backward passes the gradient to z_e only."""
    if z_q.data.shape != z_e.data.shape:
        raise ValueError(f"straight_through: shape mismatch "
                         f"{z_e.data.shape} vs {z_q.data.shape}")
    return ad.primitive("straight_through", z_q.data.copy(), (z_e, z_q),
                        lambda g: (g, None))


def quantize_domain_matrix(params, domain, book):
    """Quantize every item row of a domain table.

    Returns (full matrix with raw padding row appended, vq loss term, codes).
    The returned matrix routes straight-through gradients to the domain table
    while the vq loss trains the codebook (target table) and the embeddings.
    """
    key = embed_key(domain)
    if key not in params:
        raise KeyError(f"unknown domain {domain!r}")
    table = params[key]
    n = table.data.shape[0] - 1
    raw = ad.slice_axis(table, 0, 0, n)
    z_q, codes = quantize_rows(raw, book)
    st = straight_through(raw, z_q)
    pad = ad.slice_axis(table, 0, n, n + 1)
    full = ad.concat([st, pad], 0)
    return full, vq_loss(z_q, raw), codes


def write_code_dump(fh, domain, codes):
    """Text lines "domain item_id c_1 ... c_H" for offline inspection."""
    for item_id, row in enumerate(codes):
        fh.write(" ".join([str(domain), str(item_id)] + [str(int(c)) for c in row]))
        fh.write("\n")
