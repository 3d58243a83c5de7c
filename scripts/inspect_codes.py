#!/usr/bin/env python3
"""Dump the multi-head codes assigned to every source item of a checkpoint.

Each output line is "domain item_id code_1 ... code_H". Useful for eyeballing
how source items share the target-aliased codebook. A summary goes to stderr,
one line per domain and head: the codes used out of K, the perplexity of the
code counts (exp of their entropy; K when every code is used equally), the
dead codes, which no item picked, and the smallest gap over the items between
the cosine of their best code and of their second best. That gap bounds how far
rounding in the code search's matmul may move a score before a code changes.
A checkpoint of a run without VQ (variant no_vq) is refused.

Example:
    python3 scripts/inspect_codes.py run/best.ckpt
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from crossrec.autodiff import Tensor
from crossrec.checkpoint import load_checkpoint
from crossrec.runconfig import parse_config, effective_model_config
from crossrec.train import load_manifest
from crossrec.vq import COS_EPS, Codebook, quantize_domain_matrix


def write_code_dump(fh, domain, codes):
    """Text lines "domain item_id c_1 ... c_H" for offline inspection."""
    for item_id, row in enumerate(codes):
        fh.write(" ".join([str(domain), str(item_id)] + [str(int(c)) for c in row]))
        fh.write("\n")


def unit_slices(rows, heads):
    """(N, H, D) head slices of (N, H*D) ``rows``, each scaled to unit length."""
    slices = rows.reshape(len(rows), heads, -1)
    return slices / np.maximum(np.linalg.norm(slices, axis=2, keepdims=True), COS_EPS)


def code_gaps(rows, book):
    """Per head: the smallest gap, over ``rows``, between the cosine of a
    row's best code and of its second best (nan for a codebook of one code)."""
    z = unit_slices(rows, book.heads)
    codes = unit_slices(book.table.data[:book.size], book.heads)
    gaps = []
    for head in range(book.heads):
        cos = z[:, head] @ codes[:, head].T
        if cos.shape[1] < 2:
            gaps.append(float("nan"))
            continue
        top = np.partition(cos, -2, axis=1)[:, -2:]
        gaps.append(float((top[:, 1] - top[:, 0]).min()))
    return gaps


def summarize(domain, codes, size, gaps):
    """Per head of ``codes`` (items, H): codes used, perplexity, dead codes
    and the smallest best-to-second cosine gap."""
    for head, (column, gap) in enumerate(zip(codes.T, gaps)):
        counts = np.bincount(column, minlength=size)
        p = counts[counts > 0] / len(column)
        used = len(p)
        perplexity = float(np.exp(-np.sum(p * np.log(p))))
        print(f"{domain} head {head}: {used}/{size} codes used, "
              f"perplexity {perplexity:.2f}, {size - used} dead, "
              f"smallest best-to-second cosine gap {gap:.3e}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkpoint")
    parser.add_argument("--out", default="-", help="output path ('-' = stdout)")
    args = parser.parse_args()

    tensors, config_text = load_checkpoint(args.checkpoint)
    cfg = parse_config(config_text)
    target = "target"  # the domain name the synthetic generator gives the target
    if cfg.data.manifest:
        target = next(d for d, role, _ in load_manifest(cfg.data.manifest)
                      if role == "target")
    model_cfg = effective_model_config(cfg, target)
    if not model_cfg.vq.enabled:
        sys.exit(f"{args.checkpoint}: variant {cfg.variant!r} quantizes nothing, "
                 f"so it has no codes to dump")
    params = {name: Tensor(arr) for name, arr in tensors.items()}
    fh = sys.stdout if args.out == "-" else open(args.out, "w")
    for name in sorted(params):
        if not name.startswith("embed.") or \
                name == f"embed.{model_cfg.target_domain}":
            continue
        domain = name.split(".", 1)[1]
        items = params[name].data.shape[0] - 1  # the padding row is not quantized
        book = Codebook(params[f"embed.{model_cfg.target_domain}"], model_cfg.vq.heads,
                        (items,))
        _, _, codes = quantize_domain_matrix(params, domain, book)
        write_code_dump(fh, domain, codes)
        summarize(domain, codes, book.size,
                  code_gaps(params[name].data[:items], book))
    if fh is not sys.stdout:
        fh.close()


if __name__ == "__main__":
    main()
