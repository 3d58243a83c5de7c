import dataclasses
import importlib
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from crossrec import cli, train
from crossrec.autodiff import Tensor
from crossrec.backbone import embed_key
from crossrec.checkpoint import load_checkpoint, save_checkpoint
from crossrec.data import SyntheticSpec, load_interactions, leave_one_out_split
from crossrec.evaluation import metrics_from_rank
from crossrec.meta import MetaConfig, MetaIterationReport
from crossrec.runconfig import (DataConfig, RunConfig, VARIANTS, load_config,
                                parse_config,
                                serialize_config)
from crossrec.train import build_datasets, load_manifest, run_training
from crossrec.vq import Codebook, quantize_domain_matrix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL_CONFIG = """
iterations=6
eval_every=3
seed=3
synthetic.num_source_domains=2
synthetic.items_per_domain=12
synthetic.users_per_domain=40
synthetic.seq_len_min=4
synthetic.seq_len_max=6
encoder.d_model=8
encoder.max_len=6
vq.heads=2
meta.inner_steps=1
meta.inner_batch=4
meta.meta_batch=4
"""


def small_cfg(**over):
    return dataclasses.replace(parse_config(SMALL_CONFIG), **over)


def with_setting(setting):
    """SMALL_CONFIG with ``setting`` (key=value) in place of the key's own line:
    a repeated key is an error."""
    key = setting.split("=", 1)[0]
    kept = [l for l in SMALL_CONFIG.splitlines() if not l.startswith(key + "=")]
    return "\n".join(kept + [setting]) + "\n"


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ config

def test_config_round_trip_is_identity():
    cfg = small_cfg(variant="no_rescale", k=7, out_dir="x/y")
    assert parse_config(serialize_config(cfg)) == cfg
    assert parse_config(serialize_config(RunConfig())) == RunConfig()


def test_config_comments_and_errors():
    cfg = parse_config("# comment\nseed=9  # trailing\n\nmeta.inner_lr=0.05\n")
    assert cfg.seed == 9 and cfg.meta.inner_lr == 0.05
    # '#' inside a value is kept: a comment starts a line or follows whitespace
    cfg = parse_config("out_dir=runs#3\n  # indented comment\nseed=4\t# tab\n")
    assert cfg.out_dir == "runs#3" and cfg.seed == 4
    with pytest.raises(ValueError, match="line 1"):
        parse_config("no_equals_here\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("seedling=1\n")
    with pytest.raises(ValueError, match="unknown section"):
        parse_config("optimizer.lr=1\n")
    with pytest.raises(ValueError, match="variant"):
        parse_config("variant=everything\n")
    with pytest.raises(ValueError, match="boolean"):
        parse_config("meta.second_order=maybe\n")


@pytest.mark.parametrize("text,message", [
    ("seed=0\niterations=abc\n", "config line 2: key 'iterations': expected int, got 'abc'"),
    ("meta.inner_lr=fast\n", "config line 1: key 'meta.inner_lr': expected float, "
                              "got 'fast'"),
    ("\nmeta.second_order=maybe\n", "config line 2: key 'meta.second_order': "
                                    "expected boolean, got 'maybe'"),
    ("seed=1\n# again\nseed=2\n", "config line 3: key 'seed' already set on line 1"),
    ("vq.heads=2\nvq.heads=2\n", "config line 2: key 'vq.heads' already set on line 1"),
], ids=["bad_int", "bad_float", "bad_bool", "repeated_key", "repeated_dotted_key"])
def test_config_errors_name_line_and_key(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config(text)


def test_variant_divisibility_validation():
    with pytest.raises(ValueError, match="config line 1: encoder.d_model=10 not divisible"):
        parse_config("encoder.d_model=10\nvq.heads=4\n")
    # the message's leading key was not set in the text: no line to name
    with pytest.raises(ValueError, match="^encoder.d_model=16 not divisible"):
        parse_config("vq.heads=5\n")


@pytest.mark.parametrize("variant", ["no_vq", "no_multihead_vq"])
def test_divisibility_checks_the_heads_the_variant_uses(tmp_path, capsys, variant):
    # neither variant splits d_model into vq.heads=4 heads, so both train
    text = SMALL_CONFIG.replace("iterations=6", "iterations=2").replace(
        "encoder.d_model=8", "encoder.d_model=10").replace("vq.heads=2", "vq.heads=4")
    text += f"variant={variant}\n"
    assert run_training(parse_config(text)).csv_rows
    full = text.replace(f"variant={variant}", "variant=full")
    line = full.splitlines().index("encoder.d_model=10") + 1
    with pytest.raises(ValueError, match=f"^config line {line}: encoder.d_model=10 "
                                         f"not divisible by vq.heads=4$"):
        parse_config(full)
    # the ablation also runs full
    argv = ["ablate", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: encoder.d_model=10 not divisible by vq.heads=4\n"


@pytest.mark.parametrize("setting", [
    "eval_every=0", "k=0", "k_core=0", "iterations=-1", "iterations=0",
    "meta.n_tasks=0", "meta.inner_steps=0", "meta.inner_batch=0",
    "meta.meta_batch=0", "encoder.max_len=0", "vq.heads=0", "vq.heads=-2",
])
def test_out_of_range_config_is_one_line_error_before_training(tmp_path, capsys,
                                                               setting):
    text = with_setting(setting)
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["train", "--config", cfg_path, "--out", str(out)]) == 2
    key, value = setting.split("=")
    line = text.splitlines().index(setting) + 1
    assert capsys.readouterr().err == (f"error: {cfg_path}: config line {line}: "
                                       f"{key} must be >= 1, got {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("setting,message", [
    ("synthetic.users_per_domain=0", "synthetic.users_per_domain must be >= 1, got 0"),
    ("synthetic.num_source_domains=0", "synthetic.num_source_domains must be >= 1, got 0"),
    ("synthetic.items_per_domain=0", "synthetic.items_per_domain must be >= 1, got 0"),
    ("synthetic.seq_len_min=3", "synthetic.seq_len_min must be >= 4, got 3"),
    ("synthetic.seq_len_max=3",
     "synthetic.seq_len_max must be >= synthetic.seq_len_min=4, got 3"),
    ("synthetic.rho=1.5", "synthetic.rho must be in [0, 1], got 1.5"),
    ("synthetic.rho=-0.1", "synthetic.rho must be in [0, 1], got -0.1"),
    ("synthetic.seed=-3", "synthetic.seed must be >= 0, got -3"),
    ("synthetic.items_per_domain=4294967296",
     "synthetic.items_per_domain must be <= 4294967295, got 4294967296"),
    ("synthetic.seq_len_max=4294967299", "synthetic.seq_len_max - "
     "synthetic.seq_len_min + 1 must be <= 4294967295, got 4294967296"),
])
@pytest.mark.parametrize("command", ["train", "generate"])
def test_bad_synthetic_spec_is_one_line_error_before_any_data(tmp_path, capsys,
                                                              command, setting,
                                                              message):
    text = with_setting(setting)
    cfg_path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 2
    line = text.splitlines().index(setting) + 1
    assert capsys.readouterr().err == \
        f"error: {cfg_path}: config line {line}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "generate"])
def test_negative_seed_is_one_line_error_before_any_data(tmp_path, capsys, command):
    # a negative seed would reach numpy's default_rng: it is a config error,
    # whether the config file or the --seed flag sets it
    text = with_setting("seed=-1")
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, text), "--out", str(out)]
    assert cli.main(argv) == 2
    line = text.splitlines().index("seed=-1") + 1
    assert capsys.readouterr().err == \
        f"error: {argv[2]}: config line {line}: seed must be >= 0, got -1\n"
    argv[2] = write_config(tmp_path, SMALL_CONFIG, "good.cfg")
    assert cli.main(argv + ["--seed", "-2"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -2\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["inner_lr", "outer_lr", "temperature"])
def test_non_finite_meta_float_rejected(key, value):
    # a non-finite step size or temperature would only surface as a
    # non-finite loss at the first iteration
    message = f"meta.{key} must be finite, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MetaConfig(**{key: float(value)})
    with pytest.raises(ValueError, match=f"^config line 2: {re.escape(message)}$"):
        parse_config(f"seed=1\nmeta.{key}={value}\n")


def test_config_bad_byte_is_named_before_a_parse_error(tmp_path):
    # the whole config is checked for bytes that are not UTF-8 before it is
    # parsed, so a byte on line 3 is named ahead of a bad line 1
    path = tmp_path / "run.cfg"
    path.write_bytes(b"bogus line\nseed=1\nout_dir=caf\xe9\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: not UTF-8 text$"):
        load_config(str(path))


# ---------------------------------------------------------------- generate

def test_generate_files_and_round_trip(tmp_path):
    out = str(tmp_path / "data")
    rc = cli.main(["generate", "--config",
                   write_config(tmp_path, SMALL_CONFIG), "--out", out])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert names == ["manifest.tsv", "src0.tsv", "src1.tsv", "target.tsv"]
    rows = load_manifest(os.path.join(out, "manifest.tsv"))
    assert [r[0] for r in rows] == ["src0", "src1", "target"]
    assert [r[1] for r in rows] == ["source", "source", "target"]
    # TSVs round-trip into the same splits as the in-memory generation
    cfg = small_cfg()
    direct_sources, direct_target = build_datasets(cfg)
    for domain, _, path in rows:
        parsed = leave_one_out_split(domain, load_interactions(path)[domain])
        ref = direct_target if domain == "target" else \
            direct_sources[int(domain[-1])]
        assert (parsed.items.tolist(), parsed.offsets.tolist()) == \
            (ref.items.tolist(), ref.offsets.tolist())


def test_generate_byte_identical_reruns(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    outs = [str(tmp_path / n) for n in ("a", "b")]
    for out in outs:
        cli.main(["generate", "--config", cfg_path, "--out", out])
    for name in os.listdir(outs[0]):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, name


def test_generate_seed_flag_sets_the_synthetic_seed(tmp_path):
    # --seed S writes the world of synthetic.seed=S, whatever the config says
    def generated(name, argv, text=SMALL_CONFIG):
        out = tmp_path / name
        cli.main(["generate", "--config", write_config(tmp_path, text, f"{name}.cfg"),
                  "--out", str(out)] + argv)
        return {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
    flag = generated("flag", ["--seed", "11"])
    assert flag == generated("key", [], with_setting("synthetic.seed=11"))
    assert flag != generated("other", ["--seed", "12"])
    assert b"seed=11" in flag["manifest.tsv"].splitlines()[0]


def test_eval_takes_no_seed_flag(tmp_path, capsys):
    # evaluation draws nothing: a --seed flag is a usage error, not ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--checkpoint", str(tmp_path / "best.ckpt"), "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


# ------------------------------------------------------------------- train

def test_train_outputs_and_determinism(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    out = str(tmp_path / "run")
    csvs, ckpts = [], []
    for _ in range(2):  # identical config including --out; second run overwrites
        assert cli.main(["train", "--config", cfg_path, "--out", out]) == 0
        csvs.append(open(os.path.join(out, "metrics.csv"), "rb").read())
        ckpts.append(open(os.path.join(out, "best.ckpt"), "rb").read())
    assert csvs[0] == csvs[1]
    assert ckpts[0] == ckpts[1]
    lines = csvs[0].decode().strip().split("\n")
    assert lines[0] == "type,iteration,loss,task_losses,mean_max_weight,ndcg,recall,mrr"
    iters = [l for l in lines if l.startswith("iter,")]
    evals = [l for l in lines if l.startswith("eval,")]
    assert len(iters) == 6 and len(evals) == 2  # evals at 3 and 6


THREADS_RUN = """
import hashlib
from crossrec.runconfig import parse_config
from crossrec.train import run_training
result = run_training(parse_config(
    "variant=full\\niterations=2\\neval_every=2\\n"
    "synthetic.items_per_domain=1024\\nsynthetic.users_per_domain=200\\n"))
params = hashlib.sha256()
for name in sorted(result.final_params):
    params.update(result.final_params[name].data.tobytes())
print("\\n".join(result.csv_rows))
print(params.hexdigest())
"""


# evaluate on an eval-wide-shaped target, with a digest of every score array
# that reaches rank_of_truth, then the code search's codes at N = K = 2048 and
# at N = 300, K = 16384, where each block is one row, which numpy scores by gemv
THREADS_EVAL = """
import hashlib
import numpy as np
from crossrec import evaluation, vq
from crossrec.autodiff import Tensor
from crossrec.backbone import init_parameters
from crossrec.runconfig import effective_model_config, parse_config
from crossrec.train import build_datasets
scores, rank = hashlib.sha256(), evaluation.rank_of_truth
def hashed_rank(s, truths):
    scores.update(s.tobytes())
    return rank(s, truths)
evaluation.rank_of_truth = hashed_rank
cfg = parse_config("synthetic.num_source_domains=1\\nsynthetic.users_per_domain=20000\\n"
                   "synthetic.items_per_domain=1024\\n")
sources, target = build_datasets(cfg)
params = init_parameters(cfg.encoder, {d.domain_id: d.item_count
                                       for d in sources + [target]}, cfg.seed)
for split in ("val", "test"):
    print(evaluation.evaluate(params, target, split, cfg.k, effective_model_config(cfg)))
print(target.num_users, target.item_count, scores.hexdigest())
rng = np.random.default_rng(0)
for n, k in ((2048, 2048), (300, 16384)):
    book = vq.Codebook(Tensor(rng.standard_normal((k + 1, 16))), 4, (n,))
    codes = vq._head_codes(rng.standard_normal((n, 16)), book)
    print(n, k, hashlib.sha256(codes.tobytes()).hexdigest())
"""


def outputs_under_blas_threads(code):
    """The stdout of ``code`` in a fresh interpreter under 1 and under 2
    OpenBLAS threads."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src,
                                "OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n}).stdout
            for n in ("1", "2")]


def test_training_bytes_do_not_depend_on_the_blas_thread_count():
    # at 1024 items a layer holds enough entries for OpenBLAS to split a
    # reduction over threads, which would round differently under 2 threads
    outs = outputs_under_blas_threads(THREADS_RUN)
    assert outs[0].count("\n") == 5  # header, 2 iterations, 1 eval, parameter digest
    assert outs[0] == outs[1]


def test_eval_and_code_search_bytes_do_not_depend_on_the_blas_thread_count():
    # the matrix products training does not reach: evaluate's scores and the
    # code search, at catalog sizes
    outs = outputs_under_blas_threads(THREADS_EVAL)
    lines = outs[0].splitlines()
    assert len(lines) == 5 and lines[2].startswith("2000 1024 ")
    assert all(line.startswith("EvalResult(") for line in lines[:2])
    assert outs[0] == outs[1]


def test_no_meta_reports_carry_the_loss_and_rows_keep_eight_fields(iteration_reports):
    result = run_training(small_cfg(variant="no_meta"))
    reports = iteration_reports["joint"]
    assert len(reports) == 6 and not iteration_reports["rescaled"]
    iters = [l for l in result.csv_rows if l.startswith("iter,")]
    for it, (row, report) in enumerate(zip(iters, reports), start=1):
        assert isinstance(report, MetaIterationReport)
        assert report.tasks == [] and report.layer_weights == {}
        assert row == f"iter,{it},{report.overall_loss!r},,,,,"


def test_train_seed_flag_overrides_config(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    cli.main(["train", "--config", cfg_path, "--out", out1, "--seed", "11"])
    cli.main(["train", "--config", cfg_path, "--out", out2])
    _, text1 = load_checkpoint(os.path.join(out1, "best.ckpt"))
    _, text2 = load_checkpoint(os.path.join(out2, "best.ckpt"))
    assert "seed=11" in text1.splitlines()
    assert "seed=3" in text2.splitlines()


def test_best_checkpoint_keeps_earliest_on_tie():
    cfg = small_cfg(iterations=2, eval_every=1)
    cfg = dataclasses.replace(cfg, meta=dataclasses.replace(
        cfg.meta, inner_lr=0.0, outer_lr=0.0))  # frozen model: all evals tie
    result = run_training(cfg)
    assert result.best_iteration == 1


@pytest.mark.parametrize("variant", ["full", "no_meta"])
def test_non_finite_training_stops_with_names(variant):
    cfg = small_cfg(variant=variant)
    cfg = dataclasses.replace(cfg, meta=dataclasses.replace(cfg.meta, outer_lr=1e300))
    with pytest.raises(FloatingPointError) as info, np.errstate(all="ignore"):
        run_training(cfg)
    message = str(info.value)
    assert message.startswith("iteration ")
    assert re.search(r"first non-finite layer (block0|embed)\.", message)
    if variant == "full":
        assert "tasks from source domains src" in message


# -------------------------------------------------------------------- eval

def trained_run(tmp_path):
    out = str(tmp_path / "run")
    cli.main(["train", "--config", write_config(tmp_path, SMALL_CONFIG),
              "--out", out])
    return out


def test_eval_reproduces_logged_best_validation_ndcg(tmp_path):
    out = trained_run(tmp_path)
    rc = cli.main(["eval", "--checkpoint", os.path.join(out, "best.ckpt"),
                   "--split", "val", "--out", out])
    assert rc == 0
    eval_rows = dict(
        line.split(",") for line in
        open(os.path.join(out, "eval.csv")).read().strip().split("\n")[1:])
    logged = [float(l.split(",")[5]) for l in
              open(os.path.join(out, "metrics.csv")).read().strip().split("\n")
              if l.startswith("eval,")]
    assert float(eval_rows["ndcg@10"]) == max(logged)


def test_inspect_codes_dumps_every_source_item(tmp_path):
    # one "domain item code_1 .. code_H" line per source item, with the codes
    # quantize_domain_matrix gives that item in the trained checkpoint
    ckpt = os.path.join(trained_run(tmp_path), "best.ckpt")
    dump = tmp_path / "codes.txt"
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "inspect_codes.py"),
                           ckpt, "--out", str(dump)], check=True, capture_output=True,
                          text=True, timeout=120)
    tensors, config_text = load_checkpoint(ckpt)
    params = {k: Tensor(v) for k, v in tensors.items()}
    heads = parse_config(config_text).vq.heads
    sources, _ = build_datasets(small_cfg())
    want, summary = [], []
    for ds in sources:
        book = Codebook(params[embed_key("target")], heads, (ds.item_count,))
        codes = quantize_domain_matrix(params, ds.domain_id, book)[2]
        assert codes.shape == (ds.item_count, heads)
        want += [" ".join([ds.domain_id, str(i)] + [str(c) for c in row])
                 for i, row in enumerate(codes.tolist())]
        # per head: codes used of K, exp(entropy) of the code counts, dead
        # codes, and the least margin of an item's code over its runner-up
        rows = params[embed_key(ds.domain_id)].data[:-1]
        d = rows.shape[1] // heads
        for h in range(heads):
            counts = np.bincount(codes[:, h], minlength=book.size)
            p = counts[counts > 0] / ds.item_count
            used = int(np.count_nonzero(counts))
            z, c = rows[:, h * d:(h + 1) * d], book.table.data[:book.size, h * d:(h + 1) * d]
            cos = np.sort((z @ c.T) / np.outer(np.linalg.norm(z, axis=1),
                                               np.linalg.norm(c, axis=1)), axis=1)
            summary.append((f"{ds.domain_id} head {h}: {used}/{book.size} codes used, "
                            f"perplexity {np.exp(-np.sum(p * np.log(p))):.2f}, "
                            f"{book.size - used} dead", (cos[:, -1] - cos[:, -2]).min()))
    assert dump.read_text().splitlines() == want
    got = [line.split(", smallest best-to-second cosine gap ")
           for line in proc.stderr.splitlines()]
    assert [text for text, _ in got] == [text for text, _ in summary]
    assert [float(gap) for _, gap in got] == \
        pytest.approx([gap for _, gap in summary], rel=1e-3)


def test_inspect_codes_refuses_a_run_without_vq(tmp_path):
    # a no_vq run quantized nothing: one line names the checkpoint and the
    # variant, and no dump is written
    out = str(tmp_path / "run")
    cli.main(["train", "--config", write_config(tmp_path, SMALL_CONFIG + "variant=no_vq\n"),
              "--out", out])
    ckpt, dump = os.path.join(out, "best.ckpt"), tmp_path / "codes.txt"
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "inspect_codes.py"),
                           ckpt, "--out", str(dump)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"{ckpt}: variant 'no_vq' quantizes nothing, so it has no codes to dump\n"
    assert not dump.exists()


def test_random_ranking_reference_is_the_mean_over_ranks(monkeypatch):
    # the transfer script's closed form equals the mean NDCG@k over the n
    # equally likely ranks of the one relevant item
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    script = importlib.import_module("run_transfer_experiment")
    for k, n in [(10, 64), (10, 7), (1, 1), (5, 1024)]:
        assert script.random_ndcg(k, n) == pytest.approx(
            metrics_from_rank(np.arange(1, n + 1), k)[0].mean(), rel=1e-12)
    assert round(script.random_ndcg(10, 64), 4) == 0.0710  # the default target


def test_contract_hashes_prints_one_line_per_run():
    # 18 runs: the 5 variants, 3 more inner-step counts, 2 variants at 2 task
    # counts, 4 single settings and 2 more no_meta worlds; then one line of
    # evaluate results, one of single-batch meta-gradients, one of dataset
    # digests per workload-shaped world and one of the TSV-read datasets
    proc = subprocess.run([sys.executable,
                           os.path.join(ROOT, "scripts", "contract_hashes.py")],
                          check=True, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    assert len(lines) == 24
    hashes = r"[\w .=]+: csv=[0-9a-f]{16} final=[0-9a-f]{16} best=[0-9a-f]{16}"
    assert all(re.fullmatch(hashes, line) for line in lines[:18])
    assert len({line.split(":")[0] for line in lines[:18]}) == 18
    assert lines[18].startswith("evaluate 4000 users: EvalResult(")
    assert re.fullmatch(r"single batch: s1=[0-9a-f]{16} s2=[0-9a-f]{16} "
                        r"s3=[0-9a-f]{16} s4=[0-9a-f]{16}", lines[19])
    worlds = r"data ([\w-]+): (?:\w+=[0-9a-f]{16} )+events=[0-9a-f]{16}"
    assert [re.fullmatch(worlds, line)[1] for line in lines[20:23]] == \
        ["meta-default", "meta-deep-wide", "eval-wide"]
    digests = r"(?: \w+=[0-9a-f]{16})+"
    assert re.fullmatch(rf"tsv joint-default:{digests} shared:{digests}", lines[23])


def test_eval_k_override(tmp_path):
    out = trained_run(tmp_path)
    rc = cli.main(["eval", "--checkpoint", os.path.join(out, "best.ckpt"),
                   "--k", "5", "--out", out])
    assert rc == 0
    text = open(os.path.join(out, "eval.csv")).read()
    assert "ndcg@5," in text and "recall@5," in text


def test_eval_corrupt_checkpoint_fails_cleanly(tmp_path, capsys):
    out = trained_run(tmp_path)
    good = os.path.join(out, "best.ckpt")
    bad = os.path.join(out, "bad.ckpt")
    raw = open(good, "rb").read()
    open(bad, "wb").write(b"NOPE!" + raw[5:])
    assert cli.main(["eval", "--checkpoint", bad]) == 2
    assert "error" in capsys.readouterr().err
    trunc = os.path.join(out, "trunc.ckpt")
    open(trunc, "wb").write(raw[: len(raw) // 3])
    assert cli.main(["eval", "--checkpoint", trunc]) == 2
    # a dimension corrupted to 2**31 - 1: rejected before any read of that size
    dims = os.path.join(out, "dims.ckpt")
    tensors, _ = load_checkpoint(good)
    first = next(iter(tensors))
    offset = 5 + 4 + 4 + len(first.encode()) + 4
    assert raw[offset:offset + 4] == struct.pack("<I", tensors[first].shape[0])
    open(dims, "wb").write(raw[:offset] + struct.pack("<I", 2**31 - 1)
                           + raw[offset + 4:])
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", dims]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dims}: truncated checkpoint while reading "
                          f"data of {first}") and err.count("\n") == 1


def test_eval_k_below_one_rejected(tmp_path, capsys):
    out = trained_run(tmp_path)
    assert cli.main(["eval", "--checkpoint", os.path.join(out, "best.ckpt"),
                     "--k", "0"]) == 2
    assert capsys.readouterr().err == "error: --k must be >= 1, got 0\n"


def test_eval_mismatched_config_rejected(tmp_path, capsys):
    out = trained_run(tmp_path)
    bigger = SMALL_CONFIG.replace("encoder.d_model=8", "encoder.d_model=16")
    rc = cli.main(["eval", "--checkpoint", os.path.join(out, "best.ckpt"),
                   "--config", write_config(tmp_path, bigger, "big.cfg")])
    assert rc == 2
    assert "d_model" in capsys.readouterr().err


def test_eval_old_checkpoint_config_needs_config_flag(tmp_path, capsys):
    out = trained_run(tmp_path)
    tensors, text = load_checkpoint(os.path.join(out, "best.ckpt"))
    old = os.path.join(out, "old.ckpt")
    save_checkpoint(old, tensors, text + "train.parallel=false\n")
    assert cli.main(["eval", "--checkpoint", old]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {old}: embedded config: ") and "'train'" in err
    # --config replaces the embedded config, which is then not parsed at all
    assert cli.main(["eval", "--checkpoint", old, "--out", out, "--config",
                     write_config(tmp_path, SMALL_CONFIG)]) == 0


@pytest.mark.parametrize("edit,name", [
    (lambda t: t.pop("block0.ff_w1"), "block0.ff_w1"),
    (lambda t: t.update(extra=np.ones(3)), "extra"),
    (lambda t: t.update({"embed.src0": t["embed.src0"][:-1]}), "embed.src0"),
], ids=["missing", "unexpected", "wrong_shape"])
def test_eval_checks_every_tensor_name_and_shape(tmp_path, capsys, edit, name):
    out = trained_run(tmp_path)
    tensors, text = load_checkpoint(os.path.join(out, "best.ckpt"))
    edit(tensors)
    path = os.path.join(out, "edited.ckpt")
    save_checkpoint(path, tensors, text)
    assert cli.main(["eval", "--checkpoint", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: tensor {name!r}: ") and "d_model=8" in err


# ------------------------------------------------------------------ ablate

def test_ablate_table_and_uniform_weights(tmp_path, iteration_reports):
    cfg_text = SMALL_CONFIG.replace("iterations=6", "iterations=4")
    out = str(tmp_path / "abl")
    rc = cli.main(["ablate", "--config", write_config(tmp_path, cfg_text),
                   "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "ablation.csv")).read().strip().split("\n")
    assert lines[0].startswith("#") and "seed=3" in lines[0]
    assert lines[1] == "variant,ndcg@10,recall@10,mrr"
    assert [l.split(",")[0] for l in lines[2:]] == list(VARIANTS)
    for variant in VARIANTS:
        assert os.path.exists(os.path.join(out, f"{variant}.ckpt"))
    # the ablation's no_rescale run logs exactly uniform weights in every iteration
    n = parse_config(cfg_text).meta.n_tasks
    assert len(iteration_reports["uniform"]) == 4
    for report in iteration_reports["uniform"]:
        for w in report.layer_weights.values():
            assert w == [1.0 / n] * n


def test_ablate_full_row_matches_separate_train(tmp_path):
    cfg_text = SMALL_CONFIG.replace("iterations=6", "iterations=4")
    cfg = parse_config(cfg_text)
    from crossrec.train import run_ablation
    results = run_ablation(cfg)
    solo = run_training(dataclasses.replace(cfg, variant="full"),
                        datasets=build_datasets(cfg))
    abl_full = results["full"][0]
    assert abl_full.csv_rows == solo.csv_rows
    for k in solo.best_params:
        assert np.array_equal(abl_full.best_params[k], solo.best_params[k])


# --------------------------------------------------------------- manifests

def test_train_from_generated_manifest(tmp_path):
    data_out = str(tmp_path / "data")
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    cli.main(["generate", "--config", cfg_path, "--out", data_out])
    manifest_cfg = SMALL_CONFIG + \
        f"data.manifest={os.path.join(data_out, 'manifest.tsv')}\nk_core=1\n"
    out = str(tmp_path / "mrun")
    rc = cli.main(["train", "--config",
                   write_config(tmp_path, manifest_cfg, "m.cfg"),
                   "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "metrics.csv"))


def generated_data(tmp_path):
    data_out = tmp_path / "data"
    cli.main(["generate", "--config", write_config(tmp_path, SMALL_CONFIG),
              "--out", str(data_out)])
    return data_out


def test_target_domain_takes_any_name(tmp_path):
    data_out = generated_data(tmp_path)
    text = (data_out / "target.tsv").read_text()
    (data_out / "books.tsv").write_text(re.sub(r"^target\t", "books\t", text, flags=re.M))
    manifest = data_out / "manifest.tsv"
    manifest.write_text(manifest.read_text().replace(
        "target\ttarget\ttarget.tsv", "books\ttarget\tbooks.tsv"))
    cfg_path = write_config(tmp_path, SMALL_CONFIG + f"data.manifest={manifest}\n"
                            "k_core=1\n", "books.cfg")
    out = str(tmp_path / "brun")
    assert cli.main(["train", "--config", cfg_path, "--out", out]) == 0
    assert cli.main(["eval", "--checkpoint", os.path.join(out, "best.ckpt"),
                     "--split", "val", "--out", out]) == 0
    tensors, _ = load_checkpoint(os.path.join(out, "best.ckpt"))
    assert "embed.books" in tensors and "embed.target" not in tensors
    logged = [float(l.split(",")[5]) for l in
              open(os.path.join(out, "metrics.csv")).read().split("\n")
              if l.startswith("eval,")]
    evaluated = open(os.path.join(out, "eval.csv")).read().split("\n")[1]
    assert float(evaluated.split(",")[1]) == max(logged)


SOURCE_ROW = "src0\tsource\tsrc0.tsv\n"
TARGET_ROW = "target\ttarget\ttarget.tsv\n"


@pytest.mark.parametrize("text,line,message", [
    ("# comment\n" + SOURCE_ROW + "target\ttarget\n", 3, "expected 3 tab-separated"),
    (SOURCE_ROW + "target\ttarget\ttarget.tsv\textra\n", 2, "expected 3 tab-separated"),
    ("src0\tsorce\tsrc0.tsv\n" + TARGET_ROW, 1, "role must be 'source' or 'target'"),
    (SOURCE_ROW + TARGET_ROW + "src0\tsource\tother.tsv\n", 3,
     "domain 'src0' already listed on line 1"),
    (TARGET_ROW + SOURCE_ROW + "t2\ttarget\tt2.tsv\n", 3,
     "second target row, the first is on line 1"),
], ids=["too_few_fields", "too_many_fields", "bad_role", "duplicate_domain",
        "two_targets"])
def test_manifest_bad_row_rejected_with_line(tmp_path, text, line, message):
    path = tmp_path / "manifest.tsv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {message}")):
        load_manifest(str(path))


def test_manifest_names_a_malformed_line_ahead_of_a_bad_byte(tmp_path):
    # each line is checked for bytes that are not UTF-8 as it is read, so a
    # short line 2 is named ahead of the byte 0xff on line 3
    path = tmp_path / "manifest.tsv"
    path.write_bytes(SOURCE_ROW.encode() + b"target\ttarget\ns\xff\tsource\ts.tsv\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: expected 3 tab-separated fields, got 2")):
        load_manifest(str(path))


def test_manifest_without_target_rejected(tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text(SOURCE_ROW + "src1\tsource\tsrc1.tsv\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: no row has role 'target'")):
        load_manifest(str(path))


def test_domain_emptied_by_k_core_rejected_at_load(tmp_path):
    src = [f"src0\tu{u}\ti{i}\t{u * 10 + i}" for u in range(2) for i in range(4)]
    (tmp_path / "src0.tsv").write_text("\n".join(src) + "\n")
    # every target user has fewer than k_core interactions
    (tmp_path / "target.tsv").write_text("target\tu0\ti0\t1\ntarget\tu1\ti1\t2\n")
    (tmp_path / "manifest.tsv").write_text(SOURCE_ROW + TARGET_ROW)
    cfg = small_cfg(data=DataConfig(manifest=str(tmp_path / "manifest.tsv")), k_core=2)
    target_tsv = os.path.join(str(tmp_path), "target.tsv")
    with pytest.raises(ValueError, match=re.escape(
            f"{target_tsv}: domain 'target' has no users left after k-core "
            f"filtering with k_core=2")):
        build_datasets(cfg)


def test_shared_tsv_is_parsed_once(tmp_path, monkeypatch):
    rows = [f"{d}\tu{u}\ti{(u + t) % 5}\t{t}" for d in ("src0", "target")
            for u in range(6) for t in range(5)]
    (tmp_path / "both.tsv").write_text("\n".join(rows) + "\n")
    (tmp_path / "manifest.tsv").write_text("src0\tsource\tboth.tsv\n"
                                           "target\ttarget\tboth.tsv\n")
    calls = []

    def counted(path):
        calls.append(path)
        return load_interactions(path)

    monkeypatch.setattr(train, "load_interactions", counted)
    cfg = small_cfg(data=DataConfig(manifest=str(tmp_path / "manifest.tsv")), k_core=1)
    (source,), target = build_datasets(cfg)
    assert len(calls) == 1
    parsed = load_interactions(str(tmp_path / "both.tsv"))
    for ds in (source, target):
        want = leave_one_out_split(ds.domain_id, parsed[ds.domain_id])
        assert (ds.item_count, ds.items.tolist(), ds.offsets.tolist()) == \
            (want.item_count, want.items.tolist(), want.offsets.tolist())


def test_manifest_domain_without_rows_is_one_line_error(tmp_path, capsys):
    data_out = generated_data(tmp_path)
    manifest = data_out / "manifest.tsv"
    manifest.write_text(manifest.read_text().replace(
        "target\ttarget\ttarget.tsv", "books\ttarget\ttarget.tsv"))
    cfg_path = write_config(tmp_path, SMALL_CONFIG + f"data.manifest={manifest}\n"
                            "k_core=1\n", "books.cfg")
    assert cli.main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {data_out / 'target.tsv'}: no rows for domain 'books'; "
        f"the file has domains ['target']\n")


@pytest.mark.parametrize("reader", ["config", "manifest", "tsv"])
def test_non_utf8_input_names_file_and_line(tmp_path, capsys, reader):
    data_out = generated_data(tmp_path)
    cfg_path = write_config(tmp_path, SMALL_CONFIG +
                            f"data.manifest={data_out / 'manifest.tsv'}\n")
    path = {"config": cfg_path, "manifest": data_out / "manifest.tsv",
            "tsv": data_out / "target.tsv"}[reader]
    lines = open(path, "rb").read().splitlines()
    # lines 1 and 2 end in \r\n and a lone \r; line 3 holds a Latin-1 byte
    with open(path, "wb") as fh:
        fh.write(b"\r\n".join(lines[:2]) + b"\r# caf\xe9\n" + b"\n".join(lines[2:]) + b"\n")
    argv = ["train", "--config", cfg_path, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}:3: not UTF-8 text\n"


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_manifest_without_sources_is_one_line_error(tmp_path, capsys, command):
    data_out = generated_data(tmp_path)
    manifest = data_out / "target_only.tsv"
    manifest.write_text(TARGET_ROW)
    text = SMALL_CONFIG + f"data.manifest={manifest}\nk_core=1\n"
    argv = [command, "--config", write_config(tmp_path, text),
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {manifest}: no row has role 'source', which variant 'full' needs\n")
    # the joint baseline trains on the target alone; the ablation runs every
    # variant, so it still needs a source
    argv[2] = write_config(tmp_path, text + "variant=no_meta\n", "joint.cfg")
    assert cli.main(argv) == (0 if command == "train" else 2)


@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_bad_input_is_one_line_error(tmp_path, capsys, command):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("src0\tsorce\tsrc0.tsv\n" + TARGET_ROW)
    cfg_path = write_config(tmp_path, SMALL_CONFIG + f"data.manifest={manifest}\n")
    argv = [command, "--config", cfg_path, "--out", str(tmp_path / "out")]
    if command == "eval":
        ckpt = str(tmp_path / "any.ckpt")
        save_checkpoint(ckpt, {"w": np.ones(2)}, serialize_config(small_cfg()))
        argv += ["--checkpoint", ckpt]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {manifest}:1: role must be 'source' or 'target', "
                   f"got 'sorce'\n")
    # a bad config line and a missing config file are reported the same way
    argv[2] = write_config(tmp_path, "seed=1\nbogus line\n", "bad.cfg")
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (f"error: {argv[2]}: config line 2: "
                                       f"expected key=value, got 'bogus line'\n")
    argv[2] = str(tmp_path / "missing.cfg")
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.cfg" in err and err.count("\n") == 1


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: the sigmoid is computed in numpy
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, crossrec.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"
