"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Full-scale training results are not desk-reproducible; these checks
are property-based at the tiny preset scale.
"""

import math
import time

import mpmath
import numpy as np

from versebert import autograd as ag
from versebert import cli, corpus, evaluation, model as mdl, preprocess, tokenizer, training
from versebert.autograd import Tensor
from versebert.corpus import LabelTaxonomy

from decoding import decode
from gradcheck import grad_check
from test_evaluation import brute_force_report
from test_model import dense_attention_oracle, multi_head_oracle
from test_preprocess import allowed_line_chars


def report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_gradient_correctness():
    started = time.time()
    # per-op checks, rel err < 1e-5
    rng = np.random.default_rng(0)
    op_errs = {}
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    op_errs["matmul"] = grad_check(lambda: ag.cross_entropy(ag.matmul(a, b), [0, 1, 0]), [a, b])
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    v = Tensor(rng.normal(size=(5,)), requires_grad=True)
    op_errs["add"] = grad_check(lambda: ag.cross_entropy(ag.add(x, v), [0, 2, 4]), [x, v])
    s = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    op_errs["scale"] = grad_check(lambda: ag.cross_entropy(ag.scale(s, -2.5), [1, 3]), [s])
    sm = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    op_errs["softmax"] = grad_check(
        lambda: ag.cross_entropy(ag.scale(ag.softmax_rows(sm), 4.0), [0, 3]), [sm]
    )
    aq, ak, av = (Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((3, 4), (5, 4), (5, 2)))
    key_bias = mdl.key_bias([1, 1, 0, 1, 1], (5,))
    op_errs["attention"] = grad_check(
        lambda: ag.cross_entropy(ag.attention((aq, ak, av), key_bias)[0], [1, 0, 1]), [aq, ak, av]
    )
    ln_x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    ln_g = Tensor(1.0 + 0.1 * rng.normal(size=(6,)), requires_grad=True)
    ln_b = Tensor(rng.normal(size=(6,)), requires_grad=True)
    op_errs["layer_norm"] = grad_check(
        lambda: ag.cross_entropy(ag.layer_norm(ln_x, ln_g, ln_b), [5, 0, 3]), [ln_x, ln_g, ln_b]
    )
    gx = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    op_errs["gelu"] = grad_check(lambda: ag.cross_entropy(ag.gelu(gx), [1, 4]), [gx])
    table = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
    op_errs["embedding"] = grad_check(
        lambda: ag.cross_entropy(ag.embedding_lookup(table, [0, 4, 4, 8]), [0, 1, 2, 3]), [table]
    )
    ce = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
    op_errs["cross_entropy"] = grad_check(
        lambda: ag.cross_entropy(ce, [0, 2, 6, 3]), [ce]
    )
    per_op_worst = max(op_errs.values())

    # end-to-end MLM loss on the tiny preset (L=2, d=32, h=2, vocab 512)
    cfg = mdl.tiny_config(vocab_size=512, max_len=12)
    params = mdl.init_params(cfg, training.make_rngs(2).init)
    scale_rng = np.random.default_rng(8)
    for name, p in params.named_parameters():
        if not name.endswith("gain"):
            p.data = scale_rng.normal(0.0, 0.15, size=p.data.shape)
    seq = tokenizer.TokenSequence(
        (2, 9, 10, 4, 12, 3) + (0,) * 6, (1,) * 6 + (0,) * 6, 12
    )
    targets = np.full(12, mdl.IGNORE_INDEX)
    for pos, t in ((1, 15), (2, 303), (3, 20), (4, 471)):
        targets[pos] = t

    def f():
        hidden = mdl.encoder_forward(np.array([seq.ids]), np.array([seq.attention_mask]), cfg, params)
        return mdl.mlm_loss(hidden, targets, params)

    end_to_end = grad_check(f, params.parameters(), max_samples=200, rng=np.random.default_rng(100))
    elapsed = time.time() - started
    ok = per_op_worst < 1e-5 and end_to_end < 1e-4 and elapsed < 60
    report(1, ok, f"gradients: per-op worst {per_op_worst:.2e} (<1e-5), "
                  f"end-to-end {end_to_end:.2e} (<1e-4) over 200 params, {elapsed:.1f}s (<60s)")


def test_criterion_02_attention_invariants():
    rng = np.random.default_rng(1)
    worst_sum = 0.0
    worst_masked = 0.0
    envelope_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 7))
        d_k = int(rng.integers(1, 5))
        d_v = int(rng.integers(1, 5))
        q = Tensor(rng.normal(size=(n, d_k)) * 2)
        k = Tensor(rng.normal(size=(m, d_k)) * 2)
        v = Tensor(rng.normal(size=(m, d_v)))
        mask = rng.integers(0, 2, size=m)
        if not mask.any():
            mask[int(rng.integers(0, m))] = 1
        out, weights = mdl.scaled_dot_attention(q, k, v, mask, return_weights=True)
        worst_sum = max(worst_sum, float(np.abs(weights.data.sum(axis=1) - 1.0).max()))
        if (mask == 0).any():
            worst_masked = max(worst_masked, float(weights.data[:, mask == 0].max()))
        live = v.data[mask == 1]
        hi, lo = live.max(axis=0), live.min(axis=0)
        if not (np.all(out.data <= hi + 1e-12) and np.all(out.data >= lo - 1e-12)):
            envelope_ok = False
    ok = worst_sum <= 1e-12 and worst_masked < 1e-9 and envelope_ok
    report(2, ok, f"attention: 1000 instances, row-sum dev {worst_sum:.1e} (<=1e-12), "
                  f"masked weight {worst_masked:.1e} (<1e-9), envelope {'held' if envelope_ok else 'broken'}")


def test_criterion_03_positional_encoding():
    first = mdl.sinusoidal_table(1, 64)[0]
    exact_ok = bool(np.all(first[0::2] == 0.0) and np.all(first[1::2] == 1.0))
    mpmath.mp.dps = 50
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 512))
        p = int(rng.integers(0, 128))
        i = int(rng.integers(0, d))
        angle = mpmath.mpf(p) / mpmath.power(10000, mpmath.mpf(i - (i % 2)) / d)
        expected = mpmath.sin(angle) if i % 2 == 0 else mpmath.cos(angle)
        worst = max(worst, abs(mdl.sinusoidal_table(p + 1, d)[p, i] - float(expected)))
    ok = exact_ok and worst < 1e-12
    report(3, ok, f"positions: PE(0,even)=0 and PE(0,odd)=1 exact, "
                  f"100 random triples within {worst:.1e} of reference (<1e-12)")


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(3)
    worst_sda = 0.0
    for _ in range(100):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        d_k, d_v = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        q, k, v = rng.normal(size=(n, d_k)), rng.normal(size=(m, d_k)), rng.normal(size=(m, d_v))
        mask = rng.integers(0, 2, size=m)
        if not mask.any():
            mask[0] = 1
        got = mdl.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), mask).data
        worst_sda = max(worst_sda, float(np.abs(got - dense_attention_oracle(q, k, v, mask)).max()))

    worst_mha = 0.0
    for trial in range(100):
        cfg = mdl.ModelConfig(num_layers=1, num_heads=2, hidden=8, vocab_size=16,
                              max_len=8, dropout=0.0)
        params = mdl.init_params(cfg, np.random.default_rng(trial))
        x = rng.normal(size=(4, 8))
        mask = [1, 1, 1, 0]
        got = mdl.multi_head_attention(Tensor(x), params.layers[0], mask, cfg.num_heads).data
        oracle = multi_head_oracle(x, params.layers[0], mask, cfg.num_heads)
        worst_mha = max(worst_mha, float(np.abs(got - oracle).max()))

    worst_prf = 0.0
    for _ in range(100):
        k_cls = int(rng.integers(2, 7))
        n = int(rng.integers(1, 100))
        preds = rng.integers(0, k_cls, size=n).tolist()
        truths = rng.integers(0, k_cls, size=n).tolist()
        tax = LabelTaxonomy("Rhyme", tuple(f"c{i}" for i in range(k_cls)))
        got = evaluation.prf_report(evaluation.confusion_matrix(preds, truths, k_cls), tax)
        rows, accuracy, macro, weighted = brute_force_report(preds, truths, k_cls)
        devs = [abs(got.accuracy - accuracy)]
        devs += [abs(x - y) for x, y in zip(got.macro_avg, macro)]
        devs += [abs(x - y) for x, y in zip(got.weighted_avg, weighted)]
        for c, (p, r, f1, support) in zip(got.per_class, rows):
            devs += [abs(c.precision - p), abs(c.recall - r), abs(c.f1 - f1), abs(c.support - support)]
        worst_prf = max(worst_prf, max(devs))
    ok = worst_sda < 1e-10 and worst_mha < 1e-10 and worst_prf < 1e-12
    report(4, ok, f"oracles: attention dev {worst_sda:.1e} (<1e-10), multi-head dev "
                  f"{worst_mha:.1e} (<1e-10), report dev {worst_prf:.1e} (<1e-12), 100 instances each")


def test_criterion_05_masking_statistics():
    cfg = training.TrainConfig(mask_ratio=0.15, max_steps=1)
    rng = np.random.default_rng(4)
    vocab_size = 512
    total_candidates = 0
    selected = 0
    n_mask = n_keep = n_random = 0
    special_selected = 0
    while total_candidates < 100_000:
        ids = (2, 5) + tuple(int(i) for i in rng.integers(7, vocab_size, size=28)) + (6, 3)
        seq = tokenizer.TokenSequence(ids, (1,) * 32, 32)
        batch_ids, batch_targets = training.apply_mlm_masking(([ids], [seq.attention_mask]), cfg, rng, vocab_size)
        masked, targets = batch_ids[0], batch_targets[0]  # one sequence, masked as a one-row batch
        total_candidates += 28
        sel = np.flatnonzero(targets != training.IGNORE_INDEX)
        for i in (0, 1, 30, 31):
            if targets[i] != training.IGNORE_INDEX or masked[i] != seq.ids[i]:
                special_selected += 1
        selected += len(sel)
        for i in sel:
            if masked[i] == tokenizer.MASK_ID:
                n_mask += 1
            elif masked[i] == seq.ids[i]:
                n_keep += 1
            else:
                n_random += 1
    frac = selected / total_candidates
    frac_ok = 0.146 <= frac <= 0.154
    fates_ok = True
    for count, p in ((n_mask, 0.8), (n_random, 0.1), (n_keep, 0.1)):
        sigma = math.sqrt(p * (1 - p) / selected)
        # uniform random replacement may redraw the original id, moving
        # ~1/505 of the random mass into "keep"
        if abs(count / selected - p) > 3 * sigma + 1 / (vocab_size - 7):
            fates_ok = False
    ok = frac_ok and fates_ok and special_selected == 0
    report(5, ok, f"masking: {total_candidates} candidates, selected {frac:.4f} "
                  f"(in [0.146, 0.154]), fates {n_mask/selected:.3f}/{n_random/selected:.3f}/"
                  f"{n_keep/selected:.3f} vs 0.8/0.1/0.1 (3 sigma), {special_selected} special selections")


def test_criterion_06_overfit_sanity():
    started = time.time()
    store = corpus.generate_synthetic(32, seed=3, signal="gender")
    lines = [v.line for v in preprocess.preprocess_corpus(store)]
    vocab = tokenizer.train_wordpiece(lines, 512)
    cfg = mdl.tiny_config(vocab_size=len(vocab))
    losses = []
    tcfg = training.tiny_train_config(max_steps=500, seed=42)
    training.pretrain(lines, vocab, cfg, tcfg, on_step=lambda s, l: losses.append(l))
    elapsed = time.time() - started
    final = losses[-1]
    windows = [float(np.mean(losses[i : i + 50])) for i in range(0, 500, 50)]
    monotone = all(windows[i + 1] <= windows[i] for i in range(len(windows) - 1))
    ok = final < 0.5 and monotone and elapsed < 300
    report(6, ok, f"overfit: 500 steps on 32 sequences, final loss {final:.3f} (<0.5), "
                  f"smoothed windows non-increasing: {monotone}, {elapsed:.0f}s (<300s)")


def _planted_task_accuracy(signal: str, steps: int, seed: int) -> tuple[float, float]:
    started = time.time()
    store = corpus.generate_synthetic(2000, seed=seed, signal=signal)
    train_store, val_store = corpus.split(store, 0.8, seed=1)
    lines = [v.line for v in preprocess.preprocess_corpus(store)]
    vocab = tokenizer.train_wordpiece(lines, 512)
    cfg = mdl.tiny_config(vocab_size=len(vocab))
    base = training.pretrain(
        lines[:32], vocab, cfg, training.tiny_train_config(max_steps=0, seed=4)
    )
    tax = corpus.taxonomy(signal)
    pairs = [
        (preprocess.preprocess_verse(r).line, label)
        for r, label in corpus.task_pairs(train_store, signal)
    ]
    tuned = training.finetune(
        base, pairs, tax, vocab,
        training.tiny_train_config(max_steps=steps, seed=2, lr=3e-3),
    )
    result = evaluation.evaluate(tuned, val_store, tax, vocab)
    return result.accuracy, time.time() - started


def test_criterion_07_planted_task_finetuning():
    rhyme_acc, rhyme_time = _planted_task_accuracy("Rhyme", steps=400, seed=11)
    gender_acc, gender_time = _planted_task_accuracy("Gender", steps=300, seed=13)
    ok = rhyme_acc >= 0.95 and gender_acc >= 0.95 and rhyme_time < 600 and gender_time < 600
    report(7, ok, f"planted tasks: rhyme accuracy {rhyme_acc:.4f} in {rhyme_time:.0f}s, "
                  f"gender accuracy {gender_acc:.4f} in {gender_time:.0f}s (both >=0.95, <600s)")


def test_criterion_08_pipeline_invariants():
    rng = np.random.default_rng(6)
    letters = [chr(c) for c in range(0x0621, 0x063B)] + [chr(c) for c in range(0x0641, 0x064B)]
    noise = list("abcXYZ0189@#$%?!:[]()ـ,.\t ") + ["[s]", "[e]", "ً", "ِ", "ْ", "ٰ"]
    pool = letters + noise

    def fuzz_text(max_parts):
        parts = [str(pool[int(rng.integers(0, len(pool)))]) for _ in range(int(rng.integers(0, max_parts)))]
        return "".join(parts)

    preprocess_ok = True
    for _ in range(10_000):
        h1 = fuzz_text(12) + letters[int(rng.integers(0, len(letters)))]
        h2 = fuzz_text(12) if rng.random() < 0.7 else None
        line = preprocess.preprocess_verse(corpus.VerseRecord(0, h1, h2)).line
        if line.count("[s]") != 1 or line.count("[e]") not in (0, 1):
            preprocess_ok = False
        if "[e]" in line and not line.endswith("[s] [e]"):
            preprocess_ok = False
        if not allowed_line_chars(line):
            preprocess_ok = False

    vocab = tokenizer.train_wordpiece(["ابا باب تاب ذهب"], 64, min_frequency=1)
    encode_ok = True
    for _ in range(2000):
        text = fuzz_text(20)
        seq = tokenizer.encode(text, vocab, 16)
        ids, mask = list(seq.ids), list(seq.attention_mask)
        n = sum(mask)
        if ids[0] != tokenizer.CLS_ID or ids[n - 1] != tokenizer.SEP_ID:
            encode_ok = False
        if mask != [1] * n + [0] * (16 - n) or ids.count(tokenizer.SEP_ID) != 1:
            encode_ok = False
        if any(not 0 <= i < len(vocab) for i in ids):
            encode_ok = False

    store = corpus.generate_synthetic(300, seed=17, signal="rhyme")
    lines = [v.line for v in preprocess.preprocess_corpus(store)]
    synth_vocab = tokenizer.train_wordpiece(lines, 512)
    roundtrip_ok = all(
        decode(tokenizer.encode(line, synth_vocab, 32).ids, synth_vocab) == line
        for line in lines
    )
    ok = preprocess_ok and encode_ok and roundtrip_ok
    report(8, ok, f"pipeline invariants: 10000 fuzzed preprocess inputs {preprocess_ok}, "
                  f"2000 fuzzed encode inputs {encode_ok}, {len(lines)} round-trips {roundtrip_ok}")


def test_criterion_09_determinism(tmp_path):
    root = tmp_path
    c, l, v = root / "c.tsv", root / "l.tsv", root / "v.txt"
    assert cli.main(["synth", "--n", "48", "--seed", "9", "--signal", "rhyme", "--out", str(c)]) == 0
    assert cli.main(["preprocess", "--in", str(c), "--out", str(l)]) == 0
    assert cli.main(["train-tokenizer", "--in", str(l), "--vocab-size", "512", "--out", str(v)]) == 0
    blobs = []
    for name in ("run1.ckpt", "run2.ckpt"):
        out = root / name
        code = cli.main(["pretrain", "--lines", str(l), "--vocab", str(v), "--out", str(out),
                         "--preset", "tiny", "--seed", "42", "--max-steps", "6"])
        assert code == 0
        blobs.append(out.read_bytes())
    identical = blobs[0] == blobs[1]

    ckpt = training.load_checkpoint(root / "run1.ckpt")
    training.save_checkpoint(ckpt, root / "resaved.ckpt")
    roundtrip = (root / "resaved.ckpt").read_bytes() == blobs[0]
    ok = identical and roundtrip
    report(9, ok, f"determinism: two seed-42 pretrain runs bit-identical {identical}, "
                  f"save/load round-trip bit-exact {roundtrip}")


def test_criterion_10_report_fidelity():
    # three classes, truths [0,0,1], preds [0,1,1]: class 2 never occurs
    tax = LabelTaxonomy("SentimentT", ("Love", "Sadness", "Anger"))
    matrix = evaluation.confusion_matrix([0, 1, 1], [0, 0, 1], 3)
    got = evaluation.prf_report(matrix, tax)

    p = [1.0, 0.5, 0.0]
    r = [0.5, 1.0, 0.0]
    f1 = [2 * 1.0 * 0.5 / (1.0 + 0.5), 2 * 0.5 * 1.0 / (0.5 + 1.0), 0.0]
    support = [2, 1, 0]
    accuracy = 2 / 3
    macro = (sum(p) / 3, sum(r) / 3, sum(f1) / 3)
    weighted = (
        (p[0] * 2 + p[1] * 1 + p[2] * 0) / 3,
        (r[0] * 2 + r[1] * 1 + r[2] * 0) / 3,
        (f1[0] * 2 + f1[1] * 1 + f1[2] * 0) / 3,
    )
    checks = [
        np.array_equal(matrix, [[1, 1, 0], [0, 1, 0], [0, 0, 0]]),
        [c.precision for c in got.per_class] == p,
        [c.recall for c in got.per_class] == r,
        [c.f1 for c in got.per_class] == f1,
        [c.support for c in got.per_class] == support,
        got.accuracy == accuracy,
        got.macro_avg == macro,
        got.weighted_avg == weighted,
        got.per_class[2].precision == 0.0 and got.per_class[2].recall == 0.0
        and got.per_class[2].f1 == 0.0,
    ]
    ok = all(checks)
    report(10, ok, f"report fidelity: hand-computed 3-class case reproduced exactly "
                   f"(accuracy {got.accuracy:.4f}, zero-support class all zeros)")
