import dataclasses
import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest

from versebert import autograd as ag
from versebert import corpus, evaluation, model as mdl, preprocess, tokenizer, training
from versebert.errors import (
    CorruptFile,
    DigestMismatch,
    EmptyReduction,
    InvalidConfig,
    LabelOutOfRange,
    NonFiniteLoss,
    VersionMismatch,
)
from versebert.tokenizer import MASK_ID, TokenSequence
from versebert.training import (
    TrainConfig,
    apply_mlm_masking,
    load_checkpoint,
    make_rngs,
    save_checkpoint,
)

import seed_adamw


def full_seq(n_real, max_len=32, first_id=7):
    ids = [2] + list(range(first_id, first_id + n_real - 2)) + [3]
    ids += [0] * (max_len - n_real)
    mask = [1] * n_real + [0] * (max_len - n_real)
    return TokenSequence(tuple(ids), tuple(mask), max_len)


def mask_one(seq, cfg, rng, vocab_size):
    """(masked ids, targets) of one sequence, masked as a one-row batch."""
    ids, targets = apply_mlm_masking(([seq.ids], [seq.attention_mask]), cfg, rng, vocab_size)
    return tuple(ids[0].tolist()), targets[0]


class TestTrainConfig:
    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 256
        assert cfg.lr == 5e-5
        assert cfg.weight_decay == 0.0
        assert cfg.dropout == 0.1
        assert cfg.mask_ratio == 0.15
        assert (cfg.mask_prob, cfg.random_prob, cfg.keep_prob) == (0.8, 0.1, 0.1)
        assert cfg.max_steps == 800_000

    def test_split_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TrainConfig(mask_prob=0.5, random_prob=0.1, keep_prob=0.1)

    @pytest.mark.parametrize("split", [(math.nan, 0.1, 0.1), (-0.5, 1.4, 0.1), (0.8, 0.1, math.inf)])
    def test_each_probability_must_lie_in_the_unit_interval(self, split):
        with pytest.raises(InvalidConfig, match="must be in \\[0, 1\\]"):
            TrainConfig(mask_prob=split[0], random_prob=split[1], keep_prob=split[2])

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidConfig, match="seed must be at least 0"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("lr", [-1.0, 0.0, math.nan, math.inf])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(InvalidConfig, match="lr must be finite and positive"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("weight_decay", [-5.0, math.nan, math.inf])
    def test_weight_decay_must_be_finite_and_non_negative(self, weight_decay):
        with pytest.raises(InvalidConfig, match="weight_decay must be finite and non-negative"):
            TrainConfig(weight_decay=weight_decay)

    def test_from_dict_uses_defaults_for_unspecified(self):
        cfg = TrainConfig.from_dict({"max_steps": 5})
        assert cfg.max_steps == 5
        assert cfg.lr == 5e-5


class TestMasking:
    def test_ratio_zero_is_identity(self):
        seq = full_seq(20)
        cfg = TrainConfig(mask_ratio=0.0, max_steps=1)
        masked, targets = mask_one(seq, cfg, np.random.default_rng(0), 64)
        assert masked == seq.ids
        assert np.all(targets == training.IGNORE_INDEX)

    def test_ratio_one_all_masked(self):
        seq = full_seq(20)
        cfg = TrainConfig(mask_ratio=1.0, mask_prob=1.0, random_prob=0.0, keep_prob=0.0, max_steps=1)
        masked, targets = mask_one(seq, cfg, np.random.default_rng(0), 64)
        candidates = [i for i, (t, m) in enumerate(zip(seq.ids, seq.attention_mask)) if m and t >= 7]
        for i in candidates:
            assert masked[i] == MASK_ID
            assert targets[i] == seq.ids[i]

    def test_specials_never_selected(self):
        ids = (2, 5, 8, 9, 6, 3) + (0,) * 26
        seq = TokenSequence(ids, (1,) * 6 + (0,) * 26, 32)
        cfg = TrainConfig(mask_ratio=1.0, mask_prob=1.0, random_prob=0.0, keep_prob=0.0, max_steps=1)
        masked, targets = mask_one(seq, cfg, np.random.default_rng(1), 64)
        for i in (0, 1, 4, 5):  # [CLS], [s], [e], [SEP]
            assert masked[i] == seq.ids[i]
            assert targets[i] == training.IGNORE_INDEX
        for i in range(6, 32):  # padding
            assert masked[i] == 0
            assert targets[i] == training.IGNORE_INDEX

    def test_selection_fraction_binomial(self):
        cfg = TrainConfig(mask_ratio=0.15, max_steps=1)
        rng = np.random.default_rng(3)
        total, selected = 0, 0
        for _ in range(3400):
            seq = full_seq(32)
            _, targets = mask_one(seq, cfg, rng, 512)
            total += 30
            selected += int(np.sum(targets != training.IGNORE_INDEX))
        frac = selected / total
        assert 0.146 <= frac <= 0.154

    def test_fate_split_binomial(self):
        cfg = TrainConfig(mask_ratio=1.0, max_steps=1)
        rng = np.random.default_rng(4)
        n_mask = n_keep = n_random = 0
        for _ in range(600):
            seq = full_seq(32)
            masked, targets = mask_one(seq, cfg, rng, 512)
            sel = np.flatnonzero(targets != training.IGNORE_INDEX)
            for i in sel:
                if masked[i] == MASK_ID:
                    n_mask += 1
                elif masked[i] == seq.ids[i]:
                    n_keep += 1
                else:
                    n_random += 1
        n = n_mask + n_keep + n_random
        for count, p in ((n_mask, 0.8), (n_random, 0.1), (n_keep, 0.1)):
            sigma = math.sqrt(p * (1 - p) / n)
            # random replacement can collide with the original id, shifting a
            # sliver of mass from "random" to "keep"
            assert abs(count / n - p) <= 3 * sigma + 1 / 505

    def test_random_replacements_never_special(self):
        cfg = TrainConfig(mask_ratio=1.0, mask_prob=0.0, random_prob=1.0, keep_prob=0.0, max_steps=1)
        rng = np.random.default_rng(5)
        seq = full_seq(30)
        masked, targets = mask_one(seq, cfg, rng, 64)
        sel = np.flatnonzero(targets != training.IGNORE_INDEX)
        assert np.all(np.array([masked[i] for i in sel]) >= 7)


class TestRngStreams:
    def test_streams_are_independent_and_reproducible(self):
        a = make_rngs(9)
        b = make_rngs(9)
        assert a.init.random(5).tolist() == b.init.random(5).tolist()
        assert a.masking.random(5).tolist() == b.masking.random(5).tolist()
        c = make_rngs(10)
        assert a.init.random(5).tolist() != c.init.random(5).tolist()


@pytest.fixture(scope="module")
def overfit_setup():
    store = corpus.generate_synthetic(16, seed=3, signal="gender")
    lines = [v.line for v in preprocess.preprocess_corpus(store)]
    vocab = tokenizer.train_wordpiece(lines, 256)
    cfg = mdl.tiny_config(vocab_size=len(vocab), max_len=24)
    return lines, vocab, cfg


class TestPretrain:
    def test_zero_steps_equals_initialization(self, overfit_setup):
        lines, vocab, cfg = overfit_setup
        tcfg = training.tiny_train_config(max_steps=0, seed=11)
        ckpt = training.pretrain(lines, vocab, cfg, tcfg)
        fresh = mdl.init_params(cfg, make_rngs(11).init)
        for name, tensor in fresh.named_parameters():
            assert np.array_equal(ckpt.arrays[name], tensor.data), name

    def test_same_seed_bit_identical(self, overfit_setup):
        lines, vocab, cfg = overfit_setup
        tcfg = training.tiny_train_config(max_steps=8, seed=42)
        a = training.pretrain(lines, vocab, cfg, tcfg)
        b = training.pretrain(lines, vocab, cfg, tcfg)
        assert a.arrays.keys() == b.arrays.keys()
        for name in a.arrays:
            assert np.array_equal(a.arrays[name], b.arrays[name]), name

    def test_checkpoint_bytes_match_seed_adamw_step(self, overfit_setup, tmp_path, monkeypatch):
        lines, vocab, _ = overfit_setup
        # hidden 320: the embedding and FFN tables span more than one AdamW block
        cfg = mdl.ModelConfig(num_layers=1, num_heads=2, hidden=320, vocab_size=len(vocab), max_len=24, dropout=0.0)
        assert len(vocab) * cfg.hidden > ag._ADAMW_BLOCK
        paths = [tmp_path / "blocked.ckpt", tmp_path / "seed.ckpt"]
        for path in paths:
            tcfg = training.tiny_train_config(max_steps=3, seed=4, weight_decay=0.01, checkpoint_path=str(path))
            training.pretrain(lines, vocab, cfg, tcfg)
            monkeypatch.setattr(ag.AdamW, "step", seed_adamw.step)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_loss_decreases(self, overfit_setup):
        lines, vocab, cfg = overfit_setup
        losses = []
        tcfg = training.tiny_train_config(max_steps=60, seed=1)
        training.pretrain(lines, vocab, cfg, tcfg, on_step=lambda s, l: losses.append(l))
        assert len(losses) == 60
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_mask_ratio_zero_leaves_params_at_init(self, overfit_setup):
        lines, vocab, cfg = overfit_setup
        tcfg = training.tiny_train_config(max_steps=5, seed=2, mask_ratio=0.0)
        ckpt = training.pretrain(lines, vocab, cfg, tcfg)
        fresh = mdl.init_params(cfg, make_rngs(2).init)
        for name, tensor in fresh.named_parameters():
            assert np.array_equal(ckpt.arrays[name], tensor.data), name
        assert ag.tape_size() == 0

    def test_vocab_digest_recorded(self, overfit_setup):
        lines, vocab, cfg = overfit_setup
        ckpt = training.pretrain(lines, vocab, cfg, training.tiny_train_config(max_steps=1, seed=0))
        assert ckpt.vocab_digest == vocab.digest()

    def test_batch_without_masked_positions_is_skipped_and_counted(self, overfit_setup):
        lines, vocab, cfg = overfit_setup
        steps = []
        tcfg = training.tiny_train_config(max_steps=3, seed=2, mask_ratio=0.0)
        ckpt = training.pretrain(lines, vocab, cfg, tcfg, on_step=lambda s, l: steps.append(s))
        assert steps == [] and ckpt.global_step == 3
        with pytest.raises(EmptyReduction):
            params = ckpt.to_params()
            mdl.mlm_loss(ag.Tensor(np.zeros((2, 4, cfg.hidden))), np.full((2, 4), mdl.IGNORE_INDEX), params)
        ag.reset_tape()

    def test_dropout_is_bit_reproducible_per_seed(self, overfit_setup):
        lines, vocab, cfg = overfit_setup
        runs = [
            training.pretrain(lines, vocab, cfg, training.tiny_train_config(max_steps=4, seed=s, dropout=0.3))
            for s in (5, 5, 6)
        ]
        names = runs[0].arrays.keys()
        assert all(np.array_equal(runs[0].arrays[n], runs[1].arrays[n]) for n in names)
        assert not all(np.array_equal(runs[0].arrays[n], runs[2].arrays[n]) for n in names)
        no_dropout = training.pretrain(lines, vocab, cfg, training.tiny_train_config(max_steps=4, seed=5))
        assert not all(np.array_equal(runs[0].arrays[n], no_dropout.arrays[n]) for n in names)

    def test_non_finite_loss_aborts_with_step_number(self, overfit_setup):
        lines, vocab, cfg = overfit_setup
        # an absurd learning rate drives parameters to inf after step 1, so
        # the step-2 forward produces a non-finite loss
        tcfg = training.tiny_train_config(max_steps=10, seed=3, lr=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteLoss, match=r"step \d+"):
                training.pretrain(lines, vocab, cfg, tcfg)
        assert ag.tape_size() == 0


class TestCheckpointIO:
    def _ckpt(self, overfit_setup, steps=2, optimizer=False):
        lines, vocab, cfg = overfit_setup
        tcfg = training.tiny_train_config(max_steps=steps, seed=6)
        ckpt = training.pretrain(lines, vocab, cfg, tcfg)
        if optimizer:
            params = ckpt.to_params()
            opt = ag.AdamW(params.parameters(), lr=0.1)
            for p in opt.params:
                p.grad = np.ones_like(p.data)
            opt.step()
            ckpt = training.checkpoint_from_params(
                params, cfg, ckpt.vocab_digest, ckpt.global_step, optimizer=opt
            )
        return ckpt

    def test_round_trip_bit_exact(self, overfit_setup, tmp_path):
        ckpt = self._ckpt(overfit_setup)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        again = load_checkpoint(path)
        assert again.model_config == ckpt.model_config
        assert again.vocab_digest == ckpt.vocab_digest
        assert again.global_step == ckpt.global_step
        for name in ckpt.arrays:
            assert np.array_equal(again.arrays[name], ckpt.arrays[name]), name

    def test_round_trip_with_optimizer_state(self, overfit_setup, tmp_path):
        ckpt = self._ckpt(overfit_setup, optimizer=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        again = load_checkpoint(path)
        assert again.optimizer["step"] == ckpt.optimizer["step"]
        for name in ckpt.optimizer["arrays"]:
            assert np.array_equal(again.optimizer["arrays"][name], ckpt.optimizer["arrays"][name])

    def test_truncated_file(self, overfit_setup, tmp_path):
        ckpt = self._ckpt(overfit_setup)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptFile):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CorruptFile):
            load_checkpoint(path)

    def test_future_version_rejected(self, overfit_setup, tmp_path, monkeypatch):
        ckpt = self._ckpt(overfit_setup)
        path = tmp_path / "model.ckpt"
        monkeypatch.setattr(training, "CHECKPOINT_VERSION", training.CHECKPOINT_VERSION + 1)
        save_checkpoint(ckpt, path)
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_save_load_save_identical_bytes(self, overfit_setup, tmp_path):
        ckpt = self._ckpt(overfit_setup)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def save_v1(ckpt, path):
    """The version 1 writer: per-head Q/K/V arrays and no payload digest."""
    cfg = ckpt.model_config
    arrays = dict(ckpt.arrays)
    for li in range(cfg.num_layers):
        cols = np.split(arrays.pop(f"layers.{li}.w_qkv"), 3 * cfg.num_heads, axis=1)
        for i, w in enumerate(("w_q", "w_k", "w_v")):
            for hi in range(cfg.num_heads):
                arrays[f"layers.{li}.heads.{hi}.{w}"] = cols[i * cfg.num_heads + hi]
    entries, payload = [], bytearray()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        entries.append({"name": f"param:{name}", "shape": list(arr.shape), "offset": len(payload)})
        payload.extend(arr.tobytes())
    header = json.dumps({
        "model_config": cfg.to_dict(), "vocab_digest": ckpt.vocab_digest,
        "global_step": ckpt.global_step, "optimizer": None, "arrays": entries,
    }).encode()
    path.write_bytes(b"VBC1" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header + bytes(payload))


def edit_header(path, change):
    """Rewrite a saved checkpoint's JSON header in place; the payload is kept."""
    blob = path.read_bytes()
    n = struct.unpack("<Q", blob[8:16])[0]
    header = json.loads(blob[16 : 16 + n])
    change(header)
    raw = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + n :])


class TestCheckpointV2:
    @pytest.fixture()
    def saved(self, overfit_setup, tmp_path):
        lines, vocab, cfg = overfit_setup
        ckpt = training.pretrain(lines, vocab, cfg, training.tiny_train_config(max_steps=2, seed=6))
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        return ckpt, path

    def test_v1_and_its_v2_migration_give_identical_params(self, saved, tmp_path):
        ckpt, _ = saved
        v1, v2 = tmp_path / "old.ckpt", tmp_path / "migrated.ckpt"
        save_v1(ckpt, v1)
        from_v1 = load_checkpoint(v1)
        save_checkpoint(from_v1, v2)
        assert v2.read_bytes()[4:8] == struct.pack("<I", training.CHECKPOINT_VERSION)
        a, b = from_v1.to_params(), load_checkpoint(v2).to_params()
        for (name, x), (_, y), (_, z) in zip(
            a.named_parameters(), b.named_parameters(), ckpt.to_params().named_parameters()
        ):
            assert np.array_equal(x.data, y.data) and np.array_equal(x.data, z.data), name

    def test_header_records_payload_sha256(self, saved):
        _, path = saved
        blob = path.read_bytes()
        n = struct.unpack("<Q", blob[8:16])[0]
        header = json.loads(blob[16 : 16 + n])
        assert header["payload_sha256"] == hashlib.sha256(blob[16 + n :]).hexdigest()

    def test_flipped_payload_bit_rejected(self, saved):
        _, path = saved
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile, match="sha256"):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", [
        lambda h: h.pop("vocab_digest"),
        lambda h: h.pop("payload_sha256"),
        lambda h: h["arrays"][0].pop("shape"),
        lambda h: h["arrays"][0].update(shape=[-1]),
        lambda h: h["arrays"][0].update(shape=[2.5]),
        lambda h: h["arrays"][0].update(offset=-8),
        lambda h: h["arrays"][1].update(offset=h["arrays"][0]["offset"]),
        lambda h: h["arrays"][-1].update(offset=h["arrays"][-1]["offset"] + 8),
        lambda h: h["arrays"][0].update(name="bogus:x"),
        lambda h: h.update(global_step="7"),
        lambda h: h["model_config"].update(hidden=-4),
        *(lambda h, step=step: h.update(optimizer={"step": step}) for step in ("x", -5, 2.5, None, True)),
    ], ids=["missing-key", "missing-sha", "missing-shape", "negative-shape", "float-shape",
            "negative-offset", "overlap", "past-payload", "bad-name", "bad-step", "bad-config",
            "str-optimizer-step", "negative-optimizer-step", "float-optimizer-step", "null-optimizer-step",
            "bool-optimizer-step"])
    def test_malformed_header_raises_corrupt_file(self, saved, change):
        _, path = saved
        edit_header(path, change)
        with pytest.raises(CorruptFile):
            load_checkpoint(path)

    def test_missing_parameter_array_raises_corrupt_file(self, saved):
        _, path = saved
        edit_header(path, lambda h: h.update(arrays=[e for e in h["arrays"] if "w_qkv" not in e["name"]]))
        with pytest.raises(CorruptFile):
            load_checkpoint(path).to_params()


class TestCheckpointShapes:
    """A load checks every array against the shape the config gives it and names the one that is wrong."""

    @pytest.fixture()
    def ckpt(self):
        config = dataclasses.replace(mdl.tiny_config(vocab_size=40, max_len=8), positional_mode="learned")
        params = mdl.init_params(config, np.random.default_rng(0))
        params.heads["Rhyme"] = mdl.init_head(config, 5, np.random.default_rng(1))
        return training.checkpoint_from_params(params, config, "digest", 3)

    def _reload(self, ckpt, tmp_path):
        save_checkpoint(ckpt, tmp_path / "c.ckpt")
        return load_checkpoint(tmp_path / "c.ckpt")

    def test_a_well_formed_checkpoint_loads(self, ckpt, tmp_path):
        params = self._reload(ckpt, tmp_path).to_params()
        assert {name: t.data.tobytes() for name, t in params.named_parameters()} == \
            {name: a.tobytes() for name, a in ckpt.arrays.items()}

    @pytest.mark.parametrize("name", ["token_embedding", "positional", "layers.1.ffn_w2", "layers.0.ln2_bias",
                                      "mlm_b"])
    def test_missing_encoder_array_named(self, ckpt, tmp_path, name):
        del ckpt.arrays[name]
        with pytest.raises(CorruptFile, match=f"array {name} is missing"):
            self._reload(ckpt, tmp_path).to_params()

    @pytest.mark.parametrize("name, shape, want", [
        ("layers.0.w_qkv", (32, 90), (32, 96)), ("mlm_w", (40, 32), (32, 40)),
        ("layers.1.ln1_gain", (32, 1), (32,)), ("positional", (9, 32), (8, 32)),
    ])
    def test_encoder_array_of_the_wrong_shape_named(self, ckpt, tmp_path, name, shape, want):
        ckpt.arrays[name] = np.zeros(shape)
        with pytest.raises(CorruptFile, match=re.escape(f"array {name} is of shape {shape}, want shape {want}")):
            self._reload(ckpt, tmp_path).to_params()

    @pytest.mark.parametrize("name, shape, named", [("b", (4,), "b"), ("w", (32, 4), "b"), ("w", (31, 5), "w"),
                                                    ("w", (32,), "w"), ("b", (5, 1), "b")])
    def test_head_whose_w_and_b_disagree_named(self, ckpt, tmp_path, name, shape, named):
        ckpt.arrays[f"heads.Rhyme.{name}"] = np.zeros(shape)
        with pytest.raises(CorruptFile, match=f"array heads.Rhyme.{named} is of shape"):
            self._reload(ckpt, tmp_path).to_params()

    @pytest.mark.parametrize("name", ["layers.2.w_o", "heads.Rhyme.extra", "positional"])
    def test_array_the_model_does_not_have_named(self, ckpt, tmp_path, name):
        if name == "positional":  # a sinusoidal model has no position table
            ckpt.model_config = dataclasses.replace(ckpt.model_config, positional_mode="sinusoidal")
        ckpt.arrays.setdefault(name, np.zeros((32, 32)))
        with pytest.raises(CorruptFile, match=f"arrays {name} are not part of the model"):
            self._reload(ckpt, tmp_path).to_params()

    def test_head_without_its_bias_named(self, ckpt):
        del ckpt.arrays["heads.Rhyme.b"]
        with pytest.raises(CorruptFile, match="array heads.Rhyme.b is missing"):
            ckpt.to_params()


@pytest.fixture(scope="module")
def rhyme_task():
    store = corpus.generate_synthetic(240, seed=5, signal="rhyme")
    train_store, val_store = corpus.split(store, 0.8, seed=1)
    lines = [v.line for v in preprocess.preprocess_corpus(store)]
    vocab = tokenizer.train_wordpiece(lines, 512)
    cfg = mdl.tiny_config(vocab_size=len(vocab))
    base = training.pretrain(
        lines[:16], vocab, cfg, training.tiny_train_config(max_steps=0, seed=4)
    )
    return store, train_store, val_store, vocab, cfg, base


def _pairs(store, task):
    return [
        (preprocess.preprocess_verse(r).line, label)
        for r, label in corpus.task_pairs(store, task)
    ]


class TestFinetune:
    def test_digest_mismatch_rejected(self, rhyme_task):
        store, train_store, _, vocab, cfg, base = rhyme_task
        other_vocab = tokenizer.train_wordpiece(["اب تب اب تب"], 40)
        tax = corpus.taxonomy("Rhyme")
        with pytest.raises(DigestMismatch):
            training.finetune(
                base, _pairs(train_store, "Rhyme"), tax, other_vocab,
                training.tiny_train_config(max_steps=1, seed=0),
            )

    def test_unknown_label_rejected(self, rhyme_task):
        _, train_store, _, vocab, cfg, base = rhyme_task
        tax = corpus.taxonomy("Rhyme")
        bad_pairs = [("اب [s] اب", "NotALetter")]
        with pytest.raises(LabelOutOfRange):
            training.finetune(base, bad_pairs, tax, vocab, training.tiny_train_config(max_steps=1, seed=0))

    def test_head_only_freezes_encoder(self, rhyme_task):
        _, train_store, _, vocab, cfg, base = rhyme_task
        tax = corpus.taxonomy("Rhyme")
        tuned = training.finetune(
            base, _pairs(train_store, "Rhyme")[:32], tax, vocab,
            training.tiny_train_config(max_steps=3, seed=1), head_only=True,
        )
        for name in base.arrays:
            assert np.array_equal(tuned.arrays[name], base.arrays[name]), name
        assert "heads.Rhyme.w" in tuned.arrays

    def test_learns_planted_signal(self, rhyme_task):
        _, train_store, val_store, vocab, cfg, base = rhyme_task
        tax = corpus.taxonomy("Rhyme")
        tuned = training.finetune(
            base, _pairs(train_store, "Rhyme"), tax, vocab,
            training.tiny_train_config(max_steps=120, seed=2, lr=3e-3),
        )
        report = evaluation.evaluate(tuned, val_store, tax, vocab)
        assert report.accuracy >= 0.9

    def test_single_class_degenerate_task(self, rhyme_task):
        _, train_store, _, vocab, cfg, base = rhyme_task
        tax = corpus.LabelTaxonomy("Gender", ("Female", "Male"))
        pairs = [(line, "Male") for line, _ in _pairs(train_store, "Rhyme")[:24]]
        tuned = training.finetune(
            base, pairs, tax, vocab, training.tiny_train_config(max_steps=40, seed=3)
        )
        params = tuned.to_params()
        w, b = params.heads["Gender"]
        seqs = [tokenizer.encode(line, vocab, cfg.max_len) for line, _ in pairs]
        preds = np.argmax(mdl.predict_logits(seqs, cfg, params, (w, b)), axis=1)
        assert np.all(preds == 1)  # accuracy 1.0 on a constant task


class TestEvaluateIntegration:
    def test_single_sample_predicted_correctly(self, rhyme_task):
        _, _, _, vocab, cfg, base = rhyme_task
        tax = corpus.taxonomy("Rhyme")
        params = base.to_params()
        # constant predictor: zero weights, bias one-hot on the true class
        bias = np.zeros(tax.num_labels)
        bias[tax.index("ب")] = 1.0
        params.heads["Rhyme"] = (
            ag.Tensor(np.zeros((cfg.hidden, tax.num_labels)), requires_grad=True),
            ag.Tensor(bias, requires_grad=True),
        )
        ckpt = training.checkpoint_from_params(params, cfg, base.vocab_digest, 0)
        store = corpus.CorpusStore(
            (corpus.VerseRecord(0, "اب تب", "تب ب", rhyme="ب"),), "t"
        )
        report = evaluation.evaluate(ckpt, store, tax, vocab)
        assert report.accuracy == 1.0
        assert report.total_samples == 1
        supports = [c.support for c in report.per_class]
        assert supports[tax.index("ب")] == 1 and sum(supports) == 1

    def test_missing_head_rejected(self, rhyme_task):
        store, _, _, vocab, cfg, base = rhyme_task
        with pytest.raises(LabelOutOfRange):
            evaluation.evaluate(base, store, corpus.taxonomy("Gender"), vocab)
