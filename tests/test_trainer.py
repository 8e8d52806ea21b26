import hashlib

import numpy as np
import pytest

from rainproto import data as dt
from rainproto.derainnet import ModelConfig, build_model, desk_model_config
from rainproto.trainer import (
    CHECKPOINT_MAGIC,
    DIGEST_BYTES,
    AdamOptimizer,
    CheckpointError,
    TrainConfig,
    adam_update,
    desk_train_config,
    load_checkpoint,
    paper_train_config,
    sample_pair,
    save_checkpoint,
    train,
    train_step,
)


@pytest.fixture(scope="module")
def tiny_dataset():
    return [dt.gen_scene(s, 32, 4, dt.RAIN_PRESETS["medium"]) for s in range(3)]


def tiny_config(steps=2, seed=0, **kw):
    return TrainConfig(batch_size=2, steps=steps, seed=seed, model=desk_model_config(seed), **kw)


class TestConfigs:
    def test_published_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-4
        assert cfg.batch_size == 16

    def test_desk_preset_overrides_batch(self):
        assert desk_train_config().batch_size == 4

    def test_paper_preset(self):
        cfg = paper_train_config()
        assert cfg.learning_rate == 1e-4
        assert cfg.batch_size == 16
        assert cfg.model.prototype_count == 20
        assert cfg.model.feature_channels == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        for field in ("checkpoint_every", "log_every"):
            with pytest.raises(ValueError, match="nonnegative"):
                TrainConfig(**{field: -1})
            TrainConfig(**{field: 0})  # 0 turns it off


class TestSamplePair:
    def test_two_frames_always_the_pair(self, tiny_dataset):
        scene = dt.gen_scene(50, 16, 2, dt.RAIN_PRESETS["light"])
        rng = np.random.default_rng(0)
        for _ in range(50):
            f_w, f_v, sid = sample_pair([scene], rng)
            assert sid == scene.scene_id
            assert not np.array_equal(f_w, f_v)

    def test_frames_always_distinct(self, tiny_dataset):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            f_w, f_v, _ = sample_pair(tiny_dataset, rng)
            assert f_w is not f_v

    def test_scene_frequencies_near_uniform(self, tiny_dataset):
        rng = np.random.default_rng(2)
        counts = {s.scene_id: 0 for s in tiny_dataset}
        draws = 30_000
        for _ in range(draws):
            counts[sample_pair(tiny_dataset, rng)[2]] += 1
        for c in counts.values():
            assert abs(c / draws - 1 / 3) < 0.05 / 3 + 0.01  # within +-5% of uniform

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sample_pair([], np.random.default_rng(0))

    def test_single_frame_scene_rejected(self):
        scene = dt.TimeLapseScene(
            background=np.zeros((4, 4, 3)), frames=[np.zeros((4, 4, 3))], scene_id="s", seed=0
        )
        with pytest.raises(ValueError, match="at least 2"):
            sample_pair([scene], np.random.default_rng(0))


class TestAdam:
    def test_zero_grad_fresh_state_unchanged(self):
        value = np.array([1.0, -2.0])
        new, m, v = adam_update(value, np.zeros(2), np.zeros(2), np.zeros(2), t=1, lr=0.1)
        np.testing.assert_array_equal(new, value)

    def test_first_step_magnitude_is_lr(self):
        g = np.full(3, 0.37)
        new, _, _ = adam_update(np.zeros(3), g, np.zeros(3), np.zeros(3), t=1, lr=1e-3)
        np.testing.assert_allclose(np.abs(new), 1e-3, rtol=1e-6)
        assert np.all(np.sign(new) == -1.0)

    def test_equal_grads_equal_updates(self):
        g = np.array([0.5, 0.5])
        new, _, _ = adam_update(np.array([1.0, 1.0]), g, np.zeros(2), np.zeros(2), t=1, lr=0.01)
        assert new[0] == new[1]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            adam_update(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), t=1, lr=0.1)


class TestTrainStep:
    def test_initialization_properties(self, tiny_dataset):
        # zero final layer: y_hat = x identically, so the self term is 0 and the
        # background term equals the cross term (both the mean rain difference)
        cfg = tiny_config()
        model = build_model(cfg.model)
        opt = AdamOptimizer(model.parameters())
        rng = np.random.default_rng(3)
        pairs = [sample_pair(tiny_dataset, rng) for _ in range(2)]
        report = train_step(model, opt, pairs, cfg)
        assert report.s == 0.0
        assert report.b > 0.0
        assert report.c == pytest.approx(report.b, abs=1e-12)

    def test_zero_learning_rate_keeps_parameters(self, tiny_dataset):
        cfg = tiny_config(steps=2, learning_rate=0.0)
        model = build_model(cfg.model)
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        opt = AdamOptimizer(model.parameters())
        rng = np.random.default_rng(4)
        pairs = [sample_pair(tiny_dataset, rng) for _ in range(2)]
        train_step(model, opt, pairs, cfg)
        train_step(model, opt, pairs, cfg)
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, before[name])

    def test_parameters_move_with_positive_lr(self, tiny_dataset):
        cfg = tiny_config(learning_rate=1e-3)
        model = build_model(cfg.model)
        before = model.parameters()["enc1.conv1.kernel"].data.copy()
        opt = AdamOptimizer(model.parameters())
        rng = np.random.default_rng(5)
        train_step(model, opt, [sample_pair(tiny_dataset, rng)], cfg)
        assert not np.array_equal(model.parameters()["enc1.conv1.kernel"].data, before)


class TestTrain:
    def test_zero_steps_returns_initialized_model(self, tiny_dataset):
        cfg = tiny_config(steps=0)
        model, history = train(tiny_dataset, cfg)
        assert history == []
        fresh = build_model(cfg.model)
        for (name, p), (_, q) in zip(model.parameters().items(), fresh.parameters().items()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_deterministic_checkpoints(self, tiny_dataset, tmp_path):
        cfg = tiny_config(steps=3, seed=7)
        train(tiny_dataset, cfg, checkpoint_path=tmp_path / "a.ckpt")
        train(tiny_dataset, cfg, checkpoint_path=tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_golden_loss_trajectory(self, tiny_dataset):
        cfg = tiny_config(steps=4, seed=11)
        _, history = train(tiny_dataset, cfg)
        totals = [r.total for r in history]
        np.testing.assert_allclose(totals, GOLDEN_TOTALS_SEED11, rtol=0, atol=1e-9)

    def test_golden_checkpoint_bytes(self, tiny_dataset, tmp_path):
        # bit-level tripwire: any last-bit change in the objective, the
        # backward pass or Adam changes the written parameters
        # parameters; the data section's golden outlives changes of the format
        path = tmp_path / "golden.ckpt"
        train(tiny_dataset, tiny_config(steps=4, seed=11), checkpoint_path=path)
        raw = path.read_bytes()
        data = raw[header_end(raw) : -DIGEST_BYTES]
        assert hashlib.sha256(data).hexdigest() == GOLDEN_DATA_SHA256_SEED11
        assert hashlib.sha256(raw).hexdigest() == GOLDEN_CHECKPOINT_SHA256_SEED11

    def test_resume_reproduces_uninterrupted_run(self, tiny_dataset, tmp_path):
        cfg = tiny_config(steps=6, seed=13)
        _, full_history = train(tiny_dataset, cfg)

        half_cfg = tiny_config(steps=3, seed=13)
        ckpt = tmp_path / "half.ckpt"
        train(tiny_dataset, half_cfg, checkpoint_path=ckpt)
        model, opt = load_checkpoint(ckpt)
        assert opt.step_count == 3
        _, tail = train(tiny_dataset, cfg, model=model, opt=opt)
        assert len(tail) == 3
        for resumed, reference in zip(tail, full_history[3:]):
            assert abs(resumed.total - reference.total) <= 1e-9

    def test_history_log_format(self, tiny_dataset, tmp_path):
        cfg = tiny_config(steps=3, log_every=1)
        log = tmp_path / "run.log"
        train(tiny_dataset, cfg, log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == "step\tcoh\tdiv\tfea\tb\tc\ts\ttotal"
        assert len(lines) == 4
        for i, line in enumerate(lines[1:]):
            fields = line.split("\t")
            assert fields[0] == str(i)
            assert len(fields) == 8
            float(fields[-1])

    def test_no_nan_in_history(self, tiny_dataset):
        cfg = tiny_config(steps=5)
        _, history = train(tiny_dataset, cfg)
        for r in history:
            for value in (r.coh, r.div, r.fea, r.b, r.c, r.s, r.total):
                assert np.isfinite(value)


class TestCheckpoint:
    def make_state(self, seed=0, steps=2):
        cfg = tiny_config(steps=steps, seed=seed)
        ds = [dt.gen_scene(s, 32, 3, dt.RAIN_PRESETS["light"]) for s in range(2)]
        model, _ = train(ds, cfg)
        opt = AdamOptimizer(model.parameters())
        return model, opt

    def test_round_trip_bit_identical(self, tmp_path):
        model, opt = self.make_state()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, opt, path)
        loaded_model, loaded_opt = load_checkpoint(path)
        for (name, p), (_, q) in zip(model.parameters().items(), loaded_model.parameters().items()):
            assert p.data.tobytes() == q.data.tobytes(), name
        for name in opt.m:
            assert opt.m[name].tobytes() == loaded_opt.m[name].tobytes()
            assert opt.v[name].tobytes() == loaded_opt.v[name].tobytes()
        assert loaded_opt.step_count == opt.step_count
        save_checkpoint(loaded_model, loaded_opt, tmp_path / "m2.ckpt")
        assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE1\nconfig x=1\n")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        model, opt = self.make_state()
        path = tmp_path / "t.ckpt"
        save_checkpoint(model, opt, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        model, opt = self.make_state()
        path = tmp_path / "s.ckpt"
        save_checkpoint(model, opt, path)
        raw = path.read_bytes()
        corrupted = raw.replace(b"param.final.bias 3 ", b"param.final.bias 4 ", 1)
        assert corrupted != raw
        path.write_bytes(reseal(corrupted))
        with pytest.raises(CheckpointError, match="shape mismatch"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "small.ckpt"
        raw = small_checkpoint(path)
        path.write_bytes(raw + b"\0")
        with pytest.raises(CheckpointError, match="overlong"):
            load_checkpoint(path)

    def test_header_byte_fuzz_raises_only_checkpoint_error(self, tmp_path):
        # every header byte after the magic, set to 0xff, '0', ' ' and '\n':
        # each mutant must raise CheckpointError, none may load or escape as
        # anything else
        path = tmp_path / "small.ckpt"
        raw = small_checkpoint(path)
        mutant = tmp_path / "mutant.ckpt"
        loaded = []
        for i in range(len(CHECKPOINT_MAGIC), header_end(raw)):
            for value in b"\xff0 \n":
                if raw[i] == value:
                    continue
                mutant.write_bytes(raw[:i] + bytes([value]) + raw[i + 1 :])
                try:
                    load_checkpoint(mutant)
                except CheckpointError:
                    continue
                loaded.append((i, value))
        assert not loaded, f"{len(loaded)} header mutants loaded, e.g. (offset, byte) {loaded[:5]}"

    def test_data_and_digest_byte_fuzz_is_rejected(self, tmp_path):
        # spread offsets of the data section, then every digest byte, each
        # with one bit and with all bits flipped
        path = tmp_path / "small.ckpt"
        raw = small_checkpoint(path)
        data_start, digest_start = header_end(raw), len(raw) - DIGEST_BYTES
        offsets = [*np.linspace(data_start, digest_start - 1, 97).astype(int), *range(digest_start, len(raw))]
        mutant = tmp_path / "mutant.ckpt"
        for i in offsets:
            for flip in (0x01, 0xFF):
                mutant.write_bytes(raw[:i] + bytes([raw[i] ^ flip]) + raw[i + 1 :])
                with pytest.raises(CheckpointError, match="digest mismatch"):
                    load_checkpoint(mutant)


def small_checkpoint(path) -> bytes:
    """Save an untrained 8x8, 2-channel, depth-1 model; returns the file's bytes."""
    model = build_model(ModelConfig(input_size=(8, 8), base_channels=2, depth=1, prototype_count=2))
    save_checkpoint(model, AdamOptimizer(model.parameters()), path)
    return path.read_bytes()


def header_end(raw: bytes) -> int:
    return raw.index(b"\n", raw.index(b"\ndata ") + 1) + 1


def reseal(raw: bytes) -> bytes:
    """Replace the digest of an edited checkpoint, so that loading reaches the edit."""
    body = raw[:-DIGEST_BYTES]
    return body + hashlib.sha256(body).digest()


GOLDEN_TOTALS_SEED11 = [
    0.5081933781634983,
    0.5229719334693714,
    0.531188229462469,
    0.49976672374162073,
]
# sha256 of the params and Adam moments alone (frozen with the RSPU1 format)
GOLDEN_DATA_SHA256_SEED11 = "1351dd984318bbde683dc299597a1509b29c18e95d2eb95b07f8bfab87ebdfec"
GOLDEN_CHECKPOINT_SHA256_SEED11 = "e8d9428b0e3e44735a4680d232823e480fbf03006ac1a75c54b865e690799e0d"
