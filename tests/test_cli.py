import dataclasses
import filecmp
import hashlib
import os
import re
import tracemalloc

import numpy as np
import pytest

from rainproto import cli
from rainproto import data as dt
from rainproto import trainer as tr
from rainproto.cli import _resolve_train_config
from rainproto.data import read_ppm, write_dataset, write_ppm
from rainproto.derainnet import ModelConfig, build_model, desk_model_config, taped_step_bytes
from rainproto.losses import LossConfig


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def trees_equal(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files:
        return False
    for sub in cmp.common_dirs:
        if not trees_equal(os.path.join(a, sub), os.path.join(b, sub)):
            return False
    # dircmp compares os.stat by default; force byte comparison
    for name in cmp.common_files:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    code = cli.main(["gen-data", "--out", str(root), "--scenes", "3", "--frames", "3",
                     "--size", "32", "--seed", "2"])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def untrained_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "init.ckpt"
    model = build_model(desk_model_config(seed=0))
    opt = tr.AdamOptimizer(model.parameters())
    tr.save_checkpoint(model, opt, path)
    return path


class TestGenData:
    def test_file_count_law(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen-data", "--out", str(tmp_path / "d"), "--scenes", "2", "--frames", "3")
        assert code == 0
        scene_dirs = sorted(os.listdir(tmp_path / "d" / "scenes"))
        assert len(scene_dirs) == 2
        for sd in scene_dirs:
            files = sorted(os.listdir(tmp_path / "d" / "scenes" / sd))
            assert files == ["bg.ppm", "frame_0.ppm", "frame_1.ppm", "frame_2.ppm"]

    def test_byte_identical_trees(self, capsys, tmp_path):
        args = ["--scenes", "2", "--frames", "2", "--size", "16", "--seed", "9"]
        assert run(capsys, "gen-data", "--out", str(tmp_path / "a"), *args)[0] == 0
        assert run(capsys, "gen-data", "--out", str(tmp_path / "b"), *args)[0] == 0
        assert trees_equal(tmp_path / "a", tmp_path / "b")

    def test_single_frame_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "x"), "--frames", "1")
        assert code == 1
        assert err.startswith("error:")


class TestTrain:
    def test_smoke_writes_artifacts(self, capsys, dataset_dir, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        code, out, _ = run(capsys, "train", "--data", str(dataset_dir), "--out", str(ckpt),
                           "--steps", "2", "--seed", "1")
        assert code == 0
        assert ckpt.exists()
        assert (tmp_path / "model.ckpt.log").exists()
        assert "trained 2 steps" in out

    def test_missing_data_flag_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--out", str(tmp_path / "m.ckpt"))
        assert code == 1
        assert err.startswith("error:")

    def test_paper_preset_hyperparameters(self):
        parser = cli._build_parser()
        args = parser.parse_args(["train", "--data", "x", "--out", "y", "--preset", "paper"])
        cfg = _resolve_train_config(args)
        assert cfg.learning_rate == 1e-4
        assert cfg.batch_size == 16
        assert cfg.model.prototype_count == 20
        assert cfg.model.feature_channels == 128

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("steps = 7\nlambda_c = 0.25\nbatch_size = 2\n")
        parser = cli._build_parser()
        args = parser.parse_args(["train", "--data", "x", "--out", "y",
                                  "--config", str(cfg_file), "--steps", "9"])
        cfg = _resolve_train_config(args)
        assert cfg.steps == 9  # flag beats file
        assert cfg.loss.lambda_c == 0.25  # file beats preset
        assert cfg.batch_size == 2

    def test_config_keys_mirror_fields_and_flags(self):
        fields = lambda cls: {f.name for f in dataclasses.fields(cls)}  # noqa: E731
        assert set(cli._TRAIN_KEYS) == fields(tr.TrainConfig) - {"loss", "model"}
        assert set(cli._MODEL_KEYS) == fields(ModelConfig) - {"seed"}
        assert set(cli._LOSS_KEYS) == fields(LossConfig)
        parser = cli._build_parser()
        for key in (*cli._TRAIN_KEYS, *cli._MODEL_KEYS, *cli._LOSS_KEYS):
            args = parser.parse_args(["train", "--data", "x", "--out", "y", "--" + key.replace("_", "-"), "1"])
            assert getattr(args, key) is not None, key

    def test_unknown_config_key_is_usage_error(self, capsys, dataset_dir, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("warp_speed = 11\n")
        code, _, err = run(capsys, "train", "--data", str(dataset_dir),
                           "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg_file))
        assert code == 1
        assert "warp_speed" in err

    def test_removed_config_key_is_usage_error(self, capsys, dataset_dir, tmp_path):
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text("rspu_channels = 16\n")
        code, _, err = run(capsys, "train", "--data", str(dataset_dir),
                           "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg_file))
        assert code == 1
        assert "unknown config key 'rspu_channels'" in err

    def test_depth_zero_trains_at_any_width(self, capsys, dataset_dir, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        code, _, err = run(capsys, "train", "--data", str(dataset_dir), "--out", str(ckpt),
                           "--depth", "0", "--base-channels", "4", "--steps", "1")
        assert code == 0, err
        model, _ = tr.load_checkpoint(ckpt)
        assert model.config.feature_channels == 4

    @pytest.mark.parametrize("flags", [("--input-size", "0"), ("--base-channels", "0"),
                                       ("--checkpoint-every", "-1"), ("--log-every", "-1")])
    def test_out_of_range_value_is_usage_error(self, capsys, dataset_dir, tmp_path, flags):
        ckpt = tmp_path / "m.ckpt"
        code, _, err = run(capsys, "train", "--data", str(dataset_dir), "--out", str(ckpt),
                           "--steps", "1", *flags)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert not ckpt.exists()

    def test_one_prototype_is_usage_error(self, capsys, dataset_dir, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        code, _, err = run(capsys, "train", "--data", str(dataset_dir), "--out", str(ckpt),
                           "--steps", "1", "--prototype-count", "1")
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "prototype_count must be at least 2" in err
        assert not ckpt.exists()

    def test_size_mismatch_is_data_error(self, capsys, tmp_path):
        small = tmp_path / "small"
        write_dataset([dt.gen_scene(0, 16, 2, dt.RAIN_PRESETS["light"])], small)
        code, _, err = run(capsys, "train", "--data", str(small), "--out", str(tmp_path / "m.ckpt"),
                           "--steps", "1")
        assert code == 2
        assert "16x16" in err

    def test_single_frame_scene_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "one_frame"
        scene = dt.gen_scene(0, 32, 2, dt.RAIN_PRESETS["light"])
        write_dataset([scene], data)
        (data / "manifest.txt").write_text(f"{scene.scene_id} 1 0\n")
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                           "--steps", "1")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "at least 2" in err


class TestTrainMemoryPreflight:
    def test_paper_preset_is_refused(self, capsys, monkeypatch, dataset_dir, tmp_path):
        monkeypatch.setattr(cli, "_available_memory_bytes", lambda: 8 * 2**30)
        ckpt = tmp_path / "m.ckpt"
        code, _, err = run(capsys, "train", "--data", str(dataset_dir), "--out", str(ckpt), "--preset", "paper")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert re.search(r"estimated \d+\.\d GiB", err) and "8.0 GiB is available" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("available", [256 * 2**20, None])
    def test_desk_preset_is_never_refused(self, capsys, monkeypatch, dataset_dir, tmp_path, available):
        monkeypatch.setattr(cli, "_available_memory_bytes", lambda: available)
        code, _, err = run(capsys, "train", "--data", str(dataset_dir), "--out", str(tmp_path / "m.ckpt"),
                           "--steps", "1")
        assert code == 0, err

    @pytest.mark.parametrize("preset,size,batch", [("desk", 32, 4), ("paper", 32, 1), ("paper", 64, 1)])
    def test_estimate_is_most_of_a_measured_step(self, preset, size, batch):
        base = tr.desk_train_config() if preset == "desk" else tr.paper_train_config()
        cfg = dataclasses.replace(base, batch_size=batch,
                                  model=dataclasses.replace(base.model, input_size=(size, size)))
        scenes = [dt.gen_scene(s, size, 2, dt.RAIN_PRESETS["medium"]) for s in range(2)]
        model = build_model(cfg.model)
        opt = tr.AdamOptimizer(model.parameters())
        pairs = [tr.sample_pair(scenes, np.random.default_rng(i)) for i in range(batch)]
        tracemalloc.start()
        try:
            tr.train_step(model, opt, pairs, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = taped_step_bytes(cfg.model, 2 * batch)
        assert 0.6 * peak < estimate < peak


class TestDerain:
    def test_identity_checkpoint_reproduces_input(self, capsys, dataset_dir, untrained_ckpt, tmp_path):
        src = dataset_dir / "scenes" / "scene_000002" / "frame_0.ppm"
        clean = tmp_path / "clean.ppm"
        rain = tmp_path / "rain.ppm"
        code, _, _ = run(capsys, "derain", "--ckpt", str(untrained_ckpt), "--in", str(src),
                         "--out-clean", str(clean), "--out-rain", str(rain))
        assert code == 0
        original = read_ppm(src)
        output = read_ppm(clean)
        assert output.shape == original.shape
        assert np.abs(output - original).max() <= 1.0 / 255.0
        assert read_ppm(rain).shape == original.shape

    def test_outputs_are_valid_p6(self, capsys, dataset_dir, untrained_ckpt, tmp_path):
        src = dataset_dir / "scenes" / "scene_000002" / "frame_1.ppm"
        clean = tmp_path / "c.ppm"
        run(capsys, "derain", "--ckpt", str(untrained_ckpt), "--in", str(src),
            "--out-clean", str(clean), "--out-rain", str(tmp_path / "r.ppm"))
        assert clean.read_bytes().startswith(b"P6\n32 32\n255\n")

    def test_deterministic_outputs(self, capsys, dataset_dir, untrained_ckpt, tmp_path):
        src = dataset_dir / "scenes" / "scene_000003" / "frame_0.ppm"
        for tag in ("1", "2"):
            run(capsys, "derain", "--ckpt", str(untrained_ckpt), "--in", str(src),
                "--out-clean", str(tmp_path / f"c{tag}.ppm"), "--out-rain", str(tmp_path / f"r{tag}.ppm"))
        assert (tmp_path / "c1.ppm").read_bytes() == (tmp_path / "c2.ppm").read_bytes()
        assert (tmp_path / "r1.ppm").read_bytes() == (tmp_path / "r2.ppm").read_bytes()

    def test_size_mismatch_reports_both_shapes(self, capsys, untrained_ckpt, tmp_path):
        src = tmp_path / "big.ppm"
        write_ppm(src, np.zeros((64, 64, 3)))
        code, _, err = run(capsys, "derain", "--ckpt", str(untrained_ckpt), "--in", str(src),
                           "--out-clean", str(tmp_path / "c.ppm"), "--out-rain", str(tmp_path / "r.ppm"))
        assert code == 2
        assert "64x64" in err and "32x32" in err

    def test_bad_checkpoint_is_data_error(self, capsys, dataset_dir, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        src = dataset_dir / "scenes" / "scene_000002" / "frame_0.ppm"
        code, _, err = run(capsys, "derain", "--ckpt", str(bad), "--in", str(src),
                           "--out-clean", str(tmp_path / "c.ppm"), "--out-rain", str(tmp_path / "r.ppm"))
        assert code == 2
        assert err.startswith("error:")

    def test_non_ascii_header_is_data_error(self, capsys, dataset_dir, untrained_ckpt, tmp_path):
        raw = untrained_ckpt.read_bytes()
        at = raw.index(b"config ") + len(b"config ")
        bad = tmp_path / "bad.ckpt"
        body = raw[:at] + b"\xff" + raw[at + 1 : -tr.DIGEST_BYTES]
        bad.write_bytes(body + hashlib.sha256(body).digest())  # resealed: decoding is what fails
        src = dataset_dir / "scenes" / "scene_000002" / "frame_0.ppm"
        code, _, err = run(capsys, "derain", "--ckpt", str(bad), "--in", str(src),
                           "--out-clean", str(tmp_path / "c.ppm"), "--out-rain", str(tmp_path / "r.ppm"))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


    @pytest.mark.parametrize("command", ["derain", "eval"])
    def test_previous_format_is_data_error(self, capsys, dataset_dir, untrained_ckpt, tmp_path, command):
        old = tmp_path / "old.ckpt"
        old.write_bytes(rspu1_bytes(untrained_ckpt.read_bytes()))
        if command == "derain":
            src = dataset_dir / "scenes" / "scene_000002" / "frame_0.ppm"
            rest = ["--in", str(src), "--out-clean", str(tmp_path / "c.ppm"), "--out-rain", str(tmp_path / "r.ppm")]
        else:
            rest = ["--data", str(dataset_dir)]
        code, out, err = run(capsys, command, "--ckpt", str(old), *rest)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "RSPU1" in err and "RSPU2" in err
        assert out == ""


def rspu1_bytes(raw: bytes) -> bytes:
    """The previous format's file for the untrained desk seed-0 model that ``raw`` holds:
    magic RSPU1, the config line with its two derived fields, no digest."""
    _, _, rest = raw[: -tr.DIGEST_BYTES].split(b"\n", 2)
    config = (b"config input_h=32 input_w=32 base_channels=8 depth=2 rspu_channels=16"
              b" prototype_count=4 rspu_placement=bottleneck seed=0")
    return b"RSPU1\n" + config + b"\n" + rest


class TestEval:
    def test_untrained_model_matches_rainy_metrics(self, capsys, dataset_dir, untrained_ckpt):
        code, out, _ = run(capsys, "eval", "--ckpt", str(untrained_ckpt), "--data", str(dataset_dir))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "scene\tpsnr_rainy\tssim_rainy\tpsnr_derained\tssim_derained"
        assert lines[-1].startswith("mean\t")
        for line in lines[1:]:
            _, pr, sr, pd, sd = line.split("\t")
            assert abs(float(pr) - float(pd)) < 0.05
            assert abs(float(sr) - float(sd)) < 0.005

    def test_rain_free_dataset_hits_sentinels(self, capsys, untrained_ckpt, tmp_path):
        # frames identical to the background: rainy PSNR is the inf sentinel, SSIM 1
        scene = dt.gen_scene(4, 32, 2, dt.RainParams(count=(0, 0), fog=0.0))
        write_dataset([scene], tmp_path / "clean")
        code, out, _ = run(capsys, "eval", "--ckpt", str(untrained_ckpt), "--data", str(tmp_path / "clean"))
        assert code == 0
        row = out.strip().splitlines()[1].split("\t")
        assert row[1] == "inf"
        assert float(row[2]) == 1.0


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0")
        assert code == 0
        assert "all" in out and "passed" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_passes_across_seeds(self, capsys, seed):
        code, out, _ = run(capsys, "gradcheck", "--seed", str(seed), "--sizes", "3x3x2")
        assert code == 0

    def test_corrupted_derivative_detected(self, capsys, monkeypatch):
        monkeypatch.setenv("RSPU_GRADCHECK_CORRUPT", "conv2d")
        code, out, err = run(capsys, "gradcheck", "--seed", "0")
        assert code == 3
        assert "FAIL\tconv2d" in out
        assert "conv2d" in err

    def test_bad_sizes_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--sizes", "4x4")
        assert code == 1
        assert err.startswith("error:")


class TestErrorSurface:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("error:")

    def test_missing_dataset_is_data_error(self, capsys, untrained_ckpt, tmp_path):
        code, _, err = run(capsys, "eval", "--ckpt", str(untrained_ckpt), "--data", str(tmp_path / "nope"))
        assert code == 2
        assert err.startswith("error:")
