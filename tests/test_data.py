import time

import numpy as np
import pytest

from rainproto import data as dt
from rainproto.data import (
    PpmError,
    RainParams,
    TimeLapseScene,
    denormalize,
    frame_rain_seed,
    gen_background,
    gen_rain_layer,
    gen_scene,
    normalize,
    read_ppm,
    write_ppm,
)
from rainproto.numerics import Graph, Tensor, backward, reduce_sum


class TestBackground:
    def test_deterministic(self):
        a = gen_background(11, 32)
        b = gen_background(11, 32)
        np.testing.assert_array_equal(a, b)

    def test_range(self):
        for seed in range(10):
            img = gen_background(seed, (24, 40))
            assert img.shape == (24, 40, 3)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_distinct_across_seeds(self):
        # threshold frozen after measuring over 100 seed pairs
        diffs = []
        for seed in range(100):
            a = gen_background(seed, 32)
            b = gen_background(seed + 1000, 32)
            diffs.append(np.abs(a - b).mean())
        assert min(diffs) > 0.01


class TestRainLayer:
    def test_no_streaks_no_fog_is_zero(self):
        layer = gen_rain_layer(RainParams(count=(0, 0), fog=0.0), 3, 32)
        np.testing.assert_array_equal(layer, 0.0)

    def test_nonnegative(self):
        for seed in range(10):
            layer = gen_rain_layer(dt.RAIN_PRESETS["heavy"], seed, 32)
            assert layer.min() >= 0.0

    def test_deterministic(self):
        p = dt.RAIN_PRESETS["medium"]
        np.testing.assert_array_equal(gen_rain_layer(p, 5, 32), gen_rain_layer(p, 5, 32))

    def test_fog_is_uniform_floor(self):
        layer = gen_rain_layer(RainParams(count=(0, 0), fog=0.07), 4, 16)
        np.testing.assert_allclose(layer, 0.07)

    def test_golden_checksum(self):
        # frozen from the first verified run; depends on this BLAS build
        import hashlib

        layer = gen_rain_layer(dt.RAIN_PRESETS["medium"], 12345, 32)
        digest = hashlib.sha256(layer.tobytes()).hexdigest()
        assert digest == GOLDEN_RAIN_SHA256


class TestScene:
    def test_frames_compose_background_plus_rain(self):
        params = dt.RAIN_PRESETS["medium"]
        scene = gen_scene(21, 32, 4, params)
        for t, frame in enumerate(scene.frames):
            rain = gen_rain_layer(params, frame_rain_seed(21, t), 32)
            np.testing.assert_array_equal(frame, np.clip(scene.background + rain[:, :, None], 0.0, 1.0))
            assert frame.min() >= 0.0 and frame.max() <= 1.0

    def test_frames_differ_pairwise(self):
        scene = gen_scene(22, 32, 5, dt.RAIN_PRESETS["medium"])
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.abs(scene.frames[i] - scene.frames[j]).max() > 0.0

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            gen_scene(23, 32, 1, dt.RAIN_PRESETS["medium"])

    def test_generation_speed(self):
        start = time.monotonic()
        gen_scene(24, 64, 30, dt.RAIN_PRESETS["medium"])
        assert time.monotonic() - start < 1.0


class TestNormalize:
    def test_endpoints(self):
        out = normalize(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(out.data, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_round_trip(self):
        img = np.random.default_rng(0).uniform(0, 1, (8, 8, 3))
        np.testing.assert_allclose(denormalize(normalize(img)), img, atol=1e-15)

    def test_gradient_is_two(self):
        x = Tensor(np.full((3, 3), 0.25), requires_grad=True)
        g = Graph()
        with g:
            loss = reduce_sum(normalize(x))
        backward(loss, g)
        np.testing.assert_array_equal(x.grad, 2.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            normalize(np.array([1.2]))
        with pytest.raises(ValueError, match="0, 1"):
            normalize(np.array([-0.1]))


class TestPpm:
    def test_single_red_pixel_bytes(self, tmp_path):
        path = tmp_path / "red.ppm"
        write_ppm(path, np.array([[[1.0, 0.0, 0.0]]]))
        assert path.read_bytes() == b"P6\n1 1\n255\n\xff\x00\x00"

    def test_round_trip_error_bound(self, tmp_path):
        img = np.random.default_rng(1).uniform(0, 1, (9, 7, 3))
        path = tmp_path / "rt.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert np.abs(back - img).max() <= 1.0 / 255.0

    def test_writer_is_byte_deterministic(self, tmp_path):
        img = np.random.default_rng(3).uniform(0, 1, (6, 6, 3))
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_ppm(p1, img)
        write_ppm(p2, img)
        assert p1.read_bytes() == p2.read_bytes()

    def test_comment_round_trip(self, tmp_path):
        img = np.random.default_rng(4).uniform(0, 1, (4, 4, 3))
        path = tmp_path / "c.ppm"
        write_ppm(path, img, comment="rain layer remapped: min=-1 max=2")
        assert b"# rain layer remapped" in path.read_bytes()
        back = read_ppm(path)
        assert back.shape == (4, 4, 3)

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        for magic in (b"P7", b"P5"):  # P5 is grayscale PGM
            path.write_bytes(magic + b"\n1 1\n255\n\x00\x00\x00")
            with pytest.raises(PpmError, match="unsupported magic"):
                read_ppm(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(PpmError, match="truncated pixel data"):
            read_ppm(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "hdr.ppm"
        path.write_bytes(b"P6\n2 ")
        with pytest.raises(PpmError, match="byte"):
            read_ppm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "mv.ppm"
        path.write_bytes(b"P6\n1 1\n254\n\x00\x00\x00")
        with pytest.raises(PpmError, match="maxval"):
            read_ppm(path)

    def test_non_numeric_dimension(self, tmp_path):
        path = tmp_path / "dim.ppm"
        path.write_bytes(b"P6\nab 1\n255\n\x00\x00\x00")
        with pytest.raises(PpmError, match="width"):
            read_ppm(path)


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        scenes = [gen_scene(s, 16, 3, dt.RAIN_PRESETS["light"]) for s in (5, 9)]
        dt.write_dataset(scenes, tmp_path)
        loaded = dt.load_dataset(tmp_path)
        assert [s.scene_id for s in loaded] == ["scene_000005", "scene_000009"]
        assert [s.seed for s in loaded] == [5, 9]
        for orig, back in zip(scenes, loaded):
            assert len(back.frames) == 3
            assert np.abs(back.background - orig.background).max() <= 1.0 / 255.0

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(dt.DatasetError, match="manifest"):
            dt.load_dataset(tmp_path)

    def test_frame_shape_must_match_background(self, tmp_path):
        dt.write_dataset([gen_scene(5, 16, 3, dt.RAIN_PRESETS["light"])], tmp_path)
        write_ppm(tmp_path / "scenes" / "scene_000005" / "frame_1.ppm", np.zeros((8, 16, 3)))
        with pytest.raises(dt.DatasetError, match="frame_1.ppm is 8x16 but bg.ppm is 16x16"):
            dt.load_dataset(tmp_path)

    def test_malformed_manifest(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("only_two fields\n")
        with pytest.raises(dt.DatasetError, match="scene_id"):
            dt.load_dataset(tmp_path)


GOLDEN_RAIN_SHA256 = "0dc18b24cfc9441c610ba8843348ecdcd994b87a19c74e1c45de0dea1928bb71"
