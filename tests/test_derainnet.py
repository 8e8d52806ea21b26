import hashlib
import tracemalloc

import numpy as np
import pytest

from rainproto import numerics as nm
from rainproto.data import normalize
from rainproto.derainnet import ModelConfig, build_model, decode, derain, desk_model_config, encode, paper_model_config
from rainproto.gradcheck import _end_to_end_check
from rainproto.numerics import Tensor


def desk_model(seed=0):
    return build_model(desk_model_config(seed=seed))


def rand_input(seed, size=32):
    return Tensor(np.random.default_rng(seed).uniform(-0.95, 0.95, (size, size, 3)))


class TestModelConfig:
    def test_desk_preset(self):
        cfg = desk_model_config()
        assert cfg.input_size == (32, 32)
        assert cfg.feature_channels == 16
        assert cfg.prototype_count == 4
        assert cfg.depth == 2

    def test_paper_preset(self):
        cfg = paper_model_config()
        assert cfg.input_size == (256, 256)
        assert cfg.feature_channels == 128
        assert cfg.prototype_count == 20
        assert cfg.depth == 0  # the prototype unit runs at full resolution

    def test_indivisible_input_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(input_size=(30, 30), depth=2, base_channels=8)

    @pytest.mark.parametrize("kw", [{"input_size": 0}, {"input_size": (32, -32)}, {"base_channels": 0}])
    def test_nonpositive_size_or_width_rejected(self, kw):
        with pytest.raises(ValueError, match="must be positive"):
            ModelConfig(**kw)

    def test_fewer_than_two_prototypes_rejected(self):
        # the divergence loss needs a pair; refuse the config, not the first step
        for count in (1, 0):
            with pytest.raises(ValueError, match="at least 2"):
                ModelConfig(prototype_count=count)


class TestBuildModel:
    def test_same_seed_bit_identical(self):
        p1 = build_model(desk_model_config(seed=9)).parameters()
        p2 = build_model(desk_model_config(seed=9)).parameters()
        assert p1.keys() == p2.keys()
        for name in p1:
            np.testing.assert_array_equal(p1[name].data, p2[name].data)

    def test_different_seeds_differ(self):
        p1 = build_model(desk_model_config(seed=1)).parameters()
        p2 = build_model(desk_model_config(seed=2)).parameters()
        assert any(not np.array_equal(p1[n].data, p2[n].data) for n in p1)

    def test_desk_parameter_count_under_budget(self):
        assert sum(t.size for t in desk_model().parameters().values()) < 100_000

    def test_depth_zero_is_single_block(self):
        cfg = ModelConfig(input_size=(16, 16), base_channels=8, depth=0, prototype_count=2)
        model = build_model(cfg)
        assert len(model.encoder) == 1
        assert len(model.decoder) == 0
        features, skips = encode(model, rand_input(0, 16))
        assert features.shape == (16, 16, 8)
        assert skips == []

    def test_final_layer_zero_initialized(self):
        model = desk_model()
        np.testing.assert_array_equal(model.final.kernel.data, 0.0)
        np.testing.assert_array_equal(model.final.bias.data, 0.0)


class TestEncodeDecode:
    def test_bottleneck_shape(self):
        features, skips = encode(desk_model(), rand_input(1))
        assert features.shape == (8, 8, 16)
        assert [s.shape for s in skips] == [(32, 32, 8), (16, 16, 16)]

    def test_zero_input_zero_features(self):
        features, skips = encode(desk_model(), Tensor(np.zeros((32, 32, 3))))
        np.testing.assert_array_equal(features.data, 0.0)
        for s in skips:
            np.testing.assert_array_equal(s.data, 0.0)

    def test_wrong_input_shape(self):
        with pytest.raises(ValueError, match="shape"):
            encode(desk_model(), rand_input(2, 16))

    def test_decode_restores_input_resolution(self):
        model = desk_model(3)
        features, skips = encode(model, rand_input(3))
        fused = nm.mul(features, 1.0)
        assert decode(model, fused, skips).shape == (32, 32, 3)

    def test_zero_everything_decodes_to_zero(self):
        model = desk_model(4)
        fused = Tensor(np.zeros((8, 8, 16)))
        skips = [Tensor(np.zeros((32, 32, 8))), Tensor(np.zeros((16, 16, 16)))]
        np.testing.assert_array_equal(decode(model, fused, skips).data, 0.0)

    def test_feature_checksum_is_reproducible(self):
        # golden from the first verified run; depends on this BLAS build
        features, _ = encode(desk_model(7), Tensor(np.random.default_rng(70).uniform(-1, 1, (32, 32, 3))))
        digest = hashlib.sha256(features.data.tobytes()).hexdigest()
        assert digest == GOLDEN_FEATURES_SHA256


class TestDerain:
    def test_identity_at_initialization(self):
        model = desk_model(5)
        x = rand_input(5)
        out = derain(model, x)
        np.testing.assert_array_equal(out.y_hat.data, x.data)
        np.testing.assert_array_equal(out.r_hat.data, 0.0)

    def test_clamp_engages_on_large_rain(self):
        model = desk_model(6)
        model.final.bias.data = np.array([2.0, 2.0, 2.0])  # forces r_hat ~ 2 everywhere
        x = Tensor(np.full((32, 32, 3), 0.5))
        out = derain(model, x)
        np.testing.assert_allclose(out.r_hat.data, 2.0, atol=1e-12)
        np.testing.assert_array_equal(out.y_hat.data, -1.0)

    def test_decomposition_where_not_clamped(self):
        model = desk_model(7)
        model.final.bias.data = np.array([0.05, -0.03, 0.08])
        x = Tensor(np.random.default_rng(8).uniform(-0.5, 0.5, (32, 32, 3)))
        out = derain(model, x)
        np.testing.assert_allclose(out.y_hat.data + out.r_hat.data, x.data, atol=1e-12)

    def test_output_always_in_range(self):
        rng = np.random.default_rng(9)
        model = desk_model(9)
        for name, p in model.parameters().items():
            p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)
        out = derain(model, rand_input(10))
        assert out.y_hat.data.min() >= -1.0
        assert out.y_hat.data.max() <= 1.0

    def test_rejects_out_of_range_input(self):
        with pytest.raises(ValueError, match="normalized"):
            derain(desk_model(), Tensor(np.full((32, 32, 3), 1.5)))

    def test_forward_deterministic(self):
        x = rand_input(11)
        a = derain(desk_model(11), x)
        b = derain(desk_model(11), x)
        assert a.y_hat.data.tobytes() == b.y_hat.data.tobytes()
        assert a.r_hat.data.tobytes() == b.r_hat.data.tobytes()

    def test_rhat_checksum_is_reproducible(self):
        model = desk_model(12)
        rng = np.random.default_rng(12)
        for p in model.parameters().values():
            p.data = p.data + rng.normal(0.0, 0.05, p.data.shape)
        out = derain(model, rand_input(12))
        digest = hashlib.sha256(out.r_hat.data.tobytes()).hexdigest()
        assert digest == GOLDEN_RHAT_SHA256


class TestPaperSizeMemory:
    def test_untaped_derain_peak_stays_below_five_feature_maps(self):
        # untaped convolutions build their 9*C-wide patch matrix in row blocks;
        # one whole patch matrix alone would be 9 feature maps
        model = build_model(paper_model_config(seed=0))
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (256, 256, 3)))
        tracemalloc.start()
        try:
            out = derain(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * out.features.data.nbytes


class TestEndToEndGradients:
    def test_total_loss_gradients_on_16x16_instance(self):
        result = _end_to_end_check(np.random.default_rng(123))
        assert result.passed, f"max rel err {result.max_rel_err:.3e}"


GOLDEN_FEATURES_SHA256 = "1c9135dc38b1968c43370e32004c1ece5d17c187ed5bfdf4bc1fc7c9cc7e541d"
GOLDEN_RHAT_SHA256 = "b96eb01824a22a781d34c2164854a149f39f66dc24309b7b856375dafb41e16c"
