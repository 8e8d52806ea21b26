import numpy as np
import pytest

from _oracles import rspu_reference
from rainproto import numerics as nm
from rainproto import rspu
from rainproto.numerics import Graph, Tensor, backward, finite_diff_grad


def make_bank(c, m, seed):
    return rspu.AttentionBank.create(c, m, np.random.default_rng(seed))


def rand_features(shape, seed):
    return Tensor(np.random.default_rng(seed).uniform(-1.0, 1.0, shape))


class TestAttentionWeights:
    def test_zero_bank_gives_half_everywhere(self):
        bank = rspu.AttentionBank(
            weight=Tensor(np.zeros((1, 1, 3, 2)), requires_grad=True),
            bias=Tensor(np.zeros(2), requires_grad=True),
        )
        w = rspu.attention_weights(rand_features((4, 4, 3), 0), bank)
        np.testing.assert_array_equal(w.data, 0.5)

    def test_unit_weight_known_value(self):
        bank = rspu.AttentionBank(
            weight=Tensor(np.array([1.0, 0.0]).reshape(1, 1, 2, 1)),
            bias=Tensor(np.zeros(1)),
        )
        x = Tensor(np.array([[[1.0, -5.3]]]))
        w = rspu.attention_weights(x, bank)
        assert w.data[0, 0, 0] == pytest.approx(0.7310585786, abs=1e-10)

    def test_shape_law(self):
        w = rspu.attention_weights(rand_features((4, 4, 3), 1), make_bank(3, 3, 2))
        assert w.shape == (4, 4, 3)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="bank"):
            rspu.attention_weights(rand_features((4, 4, 5), 3), make_bank(3, 2, 4))

    def test_entries_are_probabilities(self):
        w = rspu.attention_weights(rand_features((6, 6, 4), 5), make_bank(4, 3, 6))
        assert np.all(w.data > 0.0) and np.all(w.data < 1.0)


class TestFormPrototypes:
    def test_uniform_weights_give_mean(self):
        x = rand_features((3, 5, 4), 7)
        weights = Tensor(np.full((3, 5, 2), 0.37))
        p = rspu.form_prototypes(x, weights)
        mean = x.data.reshape(15, 4).mean(axis=0)
        np.testing.assert_allclose(p.data, np.stack([mean, mean]), atol=1e-12)

    def test_near_one_hot_selects_pixel(self):
        x = rand_features((2, 2, 3), 8)
        w = np.full((2, 2, 1), 1e-12)
        w[1, 0, 0] = 1.0  # pixel index 2 in row-major order
        p = rspu.form_prototypes(x, Tensor(w))
        np.testing.assert_allclose(p.data[0], x.data[1, 0], atol=1e-9)

    def test_two_pixel_hand_case(self):
        x = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 2, 2))
        weights = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1))
        p = rspu.form_prototypes(x, weights)
        np.testing.assert_allclose(p.data, [[0.25, 0.75]], atol=1e-15)

    def test_degenerate_zero_column_rejected(self):
        x = rand_features((2, 2, 3), 9)
        with pytest.raises(ValueError, match="nonpositive"):
            rspu.form_prototypes(x, Tensor(np.zeros((2, 2, 2))))

    def test_spatial_mismatch(self):
        with pytest.raises(ValueError, match="spatial"):
            rspu.form_prototypes(rand_features((2, 2, 3), 10), Tensor(np.ones((3, 2, 1))))


class TestRelevanceScores:
    def test_single_prototype_degenerate(self):
        alpha = rspu.relevance_scores(rand_features((3, 3, 4), 11), rand_features((1, 4), 12))
        np.testing.assert_array_equal(alpha.data, 1.0)

    def test_orthogonal_features_uniform(self):
        x = Tensor(np.zeros((2, 2, 3)))  # zero dot products with every prototype
        alpha = rspu.relevance_scores(x, rand_features((4, 3), 13))
        np.testing.assert_allclose(alpha.data, 0.25, atol=1e-15)

    def test_two_way_softmax(self):
        x = Tensor(np.array([[[1.0, 0.0]]]))
        prototypes = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        alpha = rspu.relevance_scores(x, prototypes)
        np.testing.assert_allclose(alpha.data, [[0.7310586, 0.2689414]], atol=1e-7)


class TestReadout:
    def test_one_hot_returns_prototype(self):
        prototypes = rand_features((3, 4), 14)
        alpha = np.zeros((2, 3))
        alpha[:, 1] = 1.0
        out = rspu.readout(Tensor(alpha), prototypes, (1, 2))
        np.testing.assert_array_equal(out.data[0, 0], prototypes.data[1])

    def test_uniform_returns_mean(self):
        prototypes = rand_features((4, 3), 15)
        out = rspu.readout(Tensor(np.full((1, 4), 0.25)), prototypes, (1, 1))
        np.testing.assert_allclose(out.data[0, 0], prototypes.data.mean(axis=0), atol=1e-15)

    def test_weighted_sum_hand_case(self):
        prototypes = Tensor(np.array([[4.0, 0.0], [0.0, 4.0]]))
        out = rspu.readout(Tensor(np.array([[0.25, 0.75]])), prototypes, (1, 1))
        np.testing.assert_allclose(out.data[0, 0], [1.0, 3.0], atol=1e-15)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError, match="relevance"):
            rspu.readout(Tensor(np.ones((2, 3))), rand_features((2, 4), 16), (1, 2))


class TestFuse:
    def test_zero_hat_is_identity(self):
        x = rand_features((2, 2, 3), 17)
        np.testing.assert_array_equal(rspu.fuse(x, Tensor(np.zeros((2, 2, 3)))).data, x.data)

    def test_zero_x_returns_hat(self):
        xh = rand_features((2, 2, 3), 18)
        np.testing.assert_array_equal(rspu.fuse(Tensor(np.zeros((2, 2, 3))), xh).data, xh.data)

    def test_sum(self):
        out = rspu.fuse(Tensor(np.array([[[1.0, 2.0]]])), Tensor(np.array([[[3.0, -1.0]]])))
        np.testing.assert_array_equal(out.data, [[[4.0, 1.0]]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            rspu.fuse(rand_features((2, 2, 3), 19), rand_features((2, 2, 4), 20))


class TestRspuForward:
    def test_constant_input(self):
        c = np.array([0.3, -0.2, 0.6])
        x = Tensor(np.broadcast_to(c, (4, 4, 3)).copy())
        fused, prototypes, alpha = rspu.rspu_forward(x, make_bank(3, 2, 21))
        np.testing.assert_allclose(prototypes.data, np.stack([c, c]), atol=1e-12)
        np.testing.assert_allclose(fused.data, np.broadcast_to(2 * c, (4, 4, 3)), atol=1e-12)
        np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, atol=1e-12)

    def test_shape_law(self):
        fused, prototypes, alpha = rspu.rspu_forward(rand_features((4, 4, 3), 22), make_bank(3, 2, 23))
        assert fused.shape == (4, 4, 3)
        assert prototypes.shape == (2, 3)
        assert alpha.shape == (16, 2)

    def test_matches_scalar_loop_reference(self):
        for seed in range(5):
            x = rand_features((2, 2, 2), 300 + seed)
            bank = make_bank(2, 2, 400 + seed)
            fused, prototypes, alpha = rspu.rspu_forward(x, bank)
            ref_fused, ref_p, ref_a = rspu_reference(x.data, bank.weight.data, bank.bias.data)
            np.testing.assert_allclose(fused.data, ref_fused, atol=1e-12)
            np.testing.assert_allclose(prototypes.data, ref_p, atol=1e-12)
            np.testing.assert_allclose(alpha.data, ref_a, atol=1e-12)


class TestInvariants:
    N = 100

    def test_convex_hull_containment(self):
        for seed in range(self.N):
            x = rand_features((3, 4, 3), 1000 + seed)
            _, prototypes, _ = rspu.rspu_forward(x, make_bank(3, 3, 2000 + seed))
            flat = x.data.reshape(-1, 3)
            lo, hi = flat.min(axis=0), flat.max(axis=0)
            assert np.all(prototypes.data >= lo - 1e-9)
            assert np.all(prototypes.data <= hi + 1e-9)

    def test_relevance_rows_stochastic(self):
        for seed in range(self.N):
            x = rand_features((3, 3, 2), 3000 + seed)
            _, _, alpha = rspu.rspu_forward(x, make_bank(2, 4, 4000 + seed))
            np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, atol=1e-10)
            assert np.all(alpha.data >= 0.0) and np.all(alpha.data <= 1.0)

    def test_spatial_permutation_equivariance(self):
        for seed in range(self.N):
            rng = np.random.default_rng(5000 + seed)
            x = Tensor(rng.uniform(-1, 1, (3, 4, 3)))
            bank = make_bank(3, 2, 6000 + seed)
            perm = rng.permutation(12)
            x_perm = Tensor(x.data.reshape(12, 3)[perm].reshape(3, 4, 3))
            fused, prototypes, _ = rspu.rspu_forward(x, bank)
            fused_p, prototypes_p, _ = rspu.rspu_forward(x_perm, bank)
            np.testing.assert_allclose(prototypes_p.data, prototypes.data, atol=1e-12)
            np.testing.assert_allclose(
                fused_p.data.reshape(12, 3), fused.data.reshape(12, 3)[perm], atol=1e-12
            )

    def test_weight_scale_invariance(self):
        for seed in range(self.N):
            rng = np.random.default_rng(7000 + seed)
            x = Tensor(rng.uniform(-1, 1, (3, 3, 2)))
            weights = rng.uniform(0.05, 1.0, (3, 3, 3))
            scales = rng.uniform(0.1, 10.0, 3)
            p1 = rspu.form_prototypes(x, Tensor(weights))
            p2 = rspu.form_prototypes(x, Tensor(weights * scales))
            np.testing.assert_allclose(p2.data, p1.data, atol=1e-12)


class TestGradients:
    def test_forward_gradients_match_finite_diff(self):
        x = Tensor(np.random.default_rng(50).uniform(-1, 1, (4, 4, 3)), requires_grad=True)
        bank = make_bank(3, 2, 51)
        proj = rand_features((4, 4, 3), 52)

        def loss_fn():
            fused, prototypes, alpha = rspu.rspu_forward(x, bank)
            return nm.add(
                nm.reduce_mean(nm.mul(fused, proj)),
                nm.add(nm.reduce_mean(nm.mul(prototypes, prototypes)), nm.reduce_mean(nm.mul(alpha, alpha))),
            )

        g = Graph()
        with g:
            loss = loss_fn()
        backward(loss, g)
        for t in (x, bank.weight, bank.bias):
            ad = t.grad.copy()
            fd = finite_diff_grad(lambda _: loss_fn(), t)  # perturbs t in place
            rel = np.abs(ad - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-5
