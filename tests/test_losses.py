import numpy as np
import pytest

from rainproto import losses as ls
from rainproto import numerics as nm
from rainproto.losses import LossConfig, LossReport
from rainproto.numerics import Graph, Tensor, backward, finite_diff_grad


def rand(shape, seed, lo=-1.0, hi=1.0, requires_grad=False):
    return Tensor(np.random.default_rng(seed).uniform(lo, hi, shape), requires_grad=requires_grad)


class TestLossConfig:
    def test_published_defaults(self):
        cfg = LossConfig()
        assert cfg.lambda_a == 0.1
        assert cfg.delta == 1.0
        assert cfg.lambda_c == 0.1
        assert cfg.lambda_s == 0.001
        assert cfg.lambda_f == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            LossConfig(lambda_c=-0.1)
        with pytest.raises(ValueError):
            LossConfig(delta=0.0)


class TestCohesion:
    def test_zero_when_features_sit_on_prototypes(self):
        prototypes = rand((3, 4), 0)
        idx = np.array([0, 2, 1, 2])
        x = Tensor(prototypes.data[idx].reshape(2, 2, 4))
        alpha = np.full((4, 3), 0.1)
        alpha[np.arange(4), idx] = 0.8
        assert ls.cohesion_loss(x, prototypes, Tensor(alpha)).item() == 0.0

    def test_single_pixel_hand_norm(self):
        x = Tensor(np.array([[[1.0, 1.0]]]))
        prototypes = Tensor(np.zeros((1, 2)))
        alpha = Tensor(np.ones((1, 1)))
        assert ls.cohesion_loss(x, prototypes, alpha).item() == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_exact_match_per_pixel(self):
        x = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        prototypes = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        alpha = Tensor(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert ls.cohesion_loss(x, prototypes, alpha).item() == 0.0

    def test_tie_breaks_toward_smaller_index(self):
        x = Tensor(np.array([[[0.0, 0.0]]]))
        prototypes = Tensor(np.array([[1.0, 0.0], [5.0, 0.0]]), requires_grad=True)
        alpha = Tensor(np.array([[0.5, 0.5]]))  # exact tie
        assert ls.cohesion_loss(x, prototypes, alpha).item() == pytest.approx(1.0)

    def test_no_gradient_on_non_selected_prototypes(self):
        x = rand((3, 3, 2), 1)
        prototypes = rand((4, 2), 2, requires_grad=True)
        alpha = np.zeros((9, 4))
        alpha[:, 1] = 1.0  # every pixel selects prototype 1
        g = Graph()
        with g:
            loss = ls.cohesion_loss(x, prototypes, Tensor(alpha))
        backward(loss, g)
        np.testing.assert_array_equal(prototypes.grad[0], 0.0)
        np.testing.assert_array_equal(prototypes.grad[2], 0.0)
        np.testing.assert_array_equal(prototypes.grad[3], 0.0)
        assert np.any(prototypes.grad[1] != 0.0)


class TestDivergence:
    def test_hinge_inactive_beyond_margin(self):
        prototypes = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert ls.divergence_loss(prototypes, 1.0).item() == 0.0

    def test_full_collapse_equals_margin(self):
        for m in (2, 3, 5):
            prototypes = Tensor(np.tile([0.3, -0.2], (m, 1)))
            assert ls.divergence_loss(prototypes, 1.0).item() == pytest.approx(1.0, abs=1e-15)

    def test_half_margin_distance(self):
        prototypes = Tensor(np.array([[0.0, 0.0], [0.5, 0.0]]))
        assert ls.divergence_loss(prototypes, 1.0).item() == pytest.approx(0.5, abs=1e-15)

    def test_requires_two_prototypes(self):
        with pytest.raises(ValueError, match="at least 2"):
            ls.divergence_loss(Tensor(np.ones((1, 3))), 1.0)

    def test_bounded_by_margin(self):
        for seed in range(30):
            prototypes = rand((4, 3), 100 + seed)
            value = ls.divergence_loss(prototypes, 0.7).item()
            assert 0.0 <= value <= 0.7


class TestFeaturePrototypeLoss:
    def test_zero_components(self):
        prototypes = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]))
        x = Tensor(prototypes.data[np.array([0, 1])].reshape(1, 2, 2))
        alpha = Tensor(np.array([[0.8, 0.2], [0.1, 0.9]]))
        assert ls.feature_prototype_loss(x, prototypes, alpha, LossConfig()).item() == 0.0

    def test_weighted_combination(self):
        # coh = sqrt(2) (single pixel at distance sqrt(2) from both collapsed prototypes),
        # div = 1 (collapse), lambda_a = 0.1
        x = Tensor(np.array([[[1.0, 1.0]]]))
        prototypes = Tensor(np.zeros((2, 2)))
        alpha = Tensor(np.array([[0.6, 0.4]]))
        value = ls.feature_prototype_loss(x, prototypes, alpha, LossConfig()).item()
        assert value == pytest.approx(np.sqrt(2.0) + 0.1, abs=1e-12)

    def test_zero_lambda_a_reduces_to_cohesion(self):
        x = rand((2, 3, 2), 3)
        prototypes = rand((3, 2), 4)
        alpha = nm.softmax_axis(rand((6, 3), 5), axis=1)
        cfg = LossConfig(lambda_a=0.0)
        assert ls.feature_prototype_loss(x, prototypes, alpha, cfg).item() == pytest.approx(
            ls.cohesion_loss(x, prototypes, alpha).item()
        )


class TestConsistencyLosses:
    def test_background_zero_on_equal(self):
        y = rand((4, 4, 3), 6)
        assert ls.background_consistency(y, Tensor(y.data.copy())).item() == 0.0

    def test_background_constant_images(self):
        a = Tensor(np.full((5, 5, 3), 0.3))
        b = Tensor(np.full((5, 5, 3), 0.5))
        assert ls.background_consistency(a, b).item() == pytest.approx(0.2, abs=1e-15)

    def test_background_symmetry(self):
        a, b = rand((4, 4, 3), 7), rand((4, 4, 3), 8)
        assert ls.background_consistency(a, b).item() == ls.background_consistency(b, a).item()

    def test_cross_zero_on_equal(self):
        x = rand((4, 4, 3), 9)
        assert ls.cross_consistency(x, Tensor(x.data.copy())).item() == 0.0

    def test_cross_constant_difference(self):
        assert ls.cross_consistency(
            Tensor(np.ones((3, 3, 3))), Tensor(np.zeros((3, 3, 3)))
        ).item() == 1.0

    def test_cross_single_pixel(self):
        a = np.zeros((4, 4, 1))
        b = a.copy()
        b[2, 1, 0] = 0.6
        assert ls.cross_consistency(Tensor(a), Tensor(b)).item() == pytest.approx(0.6 / 16, abs=1e-15)

    def test_self_exact_decomposition(self):
        x = rand((3, 3, 3), 10)
        r = rand((3, 3, 3), 11, lo=-0.3, hi=0.3)
        y = Tensor(x.data - r.data)
        assert ls.self_consistency(x, y, r).item() == pytest.approx(0.0, abs=1e-15)

    def test_self_clamped_residual(self):
        # x = 0.9, r = 2.5, y = clamp(x - r) = -1 -> |0.9 - (-1 + 2.5)| = 0.6
        x = Tensor(np.full((2, 2, 1), 0.9))
        r = Tensor(np.full((2, 2, 1), 2.5))
        y = nm.clamp(nm.sub(x, r))
        np.testing.assert_array_equal(y.data, -1.0)
        assert ls.self_consistency(x, y, r).item() == pytest.approx(0.6, abs=1e-12)

    def test_self_zero_rain_identity(self):
        x = rand((3, 3, 3), 12)
        assert ls.self_consistency(x, Tensor(x.data.copy()), Tensor(np.zeros((3, 3, 3)))).item() == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ls.background_consistency(rand((2, 2, 3), 13), rand((2, 3, 3), 14))


class TestTotalLoss:
    def scalars(self, *values):
        return [Tensor(float(v)) for v in values]

    def test_all_zero(self):
        total, report = ls.total_loss(*self.scalars(0, 0, 0, 0, 0), LossConfig())
        assert total.item() == 0.0
        assert report.total == 0.0

    def test_published_weights_combination(self):
        # fea = 1 requires coh + 0.1 * div = 1; use coh=1, div=0
        total, report = ls.total_loss(*self.scalars(1, 0, 1, 1, 1), LossConfig())
        assert report.fea == 1.0
        assert total.item() == pytest.approx(1.201, abs=1e-12)

    def test_linearity_in_terms(self):
        cfg = LossConfig()
        t1, _ = ls.total_loss(*self.scalars(0.3, 0.5, 0.7, 0.2, 0.9), cfg)
        t2, _ = ls.total_loss(*self.scalars(0.6, 1.0, 1.4, 0.4, 1.8), cfg)
        assert t2.item() == pytest.approx(2.0 * t1.item(), abs=1e-12)

    def test_report_reconstructs_total(self):
        cfg = LossConfig()
        for seed in range(20):
            vals = np.random.default_rng(seed).uniform(0, 2, 5)
            total, r = ls.total_loss(*self.scalars(*vals), cfg)
            rebuilt = r.b + cfg.lambda_c * r.c + cfg.lambda_s * r.s + cfg.lambda_f * r.fea
            assert abs(r.total - rebuilt) <= 1e-12
            assert abs(r.fea - (r.coh + cfg.lambda_a * r.div)) <= 1e-12
            assert r.total == total.item()

    def test_log_line_format(self):
        report = LossReport(coh=1, div=2, fea=1.2, b=3, c=4, s=5, total=3.525)
        line = report.line(7)
        assert line.split("\t")[0] == "7"
        assert len(line.split("\t")) == 8
        assert LossReport.HEADER.split("\t") == ["step", "coh", "div", "fea", "b", "c", "s", "total"]


class TestLossProperties:
    def test_all_losses_nonnegative(self):
        for seed in range(25):
            rng = np.random.default_rng(300 + seed)
            x = Tensor(rng.uniform(-1, 1, (3, 3, 2)))
            prototypes = Tensor(rng.uniform(-1, 1, (3, 2)))
            alpha = nm.softmax_axis(Tensor(rng.uniform(-2, 2, (9, 3))), axis=1)
            a, b = Tensor(rng.uniform(-1, 1, (3, 3, 3))), Tensor(rng.uniform(-1, 1, (3, 3, 3)))
            r = Tensor(rng.uniform(-1, 1, (3, 3, 3)))
            assert ls.cohesion_loss(x, prototypes, alpha).item() >= 0.0
            assert ls.divergence_loss(prototypes, 1.0).item() >= 0.0
            assert ls.background_consistency(a, b).item() >= 0.0
            assert ls.cross_consistency(a, b).item() >= 0.0
            assert ls.self_consistency(a, b, r).item() >= 0.0

    def test_gradients_match_finite_diff(self):
        rng = np.random.default_rng(42)
        feats = Tensor(rng.uniform(-1, 1, (3, 3, 2)), requires_grad=True)
        prototypes = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
        alpha = nm.softmax_axis(Tensor(rng.uniform(-2, 2, (9, 3))), axis=1)
        cfg = LossConfig()

        def loss_fn():
            return ls.feature_prototype_loss(feats, prototypes, alpha, cfg)

        g = Graph()
        with g:
            loss = loss_fn()
        backward(loss, g)
        for t in (feats, prototypes):
            ad = t.grad.copy()
            fd = finite_diff_grad(lambda _: loss_fn(), t)  # perturbs t in place
            rel = np.abs(ad - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-5
