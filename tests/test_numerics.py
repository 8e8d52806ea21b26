import tracemalloc

import numpy as np
import pytest

from _oracles import conv2d_reference, conv2d_vjp_reference
from rainproto import numerics as nm
from rainproto.gradcheck import _elementary_checks
from rainproto.numerics import Graph, Tensor, backward, finite_diff_grad


def rand(shape, seed, lo=-1.0, hi=1.0, requires_grad=False):
    return Tensor(np.random.default_rng(seed).uniform(lo, hi, shape), requires_grad=requires_grad)


class TestTensor:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError):
            Tensor([np.inf])
        with pytest.raises(ValueError):
            Tensor([[1.0, -np.inf]])

    # the screening sum overflows (numpy warns), so the full scan decides
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_accepts_finite_values_whose_sum_overflows(self):
        assert np.array_equal(Tensor([1e308, 1e308]).data, [1e308, 1e308])

    def test_shape_matches_data(self):
        t = rand((3, 4), 0)
        assert t.shape == (3, 4)
        assert t.size == 12

    def test_scalar_item(self):
        assert Tensor(2.5).item() == 2.5
        with pytest.raises(ValueError):
            rand((2,), 0).item()


class TestConv2d:
    def test_delta_kernel_is_identity(self):
        x = rand((3, 3, 1), 1)
        k = np.zeros((3, 3, 1, 1))
        k[1, 1, 0, 0] = 1.0
        out = nm.conv2d(x, Tensor(k), None, stride=1, padding=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_delta_kernel_identity_multichannel(self):
        x = rand((6, 5, 3), 2)
        k = np.zeros((3, 3, 3, 3))
        for c in range(3):
            k[1, 1, c, c] = 1.0
        out = nm.conv2d(x, Tensor(k), None, stride=1, padding=1)
        np.testing.assert_allclose(out.data, x.data, atol=1e-15)

    def test_all_ones_kernel_counts_neighbors(self):
        # 4x4 ones through a 3x3 ones kernel: corners 4, edges 6, interior 9
        x = Tensor(np.ones((4, 4, 1)))
        k = Tensor(np.ones((3, 3, 1, 1)))
        out = nm.conv2d(x, k, None, stride=1, padding=1).data[:, :, 0]
        expected = np.array([
            [4.0, 6.0, 6.0, 4.0],
            [6.0, 9.0, 9.0, 6.0],
            [6.0, 9.0, 9.0, 6.0],
            [4.0, 6.0, 6.0, 4.0],
        ])
        np.testing.assert_array_equal(out, expected)

    def test_shape_law(self):
        x = rand((8, 8, 2), 3)
        k = rand((3, 3, 2, 5), 4)
        b = rand((5,), 5)
        assert nm.conv2d(x, k, b, stride=1, padding=1).shape == (8, 8, 5)

    def test_errors(self):
        x = rand((4, 4, 2), 6)
        with pytest.raises(ValueError, match="stride"):
            nm.conv2d(x, rand((3, 3, 2, 1), 7), None, stride=0, padding=1)
        with pytest.raises(ValueError, match="shape"):
            nm.conv2d(x, rand((3, 3, 3, 1), 8), None)
        with pytest.raises(ValueError, match="bias"):
            nm.conv2d(x, rand((3, 3, 2, 4), 9), rand((3,), 10), padding=1)


class TestConvTranspose2d:
    def test_shape_doubles(self):
        x = rand((2, 2, 3), 11)
        k = rand((3, 3, 5, 3), 12)
        assert nm.conv_transpose2d(x, k).shape == (4, 4, 5)

    def test_zero_input_zero_output(self):
        out = nm.conv_transpose2d(Tensor(np.zeros((3, 3, 2))), rand((2, 2, 4, 2), 13))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_single_pixel_scatter(self):
        # 1x1 input v with a 2x2 kernel scatters v*k into the 2x2 output
        v = 1.75
        k = rand((2, 2, 3, 1), 14)
        out = nm.conv_transpose2d(Tensor(np.full((1, 1, 1), v)), k)
        np.testing.assert_allclose(out.data, v * k.data[:, :, :, 0], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            nm.conv_transpose2d(rand((2, 2, 3), 15), rand((3, 3, 2, 4), 16))


class TestBlockedConv:
    """Convolutions build their patch matrix in row blocks, and their backward
    works one kernel tap at a time; the references are im2col with one GEMM
    over all patches."""

    def test_small_blocks_match_oracle_over_random_shapes(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            kh = int(rng.choice([1, 3]))
            stride, padding = int(rng.integers(1, 3)), int(rng.integers(0, 2))
            h, w = (int(v) for v in rng.integers(kh + 2, 14, size=2))
            cin, cout = int(rng.choice([1, 3, 5, 7])), int(rng.choice([1, 2, 3, 5]))
            x = rng.uniform(-1, 1, (h, w, cin))
            k = rng.uniform(-1, 1, (kh, kh, cin, cout))
            b = rng.uniform(-1, 1, cout)
            expected = conv2d_reference(x, k, stride, padding) + b
            # a budget of a fraction of the patch matrix: several blocks, uneven heights
            patch_bytes = expected.shape[0] * expected.shape[1] * kh * kh * cin * 8
            monkeypatch.setattr(nm, "_BLOCK_BYTES", max(1, int(patch_bytes / rng.uniform(1.5, 6.0))))
            out = nm.conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride, padding=padding)
            np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_one_row_per_block_when_a_row_exceeds_the_budget(self, monkeypatch):
        monkeypatch.setattr(nm, "_BLOCK_BYTES", 8)
        x, k = rand((7, 5, 3), 30), rand((3, 3, 3, 4), 31)
        out = nm.conv2d(x, k, None, stride=1, padding=1)
        np.testing.assert_allclose(out.data, conv2d_reference(x.data, k.data, 1, 1), rtol=0, atol=1e-12)

    def test_taped_conv_gradients_do_not_depend_on_the_budget(self, monkeypatch):
        def run():
            x = rand((9, 7, 3), 32, requires_grad=True)
            k = rand((3, 3, 3, 5), 33, requires_grad=True)
            b = rand((5,), 34, requires_grad=True)
            frozen = rand((3, 3, 5, 2), 35)  # no kernel gradient
            g = Graph()
            with g:
                h = nm.conv2d(x, k, b, stride=1, padding=1)
                loss = nm.reduce_sum(nm.conv2d(h, frozen, None, stride=2, padding=1))
            backward(loss, g)
            return loss.data, x.grad, k.grad, b.grad

        full = run()
        monkeypatch.setattr(nm, "_BLOCK_BYTES", 64)
        for a, b in zip(full, run()):
            np.testing.assert_array_equal(a, b)

    def test_taped_conv_keeps_no_patch_matrix(self):
        # the kernel-gradient VJP rebuilds the patches; the tape must not hold them
        rng = np.random.default_rng(39)
        x = Tensor(rng.normal(0.0, 1.0, (64, 64, 128)), requires_grad=True)
        k = Tensor(rng.normal(0.0, 0.03, (3, 3, 128, 128)), requires_grad=True)
        patch_bytes = 64 * 64 * 9 * 128 * 8
        g = Graph()
        tracemalloc.start()
        try:
            with g:
                out = nm.conv2d(x, k, None, stride=1, padding=1)
            alive = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.data.nbytes <= alive < out.data.nbytes + patch_bytes // 8

    def test_small_budget_backward_matches_oracle_over_random_shapes(self, monkeypatch):
        rng = np.random.default_rng(2025)
        for _ in range(30):
            kh = int(rng.choice([1, 3]))
            stride, padding = int(rng.integers(1, 3)), int(rng.integers(0, 2))
            h, w = (int(v) for v in rng.integers(kh + 2, 14, size=2))
            cin, cout = int(rng.choice([1, 3, 5, 7])), int(rng.choice([1, 2, 3, 5]))
            x = Tensor(rng.uniform(-1, 1, (h, w, cin)), requires_grad=True)
            k = Tensor(rng.uniform(-1, 1, (kh, kh, cin, cout)), requires_grad=True)
            oh, ow = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kh) // stride + 1
            weights = rng.uniform(-1, 1, (oh, ow, cout))
            # below one patch matrix: the kernel gradient goes tap by tap
            monkeypatch.setattr(nm, "_BLOCK_BYTES", max(1, int(oh * ow * kh * kh * cin * 8 / rng.uniform(1.5, 6.0))))
            g = Graph()
            with g:
                loss = nm.reduce_sum(nm.mul(nm.conv2d(x, k, None, stride=stride, padding=padding), Tensor(weights)))
            backward(loss, g)
            gx, gk = conv2d_vjp_reference(x.data, k.data, weights, stride, padding)
            np.testing.assert_allclose(x.grad, gx, rtol=0, atol=1e-12)
            np.testing.assert_allclose(k.grad, gk, rtol=0, atol=1e-12)

    def test_small_budget_conv_transpose_matches_oracle(self, monkeypatch):
        # conv_transpose2d runs the stride-2 conv's input-gradient VJP forward
        # and its kernel-gradient VJP backward, with x in the role of g
        rng = np.random.default_rng(2026)
        monkeypatch.setattr(nm, "_BLOCK_BYTES", 512)
        for h, w, cin, cout in [(5, 3, 3, 4), (4, 6, 1, 5), (7, 7, 6, 2)]:
            x = Tensor(rng.uniform(-1, 1, (h, w, cin)))
            k = Tensor(rng.uniform(-1, 1, (3, 3, cout, cin)), requires_grad=True)
            weights = rng.uniform(-1, 1, (2 * h, 2 * w, cout))
            g = Graph()
            with g:
                out = nm.conv_transpose2d(x, k)
                loss = nm.reduce_sum(nm.mul(out, Tensor(weights)))
            backward(loss, g)
            expected, _ = conv2d_vjp_reference(np.zeros((2 * h, 2 * w, cout)), k.data, x.data, 2, 1)
            _, gk = conv2d_vjp_reference(weights, k.data, x.data, 2, 1)
            np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(k.grad, gk, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cout", [128, 3])
    def test_paper_size_backward_is_bit_identical(self, cout):
        # a paper-width 64x64 conv: its patch matrix is above the real budget
        rng = np.random.default_rng(40 + cout)
        x = Tensor(rng.normal(0.0, 1.0, (64, 64, 128)), requires_grad=True)
        k = Tensor(rng.normal(0.0, 0.03, (3, 3, 128, cout)), requires_grad=True)
        weights = rng.normal(0.0, 1.0, (64, 64, cout))
        assert 64 * 64 * 9 * 128 * 8 > nm._BLOCK_BYTES
        g = Graph()
        with g:
            loss = nm.reduce_sum(nm.mul(nm.conv2d(x, k, None, stride=1, padding=1), Tensor(weights)))
        backward(loss, g)
        gx, gk = conv2d_vjp_reference(x.data, k.data, weights, 1, 1)
        assert np.array_equal(x.grad, gx)
        assert np.array_equal(k.grad, gk)

    def test_conv_backward_holds_no_patch_matrix(self):
        # neither the input- nor the kernel-gradient VJP builds the 36 MiB patch matrix
        rng = np.random.default_rng(41)
        x = Tensor(rng.normal(0.0, 1.0, (64, 64, 128)), requires_grad=True)
        k = Tensor(rng.normal(0.0, 0.03, (3, 3, 128, 128)), requires_grad=True)
        patch_bytes = 64 * 64 * 9 * 128 * 8
        g = Graph()
        with g:
            loss = nm.reduce_sum(nm.conv2d(x, k, None, stride=1, padding=1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            backward(loss, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < patch_bytes

    def test_conv_transpose_input_gradient_matches_oracle(self, monkeypatch):
        monkeypatch.setattr(nm, "_BLOCK_BYTES", 256)
        x, k = rand((5, 3, 3), 36, requires_grad=True), rand((3, 3, 4, 3), 37)
        weights = np.random.default_rng(38).uniform(-1, 1, (10, 6, 4))
        g = Graph()
        with g:
            loss = nm.reduce_sum(nm.mul(nm.conv_transpose2d(x, k), Tensor(weights)))
        backward(loss, g)
        np.testing.assert_allclose(x.grad, conv2d_reference(weights, k.data, 2, 1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cout", [128, 3])
    def test_paper_size_blocks_are_bit_identical(self, cout):
        # the paper-width 128-channel convs at 256x256: many blocks at the real budget
        rng = np.random.default_rng(cout)
        x = rng.normal(0.0, 1.0, (256, 256, 128))
        k = rng.normal(0.0, 0.03, (3, 3, 128, cout))
        assert 256 * 256 * 9 * 128 * 8 > 4 * nm._BLOCK_BYTES
        out = nm.conv2d(Tensor(x), Tensor(k), None, stride=1, padding=1)
        assert np.array_equal(out.data, conv2d_reference(x, k, 1, 1))


class TestMaxPool2d:
    def test_window_max(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
        assert nm.maxpool2d(x).data[0, 0, 0] == 4.0

    def test_constant_tie_routes_to_first(self):
        x = Tensor(np.full((2, 2, 1), 7.0), requires_grad=True)
        g = Graph()
        with g:
            loss = nm.reduce_sum(nm.maxpool2d(x))
        backward(loss, g)
        expected = np.zeros((2, 2, 1))
        expected[0, 0, 0] = 1.0  # first position in row-major window order
        np.testing.assert_array_equal(x.grad, expected)

    def test_known_4x4(self):
        vals = np.array([
            [1, 5, 2, 0],
            [8, 3, 7, 4],
            [0, 2, 9, 1],
            [6, 4, 3, 2],
        ], dtype=float)
        out = nm.maxpool2d(Tensor(vals.reshape(4, 4, 1))).data[:, :, 0]
        np.testing.assert_array_equal(out, [[8.0, 7.0], [6.0, 9.0]])

    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            nm.maxpool2d(rand((3, 4, 1), 17))

    def test_gradient_mass_conserved(self):
        for seed in range(5):
            x = rand((6, 8, 3), 100 + seed, requires_grad=True)
            g = Graph()
            with g:
                pooled = nm.maxpool2d(x)
                loss = nm.reduce_sum(nm.mul(pooled, rand(pooled.shape, seed)))
            backward(loss, g)
            assert x.grad.sum() == pytest.approx(pooled.grad.sum() if pooled.grad is not None else 0.0)


class TestActivations:
    def test_relu_values(self):
        out = nm.relu(Tensor([-2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 3.0])

    def test_sigmoid_values(self):
        assert nm.sigmoid(Tensor(0.0)).item() == 0.5
        assert nm.sigmoid(Tensor(1.0)).item() == pytest.approx(0.7310585786, abs=1e-10)

    def test_sigmoid_extreme_inputs_stable(self):
        out = nm.sigmoid(Tensor([-800.0, 800.0]))
        assert 0.0 <= out.data[0] < 1e-300
        assert out.data[1] == 1.0

    def test_clamp(self):
        out = nm.clamp(Tensor([-3.0, 0.25, 3.0]))
        np.testing.assert_array_equal(out.data, [-1.0, 0.25, 1.0])

    def test_relu_derivative_zero_at_zero(self):
        x = Tensor([0.0, 1.0], requires_grad=True)
        g = Graph()
        with g:
            loss = nm.reduce_sum(nm.relu(x))
        backward(loss, g)
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_array_equal(nm.softmax_axis(Tensor([0.0, 0.0]), 0).data, [0.5, 0.5])

    def test_no_overflow_on_large_inputs(self):
        out = nm.softmax_axis(Tensor([1000.0, 1000.0]), 0)
        np.testing.assert_array_equal(out.data, [0.5, 0.5])

    def test_known_values(self):
        out = nm.softmax_axis(Tensor([1.0, 2.0, 3.0]), 0)
        np.testing.assert_allclose(out.data, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_rows_are_probabilities(self):
        for seed in range(20):
            x = rand((5, 7), 200 + seed, lo=-30, hi=30)
            s = nm.softmax_axis(x, axis=1).data
            assert np.all(s >= 0.0) and np.all(s <= 1.0)
            np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_invalid_axis(self):
        with pytest.raises(ValueError, match="axis"):
            nm.softmax_axis(rand((2, 2), 0), 2)


class TestReduce:
    def test_sum(self):
        assert nm.reduce_sum(Tensor([1.0, 2.0, 3.0])).item() == 6.0

    def test_mean_of_ones(self):
        assert nm.reduce_mean(Tensor(np.ones((2, 2)))).item() == 1.0

    def test_mean_gradient_is_one_over_n(self):
        x = rand((5,), 18, requires_grad=True)
        g = Graph()
        with g:
            loss = nm.reduce_mean(x)
        backward(loss, g)
        np.testing.assert_allclose(x.grad, np.full(5, 0.2))

    def test_axis_subset(self):
        x = rand((2, 3, 4), 19)
        out = nm.reduce_sum(x, axes=(0, 2))
        np.testing.assert_allclose(out.data, x.data.sum(axis=(0, 2)))

    def test_errors(self):
        with pytest.raises(ValueError, match="axis"):
            nm.reduce_sum(rand((2, 2), 0), axes=(5,))
        with pytest.raises(ValueError, match="duplicate"):
            nm.reduce_mean(rand((2, 2), 0), axes=(0, 0))


class TestElementwise:
    def test_add_identity(self):
        x = rand((3, 3), 20)
        np.testing.assert_array_equal(nm.add(x, 0.0).data, x.data)

    def test_sub_self_is_zero(self):
        x = rand((3, 3), 21)
        np.testing.assert_array_equal(nm.sub(x, x).data, 0.0)

    def test_mul(self):
        out = nm.mul(Tensor([2.0, 3.0]), Tensor([4.0, 5.0]))
        np.testing.assert_array_equal(out.data, [8.0, 15.0])

    def test_no_implicit_broadcast(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            nm.add(rand((3, 2), 22), rand((2,), 23))

    def test_scalar_broadcast_allowed(self):
        out = nm.mul(rand((3, 2), 24), 2.0)
        assert out.shape == (3, 2)


class TestVectorL2:
    def test_pythagorean(self):
        assert nm.vector_l2(Tensor([3.0, 4.0]), 0).item() == 5.0

    def test_zero_vector_zero_gradient(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        g = Graph()
        with g:
            loss = nm.vector_l2(x, 0)
        backward(loss, g)
        assert loss.item() == 0.0
        np.testing.assert_array_equal(x.grad, 0.0)

    def test_sqrt3(self):
        assert nm.vector_l2(Tensor([1.0, 1.0, 1.0]), 0).item() == pytest.approx(1.7320508, abs=1e-7)


class TestGatherRows:
    def test_vjp_is_byte_equal_to_add_at(self):
        rng = np.random.default_rng(40)
        shapes = [(5,), (6, 3), (4, 2, 3), (1, 7), (3, 1, 1)]
        for shape in shapes:
            for count in (0, 1, 9, 40):
                x = rng.normal(0.0, 1.0, shape)
                idx = rng.integers(0, shape[0], count)  # repeats rows
                # magnitudes far apart make every sum depend on its order
                g = rng.normal(0.0, 1.0, (count,) + shape[1:]) * 10.0 ** rng.integers(-8, 9, (count,) + shape[1:])
                g[rng.random(g.shape) < 0.2] = -0.0
                graph = Graph()
                with graph:
                    nm.gather_rows(Tensor(x, requires_grad=True), idx)
                ((_, _, vjp),) = graph._records
                expected = np.zeros(shape)
                np.add.at(expected, idx, g)
                (gx,) = vjp(g)
                assert gx.shape == shape and gx.tobytes() == expected.tobytes()


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = rand((4, 3), 25, requires_grad=True)
        g = Graph()
        with g:
            loss = nm.reduce_sum(x)
        backward(loss, g)
        np.testing.assert_array_equal(x.grad, np.ones((4, 3)))

    def test_relu_composite(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        g = Graph()
        with g:
            loss = nm.reduce_sum(nm.relu(x))
        backward(loss, g)
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_three_layer_composite_matches_finite_diff(self):
        x = rand((6,), 26, requires_grad=True)
        w1 = rand((6, 5), 27)
        w2 = rand((5, 4), 28)

        def f(t):
            h1 = nm.sigmoid(nm.matmul(nm.reshape(t, (1, 6)), w1))
            h2 = nm.sigmoid(nm.matmul(h1, w2))
            return nm.reduce_sum(nm.mul(h2, h2))

        g = Graph()
        with g:
            loss = f(x)
        backward(loss, g)
        fd = finite_diff_grad(f, x)
        rel = np.abs(x.grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-5

    def test_non_scalar_loss_rejected(self):
        x = rand((3,), 29, requires_grad=True)
        g = Graph()
        with g:
            y = nm.mul(x, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            backward(y, g)

    def test_double_backward_rejected(self):
        x = rand((3,), 30, requires_grad=True)
        g = Graph()
        with g:
            loss = nm.reduce_sum(x)
        backward(loss, g)
        with pytest.raises(RuntimeError, match="record"):
            backward(loss, g)

    def test_no_gradient_without_requires_grad(self):
        x = rand((3,), 31)
        g = Graph()
        with g:
            loss = nm.reduce_sum(x)
        assert len(g) == 0
        backward(loss, g)
        assert x.grad is None

    def test_first_gradient_write_adds_to_positive_zero(self):
        # as zeros-then-add would: 0.0 + -0.0 is +0.0
        x = Tensor([1.0, 2.0], requires_grad=True)
        g = Graph()
        with g:
            loss = nm.reduce_sum(nm.mul(x, Tensor([-0.0, 3.0])))
        backward(loss, g)
        assert x.grad.tobytes() == np.array([0.0, 3.0]).tobytes()

    def test_reused_tensor_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        g = Graph()
        with g:
            loss = nm.reduce_sum(nm.add(nm.mul(x, 3.0), nm.mul(x, 4.0)))
        backward(loss, g)
        np.testing.assert_array_equal(x.grad, [7.0])


class TestFiniteDiff:
    def test_quadratic(self):
        fd = finite_diff_grad(lambda t: nm.reduce_sum(nm.mul(t, t)), Tensor([3.0]))
        assert fd[0] == pytest.approx(6.0, abs=1e-8)

    def test_sigmoid_slope_at_zero(self):
        fd = finite_diff_grad(lambda t: nm.reduce_sum(nm.sigmoid(t)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(fd, 0.25, atol=1e-9)

    def test_constant_function(self):
        fd = finite_diff_grad(lambda t: 1.25, rand((3, 2), 32))
        np.testing.assert_array_equal(fd, 0.0)

    def test_coords_probe_in_place_and_restore(self):
        x = rand((3, 4), 36)
        before = x.data.copy()

        def f(t):
            return nm.reduce_sum(nm.mul(t, t))

        fd = finite_diff_grad(f, x, coords=np.array([0, 5, 11]))
        np.testing.assert_allclose(fd, 2.0 * before.reshape(-1)[[0, 5, 11]], atol=1e-8)
        np.testing.assert_allclose(finite_diff_grad(f, x), 2.0 * before, atol=1e-8)
        assert x.data.tobytes() == before.tobytes()

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: 0.0, Tensor([1.0]), h=0.0)


class TestGradientSweep:
    """Every operator against finite differences on 20 random instances."""

    @pytest.mark.parametrize("seed", range(20))
    def test_all_operators(self, seed):
        rng = np.random.default_rng([seed, 0xA11])
        for result in _elementary_checks(rng, (3, 4, 2)):
            assert result.passed, f"{result.name}: max rel err {result.max_rel_err:.3e}"


class TestDeterminism:
    def test_replay_is_bit_identical(self):
        x = rand((8, 8, 3), 33, requires_grad=True)
        k = rand((3, 3, 3, 4), 34, requires_grad=True)

        def forward():
            g = Graph()
            with g:
                out = nm.maxpool2d(nm.relu(nm.conv2d(x, k, None, stride=1, padding=1)))
                loss = nm.reduce_mean(nm.mul(out, out))
            return out.data.tobytes(), loss.data.tobytes()

        assert forward() == forward()

    def test_shape_ops(self):
        x = rand((4, 6), 35, requires_grad=True)
        g = Graph()
        with g:
            loss = nm.reduce_sum(nm.mul(nm.reshape(nm.transpose(x), (4, 6)), x))
        backward(loss, g)
        fd = finite_diff_grad(
            lambda t: nm.reduce_sum(nm.mul(nm.reshape(nm.transpose(t), (4, 6)), t)), x
        )
        np.testing.assert_allclose(x.grad, fd, atol=1e-7)
