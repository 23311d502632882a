"""Kernel evaluations, diagonals, derivatives, the parameter vector and the
jitter policy."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from cpoe.kernels import (
    JitterError,
    NoiseSpec,
    Periodic,
    SpectralMixture,
    SquaredExponential,
    SumKernel,
    full_params,
    jittered_cholesky,
    split_params,
)


def random_kernels():
    return [
        SquaredExponential.create(1.3, [0.5, 0.8]),
        Periodic.create(0.7, 0.9, 1.3, active_dims=[0]),
        SpectralMixture.create([0.5, 1.1], [0.8, 2.0], [0.4, 1.5], active_dims=[0]),
        SquaredExponential.create(2.0, [0.4, 0.7]) + Periodic.create(0.5, 1.1, 0.8,
                                                                     active_dims=[1]),
    ]


class TestSquaredExponential:
    def test_zero_distance_gives_amplitude(self):
        k = SquaredExponential.create(2.5, [0.3, 0.7])
        x = np.array([[0.4, -1.2]])
        assert k(x, x)[0, 0] == pytest.approx(2.5)

    def test_unit_example(self):
        # 1-d, variance 1, lengthscale 1: k(0, sqrt(2)) = exp(-1)
        k = SquaredExponential.create(1.0, [1.0])
        val = k(np.array([[0.0]]), np.array([[np.sqrt(2.0)]]))
        assert val[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_symmetry_and_shape(self, rng):
        k = SquaredExponential.create(1.0, [0.5, 0.5])
        X = rng.normal(size=(6, 2))
        K = k(X)
        assert K.shape == (6, 6)
        np.testing.assert_allclose(K, K.T, atol=1e-15)

    def test_dimension_mismatch(self):
        k = SquaredExponential.create(1.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            k(np.zeros((3, 2)), np.zeros((3, 3)))

    @staticmethod
    def _difference_tensor(k, X1, X2):
        # the written-out formula: an (n1, n2, D) tensor reduced over its last axis
        sq = ((X1 / k.lengthscales)[:, None, :] - (X2 / k.lengthscales)[None, :, :]) ** 2
        K = k.variance * np.exp(-0.5 * sq.sum(axis=-1))
        return K, np.concatenate([K[None], K[None] * np.moveaxis(sq, -1, 0)])

    @pytest.mark.parametrize("D", range(1, 8))
    def test_bitwise_difference_tensor_below_eight_dims(self, D):
        r = np.random.default_rng(D)
        k = SquaredExponential.create(1.3, r.uniform(0.2, 2.0, D))
        X1, X2 = r.normal(size=(7, D)), r.normal(size=(5, D))
        K, stack = self._difference_tensor(k, X1, X2)
        np.testing.assert_array_equal(k(X1, X2), K)
        np.testing.assert_array_equal(k.grad_stack(X1, X2), stack)

    def test_nine_dims_match_difference_tensor(self):
        r = np.random.default_rng(9)
        k = SquaredExponential.create(1.3, r.uniform(0.2, 2.0, 9))
        X1, X2 = r.normal(size=(7, 9)), r.normal(size=(5, 9))
        K, stack = self._difference_tensor(k, X1, X2)
        np.testing.assert_allclose(k(X1, X2), K)
        np.testing.assert_allclose(k.grad_stack(X1, X2), stack)


class TestSpectralMixture:
    def test_matches_spectral_density_quadrature(self):
        # kernel value must equal the cosine transform of the symmetrized
        # Gaussian mixture spectral density
        w, mu, v = [0.8, 0.4], [0.6, 1.7], [0.3, 0.9]
        k = SpectralMixture.create(w, mu, v)

        def spectral_density(s):
            out = 0.0
            for wq, mq, vq in zip(w, mu, v):
                for m in (mq, -mq):
                    out += 0.5 * wq * np.exp(-0.5 * (s - m) ** 2 / vq) / np.sqrt(2 * np.pi * vq)
            return out

        for tau in np.linspace(-1.2, 1.2, 5):
            oracle, _ = quad(lambda s: spectral_density(s) * np.cos(2 * np.pi * s * tau),
                             -np.inf, np.inf)
            val = k(np.array([[tau]]), np.array([[0.0]]))[0, 0]
            assert val == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("k, name", [
    (Periodic.create(1.0, 0.5, 1.0), "periodic"),
    (SpectralMixture.create([1.0], [1.0], [1.0]), "spectral-mixture"),
])
def test_one_dimensional_kernel_refuses_several_dims(k, name, rng):
    X = rng.normal(size=(4, 2))
    for evaluate in (k, k.grad_stack):
        with pytest.raises(ValueError, match=f"^{name} kernel needs exactly one active dimension"):
            evaluate(X, X)


class TestDiag:
    def test_se_diag_is_constant(self, rng):
        k = SquaredExponential.create(1.7, [0.3, 0.4])
        X = rng.normal(size=(9, 2))
        np.testing.assert_allclose(k.diag(X), np.full(9, 1.7))

    def test_sum_diag_adds_amplitudes(self, rng):
        k = SquaredExponential.create(1.0, [0.3]) + SquaredExponential.create(0.5, [0.9])
        X = rng.normal(size=(5, 1))
        np.testing.assert_allclose(k.diag(X), np.full(5, 1.5))

    @pytest.mark.parametrize("k", random_kernels())
    def test_diag_matches_full_matrix(self, k, rng):
        X = rng.uniform(-1, 1, size=(8, 2))
        np.testing.assert_allclose(k.diag(X), np.diag(k(X)),
                                   atol=1e-12)


class TestGradients:
    def test_log_variance_gradient_is_kernel(self, rng):
        k = SquaredExponential.create(1.4, [0.5, 0.6])
        X = rng.normal(size=(5, 2))
        np.testing.assert_allclose(k.grad_stack(X, X)[0], k(X, X),
                                   atol=1e-14)

    @pytest.mark.parametrize("k", random_kernels())
    def test_finite_differences(self, k, rng):
        X1 = rng.uniform(-1, 1, size=(5, 2))
        X2 = rng.uniform(-1, 1, size=(5, 2))
        theta = k.get_params()
        h = 1e-5
        stack = k.grad_stack(X1, X2)
        assert stack.shape == (k.n_params, 5, 5)
        for i in range(k.n_params):
            e = np.zeros_like(theta)
            e[i] = h
            fd = (k.with_params(theta + e)(X1, X2)
                  - k.with_params(theta - e)(X1, X2)) / (2 * h)
            an = stack[i]
            scale = max(np.abs(fd).max(), 1e-8)
            assert np.abs(an - fd).max() / scale < 1e-5

    @pytest.mark.parametrize("k", random_kernels() + [
        SquaredExponential.create(1.0, [0.5, 0.5]) + SquaredExponential.create(0.3, [0.15, 0.2])])
    def test_grad_diag_matches_full(self, k, rng, monkeypatch):
        X = rng.uniform(-1, 1, size=(6, 2))
        diag = k.grad_diag_stack(X)
        assert diag.shape == (k.n_params, 6)
        np.testing.assert_allclose(diag, np.diagonal(k.grad_stack(X), axis1=1, axis2=2),
                                   atol=1e-12)
        # the one-point stack is evaluated once per kernel; later calls on
        # other inputs repeat it, bitwise as evaluated at their own first point
        X2 = rng.uniform(-1, 1, size=(9, 2))
        one_point = np.repeat(k.grad_stack(X2[:1])[:, 0, :], 9, axis=1)
        diag[:] = np.nan  # a returned stack is the caller's own
        calls = []
        grad_stack = type(k).grad_stack

        def counted(self, *args, **kwargs):
            calls.append(self)
            return grad_stack(self, *args, **kwargs)

        monkeypatch.setattr(type(k), "grad_stack", counted)
        again = k.grad_diag_stack(X2)
        assert calls == []
        np.testing.assert_array_equal(again, one_point)
        assert np.array_equal(np.signbit(again), np.signbit(one_point))
        fresh = k.with_params(k.get_params())  # a new instance evaluates its own
        np.testing.assert_array_equal(fresh.grad_diag_stack(X2), one_point)
        assert len(calls) == 1

    def test_sum_unused_parameter_yields_zero(self, rng):
        k = SumKernel((SquaredExponential.create(1.0, [0.5]),
                       SquaredExponential.create(0.8, [0.9])))
        X = rng.normal(size=(4, 1))
        # each summand's parameters move only that summand: the other summand
        # contributes nothing to their slice of the stack
        stack = k.grad_stack(X, X)
        n_first = k.terms[0].n_params
        np.testing.assert_allclose(stack[:n_first], k.terms[0].grad_stack(X, X))
        np.testing.assert_allclose(stack[n_first:], k.terms[1].grad_stack(X, X))


class TestSumKernel:
    def test_sum_equals_elementwise_sum(self, rng):
        a = SquaredExponential.create(1.0, [0.5, 0.7])
        b = Periodic.create(0.4, 0.8, 1.1, active_dims=[0])
        X = rng.normal(size=(7, 2))
        np.testing.assert_array_equal((a + b)(X, X), a(X, X) + b(X, X))

    def test_param_roundtrip(self):
        k = random_kernels()[3]
        theta = k.get_params()
        k2 = k.with_params(theta + 0.1)
        np.testing.assert_allclose(k2.get_params(), theta + 0.1)


def out_kernels():
    return random_kernels() + [
        SquaredExponential.create(1.0, [0.5, 0.6])
        + SquaredExponential.create(0.3, [0.15, 0.2])
        + SpectralMixture.create([0.5], [0.8], [0.4], active_dims=[1]),
    ]


class TestOutArgument:
    """``kernel(A, X, out=buf)`` and ``grad_stack(A, X, out=buf)`` fill ``buf``
    with bitwise the values they would return, also through a strided view."""

    @staticmethod
    def _buffers(shape):
        wide = np.full(shape[:-1] + (shape[-1] + 3,), np.nan)
        return [np.full(shape, np.nan), wide[..., :shape[-1]]]  # contiguous, strided

    @pytest.mark.parametrize("k", out_kernels())
    def test_call_fills_out(self, k):
        r = np.random.default_rng(11)
        A, X = r.uniform(-1, 1, (9, 2)), r.uniform(-1, 1, (6, 2))
        for buf in self._buffers((9, 6)):
            assert k(A, X, out=buf) is buf
            np.testing.assert_array_equal(buf, k(A, X))

    @pytest.mark.parametrize("k", out_kernels())
    def test_grad_stack_fills_out(self, k):
        r = np.random.default_rng(12)
        A, X = r.uniform(-1, 1, (9, 2)), r.uniform(-1, 1, (6, 2))
        for buf in self._buffers((k.n_params, 9, 6)):
            assert k.grad_stack(A, X, out=buf) is buf
            np.testing.assert_array_equal(buf, k.grad_stack(A, X))


def log_fields(k):
    """A kernel's ``log_*`` field values in declaration order; a sum's, term by term."""
    if isinstance(k, SumKernel):
        return [v for t in k.terms for v in log_fields(t)]
    return [getattr(k, f.name) for f in dataclasses.fields(k) if f.name.startswith("log_")]


CONTRACT_KERNELS = {
    "se-ard": SquaredExponential.create(1.3, [0.5, 0.8], active_dims=[0, 2]),
    "periodic": Periodic.create(0.7, 0.9, 1.3, active_dims=[1]),
    "sm2": SpectralMixture.create([0.5, 1.1], [0.8, 2.0], [0.4, 1.5], active_dims=[0]),
    "sm3": SpectralMixture.create([0.5, 1.1, 0.2], [0.8, 2.0, 3.0], [0.4, 1.5, 0.9]),
    "sum": (SquaredExponential.create(2.0, [0.4, 0.7])
            + Periodic.create(0.5, 1.1, 0.8, active_dims=[1])
            + SpectralMixture.create([0.3, 0.6], [1.2, 0.5], [0.2, 0.7], active_dims=[0])),
}


@pytest.mark.parametrize("k", CONTRACT_KERNELS.values(), ids=CONTRACT_KERNELS.keys())
class TestParameterVector:
    """The vector is the ``log_*`` fields concatenated in declaration order."""

    def test_vector_concatenates_log_fields(self, k):
        theta = k.get_params()
        np.testing.assert_array_equal(theta, np.concatenate([np.ravel(v) for v in log_fields(k)]))
        assert theta.dtype == np.float64 and k.n_params == theta.size

    def test_roundtrip_gives_the_kernel(self, k):
        new = k.with_params(k.get_params())
        assert new == k
        for old, value in zip(log_fields(k), log_fields(new)):
            assert type(value) is (np.ndarray if np.ndim(old) else float)

    def test_new_kernel_owns_its_values(self, k):
        theta = k.get_params()
        new = k.with_params(theta)
        theta += 1.0
        assert new == k

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_size_refused(self, k, extra):
        n = k.n_params
        with pytest.raises(ValueError, match=f"^expected {n} parameters, got {n + extra}$"):
            k.with_params(np.zeros(n + extra))


EQUALITY_KERNELS = {
    "se": lambda dims: SquaredExponential.create(1.0, [0.5, 0.6], active_dims=dims),
    "periodic": lambda dims: Periodic.create(0.7, 0.9, 1.3, active_dims=dims and dims[:1]),
    "sm": lambda dims: SpectralMixture.create([0.5, 1.1], [0.8, 2.0], [0.4, 1.5],
                                              active_dims=dims and dims[:1]),
    "sum": lambda dims: (SquaredExponential.create(2.0, [0.4, 0.7], active_dims=dims)
                         + Periodic.create(0.5, 1.1, 0.8, active_dims=dims and dims[1:])),
}


@pytest.mark.parametrize("dims", [None, [0, 2]], ids=["all-dims", "active-dims"])
@pytest.mark.parametrize("make", EQUALITY_KERNELS.values(), ids=EQUALITY_KERNELS.keys())
class TestEqualityAndHash:
    """Kernels compare by class and field values, and equal kernels hash alike."""

    def test_roundtrip_equal_with_equal_hash(self, make, dims):
        k = make(dims)
        new = k.with_params(k.get_params())
        assert new == k and not new != k
        assert hash(new) == hash(k)
        assert make(dims) == k and len({k, new, make(dims)}) == 1

    def test_any_parameter_change_differs(self, make, dims):
        k = make(dims)
        theta = k.get_params()
        for i in range(theta.size):
            moved = theta.copy()
            moved[i] = np.nextafter(moved[i], np.inf)
            assert k.with_params(moved) != k, i

    def test_other_active_dims_or_class_differ(self, make, dims):
        k = make(dims)
        other = make([1, 3] if dims is None else None)
        assert other != k
        wrapped = SumKernel((k,))
        assert wrapped != k and wrapped == SumKernel((make(dims),))
        assert k != NoiseSpec() and k != "kernel"

    def test_negative_zero_parameter(self, make, dims):
        k = make(dims)
        zero, negative = np.zeros(k.n_params), np.full(k.n_params, -0.0)
        assert k.with_params(zero) == k.with_params(negative)
        assert hash(k.with_params(zero)) == hash(k.with_params(negative))


class TestJitterPolicy:
    def test_psd_after_jitter_on_duplicates(self, rng):
        # exact duplicates make the Gram singular; the policy must recover
        k = SquaredExponential.create(1.0, [0.5, 0.5])
        X = rng.normal(size=(6, 2))
        X = np.vstack([X, X[:3]])
        L, jit = jittered_cholesky(k(X, X))
        assert np.all(np.isfinite(L)) and jit <= 1e-4 * 1.0 * (1 + 1e-9)

    def test_exact_matrix_gets_no_jitter(self):
        L, jit = jittered_cholesky(np.eye(4))
        assert jit == 0.0
        np.testing.assert_allclose(L, np.eye(4))

    def test_escalation_cap_raises(self):
        M = -np.eye(3)
        with pytest.raises(JitterError):
            jittered_cholesky(M)


class TestNoiseAndParams:
    def test_noise_positive(self):
        assert NoiseSpec.create(0.3).variance == pytest.approx(0.3)
        with pytest.raises(ValueError):
            NoiseSpec.create(-1.0)

    def test_full_params_roundtrip(self):
        k = SquaredExponential.create(1.5, [0.4, 0.9])
        n = NoiseSpec.create(0.2)
        theta = full_params(k, n)
        assert theta.size == k.n_params + 1
        k2, n2 = split_params(k, theta)
        np.testing.assert_allclose(k2.get_params(), k.get_params())
        assert n2.variance == pytest.approx(0.2)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_split_params_refuses_wrong_size(self, extra):
        k = SquaredExponential.create(1.5, [0.4, 0.9])
        with pytest.raises(ValueError, match=f"^expected 4 parameters, got {4 + extra}$"):
            split_params(k, np.zeros(4 + extra))
