"""Kraus channels and the T1/T2 noise constructions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, random_density
from oracles import embed_channel, identity_channel, kraus_apply, unitary_as_channel
from qptkit import KrausChannel, NoiseParams, channels, qpt_channel
from qptkit.channels import (
    amplitude_damping,
    apply_channel,
    compose,
    decoherence_channel,
    pure_dephasing,
    validate_completeness,
)
from qptkit.operators import standard_gate

ONE = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def test_amplitude_damping_zero_duration():
    ch = amplitude_damping(0.0, 50.0)
    assert np.array_equal(ch.operators[0], np.eye(2))
    assert np.abs(ch.operators[1]).max() == 0.0


def test_amplitude_damping_half_life():
    # duration T1*ln2 gives gamma = 1/2 exactly
    t1_us = 2.0
    duration = t1_us * 1e3 * math.log(2.0)
    ch = amplitude_damping(duration, t1_us)
    out = apply_channel(ch, ONE)
    assert np.abs(out - np.diag([0.5, 0.5])).max() < 1e-12


def test_amplitude_damping_excited_population():
    duration, t1 = 420.0, 48.7
    gamma = 1.0 - math.exp(-duration / (t1 * 1e3))
    out = apply_channel(amplitude_damping(duration, t1), ONE)
    assert abs(out[1, 1].real - (1.0 - gamma)) < 1e-12
    assert abs(out[0, 0].real - gamma) < 1e-12


def test_amplitude_damping_complete():
    for duration in (0.0, 17.0, 300.0, 5e4):
        assert validate_completeness(amplitude_damping(duration, 48.7)) < 1e-12


def test_amplitude_damping_rejects():
    with pytest.raises(ValueError, match="t1"):
        amplitude_damping(10.0, 0.0)
    with pytest.raises(ValueError, match="duration"):
        amplitude_damping(-1.0, 10.0)
    # a NaN fails every comparison, so each bound is tested as "not within"
    with pytest.raises(ValueError, match="^duration must be non-negative, got nan$"):
        amplitude_damping(math.nan, 10.0)
    with pytest.raises(ValueError, match="^t1 must be positive, got nan$"):
        amplitude_damping(10.0, math.nan)


def test_pure_dephasing_t2_limit_is_identity():
    ch = pure_dephasing(1e6, 31.4, 62.8)
    out = apply_channel(ch, PLUS)
    assert np.abs(out - PLUS).max() < 1e-12


def test_pure_dephasing_coherence_factor():
    duration, t1, t2 = 300.0, 48.7, 14.0
    rate = 1.0 / t2 - 1.0 / (2.0 * t1)
    p = (1.0 - math.exp(-(duration / 1e3) * rate)) / 2.0
    out = apply_channel(pure_dephasing(duration, t1, t2), PLUS)
    assert abs(out[0, 1] - 0.5 * (1.0 - 2.0 * p)) < 1e-12
    assert abs(out[0, 0] - 0.5) < 1e-12  # populations untouched


def test_pure_dephasing_rejects_unphysical():
    with pytest.raises(ValueError, match="2\\*t1"):
        pure_dephasing(10.0, 10.0, 30.0)
    with pytest.raises(ValueError, match="^duration must be non-negative, got nan$"):
        pure_dephasing(math.nan, 10.0, 10.0)


def test_noise_params_validation():
    NoiseParams(50.0, 70.0)
    NoiseParams(50.0, 100.0, readout_flip_prob=0.5)
    with pytest.raises(ValueError):
        NoiseParams(0.0, 10.0)
    with pytest.raises(ValueError):
        NoiseParams(50.0, 101.0)
    with pytest.raises(ValueError):
        NoiseParams(50.0, 0.0)
    with pytest.raises(ValueError):
        NoiseParams(50.0, 70.0, readout_flip_prob=0.51)


def test_decoherence_channel_matches_composition():
    params = NoiseParams(48.7, 14.0)
    combined = decoherence_channel(params, 300.0)
    seq = compose(
        amplitude_damping(300.0, 48.7), pure_dephasing(300.0, 48.7, 14.0)
    )
    rho = random_density(np.random.default_rng(5), 2)
    assert np.abs(apply_channel(combined, rho) - apply_channel(seq, rho)).max() < 1e-12
    with pytest.raises(ValueError, match="non-negative"):
        decoherence_channel(params, -1.0)


def test_unitary_as_channel():
    h = unitary_as_channel(standard_gate("h"))
    zero = np.diag([1.0, 0.0]).astype(complex)
    assert np.abs(apply_channel(h, zero) - PLUS).max() < 1e-12
    with pytest.raises(ValueError, match="not unitary"):
        unitary_as_channel(np.array([[1, 0], [0, 0.5]]))


def test_kraus_channel_validation():
    with pytest.raises(ValueError, match="at least one"):
        KrausChannel(1, ())
    with pytest.raises(ValueError, match="shape"):
        KrausChannel(2, (np.eye(2),))
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        op = np.eye(2, dtype=complex)
        op[0, 1] = bad
        # it fails where it enters, before any arithmetic on it warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^Kraus operator has non-finite entries$"):
                KrausChannel(1, (np.eye(2) / 2, op))


def test_compose_amplitude_damping_twice():
    t1_us = 1.0
    half = amplitude_damping(t1_us * 1e3 * math.log(2.0), t1_us)
    out = apply_channel(compose(half, half), ONE)
    assert abs(out[1, 1].real - 0.25) < 1e-12
    assert len(compose(half, half).operators) == 4


def test_compose_order():
    # X then measurement-like damping differs from damping then X
    x = unitary_as_channel(standard_gate("x"))
    damp = amplitude_damping(1e5, 10.0)
    a = apply_channel(compose(x, damp), np.diag([1.0, 0.0]).astype(complex))
    b = apply_channel(compose(damp, x), np.diag([1.0, 0.0]).astype(complex))
    assert a[1, 1].real < b[1, 1].real


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_compose_equals_sequential(seed):
    rng = np.random.default_rng(seed)
    first = compose(
        unitary_as_channel(haar_unitary(rng, 2)),
        amplitude_damping(float(rng.uniform(0, 2e4)), 30.0),
    )
    second = pure_dephasing(float(rng.uniform(0, 2e4)), 30.0, 40.0)
    rho = random_density(rng, 2)
    combined = apply_channel(compose(first, second), rho)
    sequential = apply_channel(second, apply_channel(first, rho))
    assert np.abs(combined - sequential).max() < 1e-12


def test_amp_deph_commute():
    rng = np.random.default_rng(9)
    amp = amplitude_damping(7e3, 20.0)
    deph = pure_dephasing(1.1e4, 20.0, 25.0)
    for _ in range(5):
        rho = random_density(rng, 2)
        ab = apply_channel(deph, apply_channel(amp, rho))
        ba = apply_channel(amp, apply_channel(deph, rho))
        assert np.abs(ab - ba).max() < 1e-12


def test_incomplete_channel_rejected_by_qpt_channel(monkeypatch):
    broken = KrausChannel(1, (np.eye(2), np.eye(2)))
    assert abs(validate_completeness(broken) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="not trace preserving"):
        qpt_channel(broken)
    with monkeypatch.context() as patched:
        # a NaN deviation fails the test too
        patched.setattr(channels, "validate_completeness", lambda channel: math.nan)
        with pytest.raises(ValueError, match="^channel is not trace preserving: deviation nan$"):
            qpt_channel(identity_channel(1))
    # apply_channel is the plain linear map, checked for shape only
    out = apply_channel(broken, PLUS)
    assert np.abs(out - 2 * PLUS).max() < 1e-12
    with pytest.raises(ValueError, match="does not match a 1-qubit channel"):
        apply_channel(broken, np.eye(4))


def test_apply_channel_full_damping_absorbs():
    rng = np.random.default_rng(3)
    gamma_one = KrausChannel(
        1,
        (np.array([[1, 0], [0, 0]], dtype=complex),
         np.array([[0, 1], [0, 0]], dtype=complex)),
    )
    out = apply_channel(gamma_one, random_density(rng, 2))
    assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-12


def test_dephasing_is_unital():
    mixed = np.eye(2, dtype=complex) / 2
    out = apply_channel(pure_dephasing(5e3, 10.0, 12.0), mixed)
    assert np.abs(out - mixed).max() < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_apply_channel_preserves_density_invariants(seed):
    rng = np.random.default_rng(seed)
    ch = compose(
        unitary_as_channel(haar_unitary(rng, 2)),
        compose(
            amplitude_damping(float(rng.uniform(0, 5e4)), 25.0),
            pure_dephasing(float(rng.uniform(0, 5e4)), 25.0, 30.0),
        ),
    )
    out = apply_channel(ch, random_density(rng, 2))
    assert abs(np.trace(out) - 1.0) < 1e-9
    assert np.abs(out - out.conj().T).max() < 1e-9
    assert np.linalg.eigvalsh(out).min() > -1e-9


@pytest.mark.parametrize("n", [1, 2])
def test_apply_channel_on_a_stack_matches_each_matrix(n):
    # every matrix of a stack gets the bits it gets on its own, and those are
    # the Kraus sum in Kraus order
    rng = np.random.default_rng(90 + n)
    d = 1 << n
    for rank in (1, 2, 3, 4):
        q, _ = np.linalg.qr(rng.normal(size=(d * rank, d)) + 1j * rng.normal(size=(d * rank, d)))
        channel = KrausChannel(n, tuple(q[d * k:d * (k + 1)] for k in range(rank)))
        for shape in ((4**n,), (3, 5), (1,), (0,)):
            stack = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
            stack[rng.random(stack.shape) < 0.2] = -0.0
            out = apply_channel(channel, stack)
            assert out.shape == stack.shape
            for index in np.ndindex(shape):
                single = apply_channel(channel, stack[index])
                assert out[index].tobytes() == single.tobytes()
                assert single.tobytes() == kraus_apply(channel, stack[index]).tobytes()
    with pytest.raises(ValueError, match=r"state shape \(3, 4, 4\) does not match a 1-qubit"):
        apply_channel(amplitude_damping(1.0, 1.0), np.zeros((3, 4, 4)))
    with pytest.raises(ValueError, match=r"state shape \(2,\) does not match"):
        apply_channel(amplitude_damping(1.0, 1.0), np.zeros(2))


def test_embed_channel_spectator_untouched():
    damp = embed_channel(amplitude_damping(1e5, 10.0), [0], 2)
    rho = np.kron(PLUS, ONE)  # q1 = |+>, q0 = |1>
    out = apply_channel(damp, rho)
    # q0 relaxes almost fully; the q1 marginal keeps its coherence
    q1_marginal = out[::2, ::2] + out[1::2, 1::2]
    assert np.abs(q1_marginal - PLUS).max() < 1e-12
    assert out.reshape(2, 2, 2, 2)[1, 1, 1, 1].real < 1e-4


def test_identity_channel():
    rho = random_density(np.random.default_rng(0), 4)
    assert np.abs(apply_channel(identity_channel(2), rho) - rho).max() == 0.0
