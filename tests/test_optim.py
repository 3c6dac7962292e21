"""RMSprop against the closed-form recurrence."""

import numpy as np
import pytest

from segan.engine import Parameter
from segan.optim import RMSprop


def test_matches_hand_recurrence_100_steps():
    p = Parameter("theta", np.array([0.5]))
    opt = RMSprop([p], lr=0.0002)
    theta, cache = 0.5, 0.0
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = float(rng.standard_normal())
        p.grad[:] = g
        opt.step()
        cache = 0.9 * cache + (1.0 - 0.9) * g * g
        theta = theta - 0.0002 * g / (np.sqrt(cache) + 1e-6)
        assert abs(float(p.data[0]) - theta) < 1e-12


def test_zero_gradient_is_a_noop():
    p = Parameter("theta", np.array([1.25]))
    opt = RMSprop([p])
    p.grad[:] = 0.0
    opt.step()
    assert float(p.data[0]) == 1.25
    assert float(opt.cache[0][0]) == 0.0


def test_first_step_fixture():
    p = Parameter("theta", np.array([0.0]))
    opt = RMSprop([p], lr=0.0002)
    p.grad[:] = 1.0
    opt.step()
    delta = float(p.data[0])
    assert abs(float(opt.cache[0][0]) - 0.1) < 1e-15
    assert abs(delta - (-0.0002 / (np.sqrt(0.1) + 1e-6))) < 1e-15
    assert abs(delta + 6.3245e-4) < 1e-8


def test_constant_gradient_step_magnitude_approaches_lr():
    p = Parameter("theta", np.array([0.0]))
    opt = RMSprop([p], lr=0.0002)
    prev = 0.0
    for _ in range(200):
        p.grad[:] = 1.0
        prev = float(p.data[0])
        opt.step()
    step = prev - float(p.data[0])
    assert abs(step - 0.0002) / 0.0002 < 1e-3


def test_multiple_params_independent_state():
    a = Parameter("a", np.array([0.0]))
    b = Parameter("b", np.array([0.0]))
    opt = RMSprop([a, b], lr=0.1)
    a.grad[:] = 1.0
    b.grad[:] = 0.0
    opt.step()
    assert float(a.data[0]) != 0.0
    assert float(b.data[0]) == 0.0


def test_zero_grad_clears_buffers():
    p = Parameter("p", np.array([1.0]))
    p.grad[:] = 5.0
    RMSprop([p]).zero_grad()
    assert float(p.grad[0]) == 0.0


def test_lr_validation():
    with pytest.raises(ValueError):
        RMSprop([], lr=0.0)
