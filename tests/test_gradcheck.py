"""Finite-difference gradient checks across the op inventory."""

import numpy as np
import pytest

from segan import engine as eg
from segan.engine import Parameter
from segan.errors import ConfigError
from segan.gradcheck import OP_CASES, check_all_ops, grad_check


def test_every_op_passes_at_1e_4():
    results = check_all_ops(seed=0, eps=1e-5)
    assert set(results) == set(OP_CASES)
    for name, err in results.items():
        assert err < 1e-4, f"{name}: {err}"


def test_required_ops_are_covered():
    needed = {"conv1d_stride1", "conv1d_stride2", "conv1d_transpose", "conv1d_one_channel",
              "conv1d_transpose_one_channel", "prelu",
              "leaky_relu", "virtual_batch_norm", "linear", "tanh", "lsq_loss",
              "l1_loss", "add", "sub", "mul", "div", "sqrt", "absolute",
              "mean", "sum", "mean_axis", "reshape", "concat_channels"}
    assert needed <= set(OP_CASES)


def test_each_case_checks_at_least_100_coordinates():
    for name, case in OP_CASES.items():
        _, params = case(np.random.default_rng(0))
        coords = sum(p.data.size for p in params)
        assert coords >= 100, f"{name} only touches {coords} coordinates"


def test_linear_family_is_nearly_exact():
    # Linear-in-parameters ops leave central differences limited only by
    # float64 cancellation, two orders tighter than the 1e-4 gate.
    results = check_all_ops(seed=3, eps=1e-5)
    for name in ("linear", "add", "sub", "concat_channels", "sum", "reshape"):
        assert results[name] < 1e-6, f"{name}: {results[name]}"


def test_composite_conv_prelu_lsq():
    rng = np.random.default_rng(42)
    x = Parameter("x", rng.standard_normal((2, 16, 2)))
    w = Parameter("w", rng.standard_normal((5, 2, 3)) * 0.4)
    b = Parameter("b", rng.standard_normal(3) * 0.1)
    a = Parameter("a", rng.uniform(0.1, 0.5, 3))

    def loss():
        h = eg.conv1d(x, w, b, stride=2)
        return eg.lsq_loss(eg.prelu(h, a), 1.0)

    assert grad_check(loss, [x, w, b, a], eps=1e-5) < 1e-4


def test_detects_kink_disagreement():
    # At x = 0 the analytic leaky-relu slope and the central difference
    # disagree by construction, so the checker must report a large error.
    x = Parameter("x", np.zeros((4, 4)))

    def loss():
        return eg.leaky_relu(x).sum()

    assert grad_check(loss, [x], eps=1e-5) > 0.1


def test_negative_seed_is_rejected():
    with pytest.raises(ConfigError, match="seed"):
        check_all_ops(seed=-1)


def test_seed_changes_draws_but_not_verdict():
    a = check_all_ops(seed=0)
    b = check_all_ops(seed=1)
    assert a.keys() == b.keys()
    assert all(err < 1e-4 for err in b.values())
