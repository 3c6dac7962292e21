"""Checks of the benchmark's own arithmetic and wiring.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import stats  # noqa: E402
from tracer import Spans, Tracer, attribute_phases, conv_work, self_times  # noqa: E402


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 41))            # 40 samples
    p, value, beyond = stats.tail(values)
    assert (p, value, beyond) == (75.0, 30, 10)
    p, value, beyond = stats.tail(list(range(45, 0, -1)))
    assert value == 35 and beyond == 10 and p == pytest.approx(100 * 35 / 45)
    assert stats.tail(range(11))[1:] == (0, 10)
    assert stats.tail(range(10)) is None


def test_rtf_takes_each_like_operation_at_its_fastest():
    from workloads import EnhanceLong, EvalBaseline

    ops = [{"unit": u, "file": f, "wall_s": w, "seconds": 2.0, "setup_s": 0.1, "gain_db": 5.0}
           for u, row in enumerate([(1.0, 3.0), (2.0, 2.5)]) for f, w in enumerate(row)]
    wl = object.__new__(EvalBaseline)
    assert wl.end_to_end(ops)[0]["rtf"] == pytest.approx((1.0 + 2.5) / 4.0)
    # one pass; every call's checkpoint load counts as the fastest load
    ops = [{"unit": 0, "file": f, "wall_s": w, "load_s": load, "seconds": 5.0, "setup_s": load,
            "windows": 1} for f, w, load in ((0, 3.5, 3.0), (1, 4.0, 2.5), (2, 12.0, 2.0))]
    wl = object.__new__(EnhanceLong)
    assert wl.end_to_end(ops)[0]["rtf"] == pytest.approx((0.5 + 1.5 + 10.0 + 3 * 2.0) / 15.0)
    assert stats.best([float("nan"), 2.0, 1.0]) == 1.0 and math.isnan(stats.best([]))


def test_quartiles_follow_statistics_quantiles():
    assert stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)


def test_self_time_subtracts_the_union_of_direct_children():
    s = Spans()
    root = s.add("backward", 0.0, 10.0)
    s.add("closure", 1.0, 3.0, parent=root)
    s.add("closure", 2.0, 4.0, parent=root)       # overlaps the first: counted once
    inner = s.add("closure", 6.0, 7.0, parent=root)
    s.add("nested", 6.2, 6.8, parent=inner)        # grandchild: not the root's business
    s.add("other-root", 20.0, 21.0)
    selfs = self_times(s)
    assert selfs[root] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[inner] == pytest.approx(0.4)
    assert selfs[-1] == pytest.approx(1.0)


def test_open_spans_nest_by_call_order():
    clock = iter(range(100)).__next__
    s = Spans(clock=clock)
    a = s.begin("a")
    b = s.begin("b")
    s.finish(b)
    c = s.begin("c")
    s.finish(c)
    s.finish(a)
    assert s.parent == [-1, a, a]
    assert [s.duration(i) for i in (a, b, c)] == [5, 1, 1]


def test_phases_split_an_adversarial_step_at_the_public_calls():
    events = [(10, "d_forward"), (20, "backward"), (25, "opt_d"),
              (40, "g_forward"),
              (50, "d_forward"), (60, "backward"), (65, "opt_d"),
              (75, "d_forward"), (90, "backward"), (97, "opt_g")]
    phases = attribute_phases(0, 100, events)
    assert phases == {"d_real": 25, "g_forward": 15, "d_fake": 25, "g_update": 32, "remainder": 3}
    assert sum(phases.values()) == 100


def test_phases_of_an_l1_step_and_of_micro_batches():
    l1 = attribute_phases(0, 50, [(12, "g_forward"), (30, "backward"), (45, "opt_g")])
    assert l1 == {"d_real": 0.0, "g_forward": 12, "d_fake": 0.0, "g_update": 33, "remainder": 5}
    accum = attribute_phases(0, 100, [(10, "opt_d"), (20, "g_forward"), (30, "g_forward"),
                                      (60, "opt_d"), (90, "opt_g")])
    assert accum["g_forward"] == 20 and accum["d_fake"] == 30


def _T(shape, name="unnamed"):
    """Stand-in carrying only what conv_work reads from a Tensor."""
    data = SimpleNamespace(shape=shape, size=math.prod(shape), itemsize=4, ndim=len(shape))
    return SimpleNamespace(data=data, name=name)


def test_conv_work_counts_from_shapes():
    fwd = conv_work("conv1d", _T((16, 1024, 1)), _T((31, 1, 16), "g.enc1.w"), 2)
    assert fwd.layer == "g.enc1"
    assert fwd.madds == 16 * 512 * 31 * 1 * 16
    assert fwd.fwd_bytes == 4 * (16 * 1024 + 31 * 16 + 16 * 512 * 16)
    up = conv_work("conv1d_transpose", _T((2, 8, 2048)), _T((31, 512, 2048), "g.dec11.w"), 2)
    assert up.madds == 2 * 8 * 31 * 2048 * 512
    assert up.out_size == 2 * 16 * 512


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_traced_engine_charges_backward_to_the_creating_op():
    np = pytest.importorskip("numpy")
    import segan.engine as eg
    from segan.engine import Parameter, Tensor
    original = eg.conv1d
    tracer = Tracer()
    tracer.install(full=True)
    try:
        x = Tensor(np.ones((1, 8, 1)), requires_grad=True)
        w = Parameter("g.enc1.w", np.full((3, 1, 2), 0.5))
        y = eg.virtual_batch_norm(eg.conv1d(x, w, stride=2), np.zeros(2), np.ones(2), 4,
                                  Parameter("d.vbn1.gamma", np.ones(2)),
                                  Parameter("d.vbn1.beta", np.zeros(2)))
        eg.backward(y.sum())
    finally:
        tracer.uninstall()
    assert eg.conv1d is original
    names = tracer.spans.name
    assert names.count("engine.conv1d.fwd") == 1 and names.count("engine.conv1d.bwd") == 1
    assert tracer.spans.attr[names.index("engine.conv1d.bwd")] == "g.enc1"
    # the composite's inner sub/mul/div/sqrt nodes are all charged to it
    assert names.count("engine.virtual_batch_norm.fwd") == 1
    assert names.count("engine.virtual_batch_norm.bwd") >= 5
    assert "engine.other.fwd" in names                      # y.sum()
    # forward 1*4*3*1*2 multiply-adds, then the same again for each of dx and dw
    assert tracer.counts["conv.madds"] == 3 * (4 * 3 * 2)
    assert np.all(w.grad != 0)


@pytest.mark.parametrize("fail_at", [0, 2])
def test_a_failing_train_step_counts_as_failed_operations(tmp_path, monkeypatch, fail_at):
    """A train_step that raises (as on a non-finite loss) ends the `segan
    train` run with exit 2; the workload reports failed checks and no
    crash, whether or not any step finished first."""
    pytest.importorskip("numpy")
    import segan.cli  # noqa: F401
    import segan.trainer as trainer
    from segan.errors import NonFiniteLossError

    import run
    from workloads import TRAIN_STEPS, TrainAdv

    real, calls = trainer.train_step, []

    def flaky(*a, **k):
        calls.append(1)
        if len(calls) > fail_at:
            raise NonFiniteLossError("injected non-finite loss")
        return real(*a, **k)

    monkeypatch.setattr(trainer, "train_step", flaky)
    TrainAdv.prepare(tmp_path, 1)
    wl = TrainAdv(tmp_path, 1)
    result = run.measure(wl, 0.01, trace=False)
    assert trainer.train_step is flaky                      # the tracer put it back
    assert wl.units_run == wl.min_units
    # every step of each run, the learning check and the reload
    assert wl.checks.failed >= wl.min_units * (TRAIN_STEPS + 2)
    rtf = result["end_to_end"]["rtf"]
    assert math.isnan(rtf) if fail_at == 0 else rtf > 0
    assert result["named"]["step_ms_p50"][2] == len(calls)
