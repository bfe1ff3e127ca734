"""Tests of the benchmark itself: failure accounting, the tracer's patching
and the clock's rescaling.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import os
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import rcdlab as R  # noqa: E402
from rcdlab import cli, geodesy, heat, ot, solvers  # noqa: E402

import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_form_error_is_counted_and_the_pass_goes_on():
    ran = []
    ops = [
        # pair (0, 3) misses the intrinsic-metric tolerance: a real, cheap FormError
        ("intrinsic cycle:8", lambda: R.intrinsic_metric(R.dirichlet_form(R.make_model_space("cycle", 8)))),
        ("after", lambda: ran.append(True)),
    ]
    tally = workloads.Tally()
    workloads.run_ops(ops, tally)
    assert ran == [True]
    assert (tally.attempted, tally.failed, tally.fail_ratio) == (2, 1, 0.5)
    assert tally.errors[0].startswith("intrinsic cycle:8: FormError")


def test_missed_check_is_counted():
    tally = workloads.Tally()
    workloads.run_ops([("check", lambda: workloads.check(False, "over threshold"))], tally)
    assert tally.failed == 1 and "over threshold" in tally.errors[0]


def test_other_exceptions_are_not_swallowed():
    with pytest.raises(ZeroDivisionError):
        workloads.run_ops([("bug", lambda: 1 / 0)], workloads.Tally())


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_every_binding_is_patched(tracer):
    bound = set(tracer.bindings["solvers.exact_ot"])
    assert {f"rcdlab.{m}.exact_ot" for m in ("solvers", "ot", "heat", "evi", "geodesy")} <= bound
    assert "rcdlab.geodesy._epsilon_min_lp" in tracer.bindings["solvers.epsilon_min"]
    assert "rcdlab.epsilon_min" in tracer.bindings["geodesy.epsilon_min"]
    for name, places in tracer.bindings.items():
        assert places, f"{name} bound nowhere"
    originals = {id(original) for _, _, original in tracer._patches}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "rcdlab" or mod_name.startswith("rcdlab."):
            assert not [a for a, v in vars(mod).items() if id(v) in originals], mod_name


def test_uninstall_restores_the_originals():
    t = tracing.Tracer()
    before = (solvers.exact_ot, ot.exact_ot, geodesy._epsilon_min_lp, solvers.linprog)
    t.install()
    assert ot.exact_ot is not before[1]
    t.uninstall()
    assert (solvers.exact_ot, ot.exact_ot, geodesy._epsilon_min_lp, solvers.linprog) == before


def test_spans_nest_and_count(tracer):
    with tracer.root("op"):
        space = R.make_model_space("cycle", 8)
        mu, nu = R.dirac(space, 0), R.dirac(space, 3)
        R.w2(mu, nu)
        heat.semigroup_flow(R.dirichlet_form(space), mu.density(), [0.0, 0.1])
    m = tracer.metrics()
    assert m["ot.w2.calls"] == 1
    assert m["solvers.exact_ot.calls"] == 2  # one for w2, one for the flow's speed
    assert m["solvers.linprog.calls"] >= 2
    assert 0.0 <= m["ot.w2.self_s"] <= m["ot.w2.s"]
    assert m["heat.semigroup_apply.calls"] == 2
    assert m["geodesy.intermediate_entropy_min.useful_ratio"] == 0.0
    assert tracer.spans[0][0] == "op" and tracer.spans[0][3] == -1
    assert all(span[3] >= 0 for span in tracer.spans[1:])


def test_recursive_emission_is_one_span(tracer):
    cli.dumps_canonical({"a": [1.0, {"b": 2.0}], "c": "x"})
    assert tracer.calls("cli.dumps_canonical") == 1


def test_infeasible_calls_lower_the_useful_ratio(tracer):
    # no lattice point or mixture lies exactly halfway between the ends of segment:4
    space = R.make_model_space("segment", 4)
    mu0, mu1 = R.dirac(space, 0), R.dirac(space, 3)
    with pytest.raises(R.InfeasibleError):
        geodesy.intermediate_entropy_min(mu0, mu1, 0.5, 0.0)
    geodesy.intermediate_entropy_min(mu0, mu1, 0.5, 0.1)
    assert tracer.metrics()["geodesy.intermediate_entropy_min.useful_ratio"] == 0.5


def test_a_renamed_function_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + ("ot.no_such_function",))
    with pytest.raises(RuntimeError, match="ot.no_such_function"):
        tracing.Tracer().install()


def test_predicted_spans_are_traced():
    for names in workloads.PREDICTED.values():
        assert set(names) <= set(tracing.SPANS)


def test_clock_rescales_each_stretch_by_its_samples():
    timer = clock.Clock()
    timer.samples = [(0.0, 0.1), (1.0, 0.3), (3.0, 0.3)]
    ref = clock.REFERENCE_S
    # 0.5 s between kernel times 0.1 and 0.3, then 1.0 s between 0.3 and 0.3
    assert timer.scaled(0.5, 2.0) == pytest.approx(0.5 * ref / 0.2 + 1.0 * ref / 0.3)


def test_clock_samples_in_the_background_and_excludes_them():
    timer = clock.Clock()
    timer.start()
    try:
        begin, wall0 = timer.now(), time.perf_counter()
        while time.perf_counter() - wall0 < 2.5 * clock.INTERVAL_S:
            sum(i * i for i in range(1000))
        end, wall = timer.now(), time.perf_counter() - wall0
    finally:
        timer.stop()
    kernel = sum(cal for _, cal in timer.samples[1:-1])
    assert len(timer.samples) >= 4
    assert end - begin == pytest.approx(wall - kernel, abs=0.05)
