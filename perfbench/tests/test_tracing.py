"""Span recording and the per-layer metrics derived from spans."""

from types import SimpleNamespace

import pytest

import tracing


def span(sid, name, t0, t1, parent, info=None):
    return (sid, name, t0, t1, parent, info)


def assemble(need_grad, elements=100):
    return {"need_grad": need_grad, "elements": elements}


def run(iterations, f_min, reason="function"):
    return {"iterations": iterations, "converged_by": reason,
            "gradient_norm": 1e-7, "f_min": f_min}


def one_step_run():
    """A run with one step whose lifted restart wins."""
    return [
        span(0, "cli.main", 0.0, 10.0, -1),
        span(1, "config.load", 0.0, 0.5, 0),
        span(2, "evolution.run_simulation", 0.5, 9.0, 0),
        span(3, "mesh.build", 0.5, 0.6, 2),
        span(4, "evolution.incremental_step", 1.0, 8.0, 2,
             {"k": 1, "reaction_force": 12.5}),
        span(5, "optimizer.minimize", 1.0, 3.0, 4, run(2, -1.0)),
        span(6, "mesh.unpack", 1.0, 1.1, 5),
        span(7, "energy.assemble", 1.1, 1.5, 5, assemble(False)),
        span(8, "optimizer.lbfgs", 1.5, 1.7, 5),
        span(9, "optimizer.line_search", 1.7, 2.9, 5),
        span(10, "energy.assemble", 1.8, 2.8, 9, assemble(True)),
        span(11, "energy.assemble", 3.0, 3.5, 4, assemble(False)),  # lifted value
        span(12, "optimizer.minimize", 3.5, 6.0, 4, run(3, -2.0, "gradient")),
        span(13, "energy.assemble", 6.0, 6.5, 4, assemble(False)),  # post-step
        span(14, "evolution.reaction_force", 6.5, 7.5, 4),
        span(15, "energy.assemble", 6.6, 7.4, 14, assemble(True)),
        span(16, "output.write_outputs", 9.0, 9.6, 0),
        span(17, "output.csv", 9.0, 9.2, 16, {"bytes": 300}),
    ]


def test_layer_metrics_of_one_step():
    wall, m = tracing.layer_metrics(one_step_run())
    assert wall == 10.0
    assert m["energy.f.calls"] == 3 and m["energy.fg.calls"] == 2
    assert m["energy.f.s"] == pytest.approx(0.4 + 0.5 + 0.5)
    assert m["energy.fg.us_per_call"] == pytest.approx(0.9e6)
    assert m["energy.f.ns_per_elem"] == pytest.approx(1.4 / 300 * 1e9)
    assert m["optimizer.minimize.calls"] == 2
    assert m["optimizer.iterations"] == 5
    assert m["optimizer.iters_per_step.max"] == 5
    assert m["optimizer.evals_per_iter"] == pytest.approx(2 / 5)
    assert m["optimizer.converged_by.gradient"] == 1
    assert m["optimizer.converged_by.function"] == 1
    # minimize time 4.5 s less the unpack and two assemblies inside it
    assert m["optimizer.self_s"] == pytest.approx(4.5 - 0.1 - 0.4 - 1.0)
    assert m["evolution.steps"] == 1 and m["evolution.retries"] == 0
    assert m["evolution.lift_restarts"] == 1 and m["evolution.lift_wins"] == 1
    assert m["evolution.post_s"] == pytest.approx(0.5 + 1.0)
    assert m["mesh.build.calls"] == 1
    assert m["output.csv.bytes"] == 300 and m["output.vtk.files"] == 0
    assert m["unattributed_s"] == pytest.approx(10.0 - 0.5 - 8.5 - 0.6)


def test_step_table_reports_the_accepted_run():
    (row,) = tracing.step_table(one_step_run())
    assert row["lift_ran"] and row["lift_won"]
    assert row["converged_by"] == "gradient" and row["iterations"] == 5
    assert row["reaction_force"] == 12.5


def test_wrapped_calls_nest_and_record_info():
    tracer = tracing.Tracer("t")
    inner = tracer.wrap("optimizer.minimize",
                        lambda: SimpleNamespace(iterations=4, converged_by="step",
                                                gradient_norm=0.0, f_min=1.0))
    outer = tracer.wrap("evolution.run_simulation", lambda: inner())
    outer()
    (parent, child) = tracer.spans
    assert child[1] == "optimizer.minimize" and child[4] == parent[0]
    assert parent[4] == -1 and child[5]["iterations"] == 4


def test_a_raising_call_still_closes_its_span():
    tracer = tracing.Tracer("t")

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("mesh.build", fail)()
    assert tracer.spans[0][5] is None and tracer._stack == [-1]


def test_install_patches_every_name_and_restores_it():
    before = {(t, a): getattr(tracing.resolve(t), a) for t, a, _ in tracing.PATCHES}
    with tracing.Tracer("t").install():
        for (target, attr), original in before.items():
            assert getattr(tracing.resolve(target), attr) is not original
    for (target, attr), original in before.items():
        assert getattr(tracing.resolve(target), attr) is original


def test_every_declared_per_layer_metric_is_computed():
    import run

    _, per_layer = run.declared_metrics()
    _, m = tracing.layer_metrics(one_step_run())
    assert set(m) | {"trace.overhead_frac"} == set(per_layer)
