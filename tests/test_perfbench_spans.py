"""The benchmark tracer keeps working against the package it patches.

``perfbench/spans.py`` wraps ``solver.compute_directions``, ``solver.sla``'s
factorizations, ``cones.svec`` and every public cone method by attribute
name, so a refactor that renames or drops one of them breaks traced benchmark
runs. The tracer is loaded here read-only and wrapped around one small PSD
solve.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from natcone import solver
from natcone.bench import InstanceSpec, build_instance

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_matches_untraced():
    spans = load_spans()
    problem, _ = build_instance(InstanceSpec("expdesign", 3, None, "rt", 0, "ef-exp"))
    plain = solver.solve(problem)
    original = solver.compute_directions
    tracer = spans.Tracer()
    with tracer.installed():
        traced = solver.solve(problem)
    assert solver.compute_directions is original
    assert (traced.iterations, traced.primal_obj) == (plain.iterations, plain.primal_obj)
    for name in ("solver.directions", "linalg.lu_factor", "sym.svec", "cones.possemidef.hess"):
        assert tracer.calls[name] > 0, name
    # every oracle layer of every cone in the instance is attributed: a public
    # helper called by a membership test would move its time out of member_s
    layers = tracer.layers(traced.iterations)
    for tag in {K.tag for K in problem.cones}:
        for metric in ("member_s", "grad_s", "hess.calls"):
            assert layers[f"cones.{tag}.{metric}"] > 0, (tag, metric)


@pytest.mark.parametrize(
    "cell",
    [("matcompletion", 2, 3, None, 0, "nf"), ("matregression", 5, 3, None, 0, "nf")],
    ids=["matcompletion-nf", "matregression-nf"],
)
def test_traced_product_form_solve_matches_untraced(cell):
    # the tracer wraps hess_prod of every cone class, also where the base
    # class returns None; the solve must take the same path either way
    spans = load_spans()
    problem, _ = build_instance(InstanceSpec(*cell))
    plain = solver.solve(problem)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = solver.solve(problem)
    assert (traced.iterations, traced.primal_obj) == (plain.iterations, plain.primal_obj)
    assert np.array_equal(traced.point.x, plain.point.x)
    tag = problem.cones[0].tag
    assert tracer.calls[f"cones.{tag}.hess_prod"] > 0
    assert tracer.calls[f"cones.{tag}.hess"] == 0
