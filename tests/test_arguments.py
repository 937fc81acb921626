"""No entry point mutates its caller's arguments.

Each case calls one entry point on writeable float arrays, the form that
`np.asarray(..., dtype=float)` passes through without a copy, and then
checks that every argument still equals a deep copy taken before the call.
"""

import copy
import dataclasses

import numpy as np
import pytest

from hpcmobo.gp import fit_gp, gp_posterior
from hpcmobo.optimizer import ehvi, expected_improvement
from hpcmobo.pareto import hypervolume, infer_reference, nondominated
from hpcmobo.sampler import build_plan
from hpcmobo.surrogate import fit_feature_mask, fit_tree_ensemble

# 4 trees of depth 3, seed 1
_FOREST = (4, 3, 1)


def _cases():
    """Name -> (entry point, arguments), on arrays made afresh for each call,
    so one case's mutation cannot hide another's."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = X @ np.array([2.0, -1.0, 0.5]) + rng.normal(0.0, 0.1, size=40)
    nodes = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    queries = np.arange(1.0, 33.0)
    gp_runtime = fit_gp(nodes.copy(), np.log(100.0 / nodes + 5.0))
    gp_power = fit_gp(nodes.copy(), 20.0 + 4.0 * nodes)
    front = nondominated(np.column_stack([100.0 / nodes + 5.0, 20.0 + 4.0 * nodes]))
    # five objective pairs, one dominated and one repeated
    points = np.array([[1.0, 9.0], [2.0, 5.0], [3.0, 6.0], [4.0, 2.0], [2.0, 5.0]])
    # a fifth of the rows hold losses far above the rest, so build_plan
    # winsorizes them at a cut below the largest
    losses = np.concatenate([np.linspace(0.0, 1.0, 80), np.geomspace(10.0, 1000.0, 20)])
    return {
        "fit_tree_ensemble": (fit_tree_ensemble,
                              (X, y, *_FOREST, np.array([1.0, 2.0, 3.0]))),
        "TreeEnsemble.predict": (fit_tree_ensemble(X.copy(), y.copy(), *_FOREST).predict,
                                 (X,)),
        "fit_gp": (fit_gp, (nodes, 20.0 + 4.0 * nodes)),
        "fit_gp warm": (fit_gp, (nodes, 21.0 + 4.0 * nodes, 1e-10, None, gp_power)),
        "gp_posterior": (gp_posterior, (gp_power, queries)),
        "ehvi": (ehvi, (gp_runtime, gp_power, queries, front, np.array([30.0, 160.0]))),
        "expected_improvement": (expected_improvement,
                                 (np.linspace(-1.0, 1.0, 9), np.linspace(0.0, 2.0, 9), 0.0)),
        "build_plan": (build_plan, (losses, 0.3, 0.01)),
        "nondominated": (nondominated, (points,)),
        "hypervolume": (hypervolume, (points, np.array([5.0, 10.0]))),
        "infer_reference": (infer_reference, (points,)),
        "fit_feature_mask": (fit_feature_mask, (X, y, 50, 3)),
    }


def _same(a, b) -> bool:
    """Deep equality that compares arrays by dtype, shape and bits."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return a == b


@pytest.mark.parametrize("name", list(_cases()))
def test_an_entry_point_leaves_its_arguments_as_it_got_them(name):
    call, args = _cases()[name]
    for arg in args:
        if isinstance(arg, np.ndarray):
            assert arg.flags.writeable
    before = copy.deepcopy(args)
    call(*args)
    for k, (arg, copied) in enumerate(zip(args, before)):
        assert _same(arg, copied), f"{name} changed its argument {k}"
