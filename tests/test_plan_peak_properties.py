"""The floorplan GA's plan→peak kernel against the HotSpot model.

``_plan_peak(plan, package)`` answers ``peak_temperature`` from one
Cholesky factor of a G matrix that ``_block_conductance`` assembles
straight from the block model's edge map, with no network, solver or
model object.  Its oracle is the model itself: over random slicing plans
and packages the matrix must equal the network's bit for bit, the peak
must equal the model's, and every input the model refuses the kernel
must refuse with the same error.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, ThermalError
from repro.floorplan.geometry import Floorplan
from repro.floorplan.slicing import PolishExpression
from repro.thermal.blockmodel import (
    SINK_NODE, _block_conductance, _plan_peak, build_block_network, spreader_node,
)
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.package import PackageConfig, default_package
from repro.units import MM

PACKAGES = [
    default_package(),
    # thinner die, smaller spreader, better sink: every term moves
    PackageConfig(
        die_thickness_m=0.5 * MM,
        tim_thickness_m=0.05 * MM,
        spreader_side_m=11.0 * MM,
        spreader_thickness_m=0.6 * MM,
        sink_thickness_m=3.0 * MM,
        convection_resistance=1.3,
        ambient_c=38.5,
    ),
]


@st.composite
def plans(draw):
    """A placed slicing plan: 2–8 blocks, random dims, moves and rotations."""
    count = draw(st.integers(min_value=2, max_value=8))
    dims = {
        f"pe{index}": (
            draw(st.floats(min_value=0.5, max_value=12.0)),
            draw(st.floats(min_value=0.5, max_value=12.0)),
        )
        for index in range(count)
    }
    expression = PolishExpression.initial(dims)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        expression = expression.random_move(rng)
    rotated = draw(st.sets(st.sampled_from(sorted(dims))))
    return PolishExpression(expression.tokens, dims, rotated).evaluate()


@st.composite
def power_maps(draw, plan):
    names = draw(st.lists(st.sampled_from(plan.block_names()), unique=True))
    return {
        name: draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=25.0)))
        for name in names
    }


@given(plan=plans(), package=st.sampled_from(PACKAGES), data=st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_the_model_bit_for_bit(plan, package, data):
    network = build_block_network(plan, package)
    assert np.array_equal(_block_conductance(plan, package), network.conductance_matrix())
    model = HotSpotModel(plan, package)
    peak = _plan_peak(plan, package)
    for _ in range(3):
        powers = data.draw(power_maps(plan))
        assert peak(powers) == model.peak_temperature(powers)


def _outcome(call):
    try:
        return "ok", call()
    except ReproError as exc:
        return type(exc), str(exc)


def _both(plan, package, powers):
    """(model outcome, kernel outcome) for one peak query."""
    model = _outcome(lambda: HotSpotModel(plan, package).peak_temperature(powers))
    kernel = _outcome(lambda: _plan_peak(plan, package)(powers))
    return model, kernel


def _plan(*blocks):
    plan = Floorplan()
    for name, x, y, w, h in blocks:
        plan.place(name, x, y, w, h)
    return plan


@pytest.mark.parametrize("package", PACKAGES, ids=["default", "perturbed"])
@pytest.mark.parametrize(
    "plan",
    [
        _plan(("a", 0, 0, 3, 3), ("b", 2, 0, 3, 3)),  # overlap
        _plan(("a", 0, 0, 3, 3), ("b", 0, 0, 3, 3)),  # same place
        _plan(("a", 0, 0, 3, 3), (SINK_NODE, 3, 0, 3, 3)),
        _plan((spreader_node("a"), 0, 0, 3, 3), ("a", 3, 0, 3, 3)),
        Floorplan(),
    ],
    ids=["overlap", "coincident", "sink-name", "spreader-name", "empty"],
)
def test_refused_plans_raise_the_model_errors(plan, package):
    model, kernel = _both(plan, package, {})
    assert model[0] != "ok"
    assert kernel == model


@pytest.mark.parametrize(
    "powers",
    [
        {"ghost": 1.0},
        {SINK_NODE: 1.0},
        {spreader_node("a"): 1.0},
        {"a": -0.5},
        {"a": math.nan},
        {"a": math.inf},
        {"b": 1.0, "ghost": -1.0},
        {"a": -1.0, "ghost": 1.0},
    ],
    ids=["unknown", "sink", "spreader", "negative", "nan", "inf",
         "unknown-after", "unknown-with-negative"],
)
def test_refused_powers_raise_the_model_errors(powers):
    plan = _plan(("a", 0, 0, 3, 3), ("b", 3, 0, 2, 3))
    model, kernel = _both(plan, default_package(), powers)
    assert model[0] is ThermalError
    assert kernel == model
