"""The one block-model builder against an edge-by-edge network.

``build_block_network`` assembles its network in one index-keyed pass
over the plan's columns.  Its oracle is the node-by-node build through
``ThermalNetwork.add_node`` and ``connect`` from the block-by-block edge
map of ``tests/floorplan_oracle.py``: over random slicing plans and
packages, and over every plan a thermal GA scores, the node order, the
capacitances and the G matrix must match bit for bit, and so must a
model's peak.  Plans and powers the model refuses raise pinned errors.

The module keeps the name it had when it pinned the GA's plan→peak
kernel against the model; the one builder replaced that kernel, and its
refusal tests keep their ids.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FloorplanError, ReproError, ThermalError
from repro.floorplan.geometry import Floorplan
from repro.floorplan.slicing import PolishExpression
from repro.floorplan.genetic import GeneticConfig, evolve_floorplan
from repro.floorplan.objectives import thermal_objective
from repro.library.pe import Architecture
from repro.library.presets import default_catalogue
from repro.thermal.blockmodel import (
    SINK_NODE, _edge_conductances, build_block_network, spreader_node,
)
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.network import ThermalNetwork
from repro.thermal.package import PackageConfig, default_package
from repro.thermal.steady import _cho_solve, _cholesky
from repro.units import MM, mm2_to_m2

from floorplan_oracle import OracleFloorplan, oracle_edge_conductances

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


def edge_by_edge(plan, package):
    """The block network built node by node and edge by edge, from the
    block-object edge map."""
    plan = OracleFloorplan(plan)
    network = ThermalNetwork(package.ambient_c)
    spreader_area_m2 = package.spreader_side_m**2
    spare = max(0.1, 1.0 - min(1.0, mm2_to_m2(plan.block_area) / spreader_area_m2))
    for block in plan:
        network.add_node(
            block.name, capacitance=package.block_capacitance(mm2_to_m2(block.area))
        )
    for block in plan:
        fraction = mm2_to_m2(block.area) / spreader_area_m2
        network.add_node(
            spreader_node(block.name),
            capacitance=package.spreader_capacitance() * min(1.0, fraction),
        )
    network.add_node(
        SINK_NODE,
        capacitance=package.sink_capacitance()
        + package.spreader_capacitance() * spare,
        ambient_conductance=1.0 / package.convection_resistance,
    )
    for (name_a, name_b), conductance in oracle_edge_conductances(plan, package).items():
        network.connect(name_a, name_b, conductance)
    network.check_grounded()
    return network


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
def test_one_pass_build_matches_edge_by_edge_bit_for_bit(plan, package, data):
    network = build_block_network(plan, package)
    reference = edge_by_edge(plan, package)
    assert network.node_names() == reference.node_names()
    assert network.ambient_c == reference.ambient_c
    assert np.array_equal(network.capacitance_vector(), reference.capacitance_vector())
    assert np.array_equal(network.conductance_matrix(), reference.conductance_matrix())
    # a model's peak is the hottest block of one backsolve on that matrix
    model = HotSpotModel(plan, package)
    factor = _cholesky(reference.conductance_matrix())
    count = len(plan)
    for _ in range(3):
        powers = data.draw(power_maps(plan))
        rise = _cho_solve(factor, reference.power_vector(powers))
        expected = max(package.ambient_c + value for value in rise[:count])
        assert model.peak_temperature(powers) == expected


def ga_plans(seed, count):
    """Every plan a small thermal GA scores, over *count* catalogue PEs."""
    catalogue = default_catalogue()
    architecture = Architecture(f"ga{seed}")
    rng = random.Random(seed)
    for _ in range(count):
        architecture.add_instance(rng.choice(catalogue))
    plans = []

    def record(plan):
        plans.append(plan)
        return 0.0

    evolve_floorplan(
        architecture,
        objective=thermal_objective(record),
        config=GeneticConfig(population_size=8, generations=4),
        seed=seed,
    )
    return plans


@pytest.mark.parametrize("package", PACKAGES, ids=["default", "perturbed"])
@pytest.mark.parametrize("seed, count", [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
def test_ga_plans_build_g_bit_for_bit(seed, count, package):
    plans = ga_plans(seed, count)
    assert len(plans) > 8
    for plan in plans:
        network = build_block_network(plan, package)
        reference = edge_by_edge(plan, package)
        assert network.node_names() == reference.node_names()
        assert np.array_equal(
            network.capacitance_vector(), reference.capacitance_vector()
        )
        assert np.array_equal(
            network.conductance_matrix(), reference.conductance_matrix()
        )
        # DSE diffs the name-keyed map: same keys, order and floats
        assert list(_edge_conductances(plan, package).items()) == list(
            oracle_edge_conductances(OracleFloorplan(plan), package).items()
        )


def _outcome(call):
    try:
        return "ok", call()
    except ReproError as exc:
        return type(exc), str(exc)


def _plan(*blocks):
    plan = Floorplan()
    for name, x, y, w, h in blocks:
        plan.place(name, x, y, w, h)
    return plan


@pytest.mark.parametrize("package", PACKAGES, ids=["default", "perturbed"])
@pytest.mark.parametrize(
    "plan, error, message",
    [
        (
            _plan(("a", 0, 0, 3, 3), ("b", 2, 0, 3, 3)),
            FloorplanError,
            "blocks 'a' and 'b' overlap: "
            "Rect(x=0, y=0, w=3, h=3) vs Rect(x=2, y=0, w=3, h=3)",
        ),
        (
            _plan(("a", 0, 0, 3, 3), ("b", 0, 0, 3, 3)),
            FloorplanError,
            "blocks 'a' and 'b' overlap: "
            "Rect(x=0, y=0, w=3, h=3) vs Rect(x=0, y=0, w=3, h=3)",
        ),
        (
            _plan(("a", 0, 0, 3, 3), (SINK_NODE, 3, 0, 3, 3)),
            ThermalError,
            "floorplan uses reserved block name '__sink__'",
        ),
        (
            _plan((spreader_node("a"), 0, 0, 3, 3), ("a", 3, 0, 3, 3)),
            ThermalError,
            "floorplan uses reserved block name '__sp__a'",
        ),
        (
            Floorplan(),
            ThermalError,
            "cannot build a thermal model for an empty floorplan",
        ),
    ],
    ids=["overlap", "coincident", "sink-name", "spreader-name", "empty"],
)
def test_refused_plans_raise_the_model_errors(plan, error, message, package):
    assert _outcome(lambda: build_block_network(plan, package)) == (error, message)
    assert _outcome(lambda: HotSpotModel(plan, package)) == (error, message)


UNKNOWN_GHOST = "power given for unknown block 'ghost'; known blocks: ['a', 'b']"


@pytest.mark.parametrize(
    "powers, message",
    [
        ({"ghost": 1.0}, UNKNOWN_GHOST),
        (
            {SINK_NODE: 1.0},
            "power given for unknown block '__sink__'; known blocks: ['a', 'b']",
        ),
        (
            {spreader_node("a"): 1.0},
            "power given for unknown block '__sp__a'; known blocks: ['a', 'b']",
        ),
        ({"a": -0.5}, "negative power on node 'a': -0.5"),
        ({"a": math.nan}, "non-finite power on node 'a': nan"),
        ({"a": math.inf}, "non-finite power on node 'a': inf"),
        ({"b": 1.0, "ghost": -1.0}, UNKNOWN_GHOST),
        ({"a": -1.0, "ghost": 1.0}, UNKNOWN_GHOST),
    ],
    ids=["unknown", "sink", "spreader", "negative", "nan", "inf",
         "unknown-after", "unknown-with-negative"],
)
def test_refused_powers_raise_the_model_errors(powers, message):
    model = HotSpotModel(_plan(("a", 0, 0, 3, 3), ("b", 3, 0, 2, 3)))
    for query in (model.peak_temperature, model.block_temperatures):
        assert _outcome(lambda: query(powers)) == (ThermalError, message)
    assert _outcome(lambda: model.fork().peak_temperature(powers)) == (
        ThermalError, message,
    )
