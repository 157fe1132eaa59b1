"""The column-backed ``Floorplan`` against its block-object oracle.

``Floorplan`` stores names plus x/y/w/h columns and builds a ``Block``
only when one is read; ``tests/floorplan_oracle.py`` keeps the
name → ``Block`` dict it replaced.  Over random plans (overlapping,
abutting and sliced) every geometric answer must be equal — floats bit
for bit, dicts in the same order — and so must every refusal.  Non-finite
geometry is refused wherever it could enter a plan.
"""

import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FloorplanError, ReproError
from repro.floorplan.geometry import Block, Floorplan, Rect
from repro.floorplan.slicing import PolishExpression, _evaluate

from floorplan_oracle import OracleFloorplan

sides = st.floats(min_value=0.25, max_value=12.0)
#: coarse coordinates, so that blocks often abut and overlap exactly
coords = st.integers(min_value=0, max_value=24).map(lambda v: v / 2.0)


@st.composite
def placed_blocks(draw):
    """0–7 uniquely named blocks placed freely (overlaps allowed)."""
    count = draw(st.integers(min_value=0, max_value=7))
    return [
        (f"b{draw(st.integers(0, 99))}_{index}", draw(coords), draw(coords),
         draw(st.one_of(sides, coords.filter(bool))),
         draw(st.one_of(sides, coords.filter(bool))))
        for index in range(count)
    ]


@st.composite
def sliced_blocks(draw):
    """A slicing plan's blocks: they abut without overlapping."""
    count = draw(st.integers(min_value=1, max_value=7))
    dims = {f"pe{index}": (draw(sides), draw(sides)) for index in range(count)}
    expression = PolishExpression.initial(dims)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        if count > 1:
            expression = expression.random_move(rng)
    plan = expression.evaluate()
    return [(b.name, b.rect.x, b.rect.y, b.rect.w, b.rect.h) for b in plan]


def both(blocks):
    plan, oracle = Floorplan(), OracleFloorplan()
    for row in blocks:
        plan.place(*row)
        oracle.place(*row)
    return plan, oracle


def outcome(call):
    try:
        return "ok", call()
    except ReproError as exc:
        return type(exc), str(exc)


@given(blocks=st.one_of(placed_blocks(), sliced_blocks()))
@settings(max_examples=300, deadline=None)
def test_geometry_matches_the_block_oracle(blocks):
    plan, oracle = both(blocks)
    assert len(plan) == len(oracle)
    assert list(plan) == list(oracle)
    assert plan.blocks() == oracle.blocks()
    assert plan.block_names() == oracle.block_names()
    for name, *_ in blocks:
        assert name in plan
        assert plan.block(name) == oracle.block(name)
    assert "ghost" not in plan
    assert outcome(lambda: plan.block("ghost")) == outcome(lambda: oracle.block("ghost"))
    assert outcome(plan.bounding_box) == outcome(oracle.bounding_box)
    assert plan.die_size() == oracle.die_size()
    assert plan.die_area == oracle.die_area
    assert plan.block_area == oracle.block_area
    assert plan.whitespace_fraction == oracle.whitespace_fraction
    assert list(plan.adjacency().items()) == list(oracle.adjacency().items())
    assert outcome(plan.validate) == outcome(oracle.validate)
    assert repr(plan) == repr(oracle)
    assert list(plan.normalised()) == list(oracle.normalised())
    nets = [(a, b, 1.5) for (a, *_), (b, *_) in zip(blocks, blocks[1:])]
    assert plan.total_wirelength(nets) == oracle.total_wirelength(nets)


@given(blocks=st.one_of(placed_blocks(), sliced_blocks()))
@settings(max_examples=100, deadline=None)
def test_copies_and_pickles_keep_every_column(blocks):
    plan, _ = both(blocks)
    for copy in (Floorplan(plan), pickle.loads(pickle.dumps(plan))):
        assert list(copy) == list(plan)
        assert copy.adjacency() == plan.adjacency()
        assert copy.die_size() == plan.die_size()
        copy.place("extra", 100.0, 100.0, 1.0, 1.0)
        assert "extra" not in plan and len(copy) == len(plan) + 1


@given(blocks=sliced_blocks())
@settings(max_examples=100, deadline=None)
def test_built_from_blocks_or_columns_alike(blocks):
    plan, _ = both(blocks)
    rows = list(zip(*blocks)) if blocks else [()] * 5
    assert list(Floorplan._from_columns(*map(list, rows))) == list(plan)
    assert list(Floorplan(plan.blocks())) == list(plan)


def test_duplicate_names_are_refused_by_every_write():
    plan = Floorplan()
    plan.place("a", 0, 0, 1, 1)
    with pytest.raises(FloorplanError, match="duplicate block name 'a'"):
        plan.place("a", 5, 5, 1, 1)
    with pytest.raises(FloorplanError, match="duplicate block name 'a'"):
        plan.add(Block("a", Rect(5, 5, 1, 1)))
    with pytest.raises(FloorplanError, match="duplicate block name 'a'"):
        Floorplan._from_columns(["a", "b", "a"], [0, 1, 2], [0, 0, 0], [1, 1, 1], [1, 1, 1])
    with pytest.raises(FloorplanError, match="block name must be non-empty"):
        Floorplan._from_columns(["a", ""], [0, 1], [0, 0], [1, 1], [1, 1])
    assert plan.block_names() == ["a"]


BAD_VALUES = [math.nan, math.inf, -math.inf]


class TestNonFiniteGeometry:
    @pytest.mark.parametrize("value", BAD_VALUES + [0.0, -1.0])
    @pytest.mark.parametrize("field", ["w", "h"])
    def test_rect_sides(self, field, value):
        kwargs = dict(x=0.0, y=0.0, w=1.0, h=2.0)
        kwargs[field] = value
        message = f"rectangle {field} must be positive and finite, got {value}"
        with pytest.raises(FloorplanError) as excinfo:
            Rect(**kwargs)
        assert str(excinfo.value) == message
        plan = Floorplan()
        with pytest.raises(FloorplanError) as excinfo:
            plan.place("a", **kwargs)
        assert str(excinfo.value) == message
        assert len(plan) == 0

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("field", ["x", "y"])
    def test_rect_corner(self, field, value):
        kwargs = dict(x=0.0, y=0.0, w=1.0, h=2.0)
        kwargs[field] = value
        with pytest.raises(FloorplanError) as excinfo:
            Floorplan().place("a", **kwargs)
        assert str(excinfo.value) == f"rectangle {field} must be finite, got {value}"

    @pytest.mark.parametrize("value", BAD_VALUES + [0.0, -2.0])
    def test_column_writes_check_the_first_bad_row(self, value):
        xs, ys, ws, hs = [0.0, 1.0, 2.0], [0.0] * 3, [1.0] * 3, [1.0] * 3
        ws[1] = value
        hs[2] = value
        with pytest.raises(FloorplanError) as excinfo:
            Floorplan._from_columns(["a", "b", "c"], xs, ys, ws, hs)
        assert str(excinfo.value) == (
            f"rectangle w must be positive and finite, got {value}"
        )

    @pytest.mark.parametrize("value", BAD_VALUES + [0.0])
    def test_slicing_evaluation(self, value):
        dims = {"a": (1.0, 2.0), "b": (value, 1.0)}
        tokens = ("a", "b", "V")
        for rotated, field in ((frozenset(), "w"), (frozenset({"b"}), "h")):
            with pytest.raises(FloorplanError) as excinfo:
                _evaluate(tokens, rotated, dims)
            assert str(excinfo.value) == (
                f"rectangle {field} must be positive and finite, got {value}"
            )

    def test_overflowing_sums_are_not_refused(self):
        # the fast check's sum overflows; the row check decides
        plan = Floorplan._from_columns(
            ["a", "b"], [0.0, 1e308], [0.0, 0.0], [1e308, 1e308], [1.0, 1.0]
        )
        assert plan.block("b").rect.x == 1e308
