"""Property-based tests for slicing floorplans.

The key invariants of the Polish-expression representation:

* evaluation never produces overlaps;
* total block area is conserved under every move;
* every block appears exactly once, with its (possibly rotated) dimensions;
* the die bounding box always contains all blocks;
* the moves that skip the full well-formedness check (M1, M2, crossover,
  ``copy()``, and M3's local legality test) agree with it;
* the RNG call sequence of the moves, and so the GA's and the annealer's
  outputs for fixed seeds, stay pinned.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosynth.allocation import feasible_allocations
from repro.errors import SlicingError
from repro.floorplan.annealing import AnnealingConfig, anneal_floorplan
from repro.floorplan.genetic import GeneticConfig, _crossover, evolve_floorplan
from repro.floorplan.objectives import FloorplanObjective
from repro.floorplan.slicing import OPERATORS, PolishExpression
from repro.library.presets import default_catalogue, library_for_graph
from repro.taskgraph.benchmarks import BENCHMARK_NAMES, benchmark


@st.composite
def dims_maps(draw, min_blocks=1):
    count = draw(st.integers(min_value=min_blocks, max_value=8))
    dims = {}
    for index in range(count):
        w = draw(st.floats(min_value=0.5, max_value=12.0))
        h = draw(st.floats(min_value=0.5, max_value=12.0))
        dims[f"b{index}"] = (w, h)
    return dims


def _walk(draw, dims):
    expr = PolishExpression.initial(dims)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    moves = draw(st.integers(min_value=0, max_value=20))
    for _ in range(moves):
        try:
            expr = expr.random_move(rng)
        except Exception:
            break
    return expr


@st.composite
def expressions(draw):
    return _walk(draw, draw(dims_maps()))


@st.composite
def relabelled(draw):
    """A well-formed expression with redrawn operators: often not normalized."""
    expr = draw(expressions())
    tokens = [
        draw(st.sampled_from(OPERATORS)) if token in OPERATORS else token
        for token in expr.tokens
    ]
    return PolishExpression(tokens, expr.dims, expr.rotated)


@st.composite
def parent_pairs(draw):
    dims = draw(dims_maps(min_blocks=2))
    return _walk(draw, dims), _walk(draw, dims)


def full_check(expr):
    """The public constructor's full re-scan; raises SlicingError."""
    return PolishExpression(expr.tokens, expr.dims, expr.rotated)


@given(expr=expressions())
@settings(max_examples=60, deadline=None)
def test_evaluation_has_no_overlaps(expr):
    expr.evaluate().validate()


@given(expr=expressions())
@settings(max_examples=60, deadline=None)
def test_block_area_conserved(expr):
    plan = expr.evaluate()
    expected = sum(w * h for w, h in expr.dims.values())
    assert abs(plan.block_area - expected) < 1e-6


@given(expr=expressions())
@settings(max_examples=60, deadline=None)
def test_all_blocks_present_with_correct_dims(expr):
    plan = expr.evaluate()
    assert set(plan.block_names()) == set(expr.dims)
    for name, (w, h) in expr.dims.items():
        rect = plan.block(name).rect
        if name in expr.rotated:
            w, h = h, w
        assert abs(rect.w - w) < 1e-9
        assert abs(rect.h - h) < 1e-9


@given(expr=expressions())
@settings(max_examples=60, deadline=None)
def test_bounding_box_contains_all_blocks(expr):
    plan = expr.evaluate()
    box = plan.bounding_box()
    for block in plan:
        assert block.rect.x >= box.x - 1e-9
        assert block.rect.y >= box.y - 1e-9
        assert block.rect.x2 <= box.x2 + 1e-9
        assert block.rect.y2 <= box.y2 + 1e-9


@given(expr=expressions())
@settings(max_examples=60, deadline=None)
def test_die_area_at_least_block_area(expr):
    plan = expr.evaluate()
    assert plan.die_area >= plan.block_area - 1e-9


@given(expr=expressions(), seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_moves_are_reproducible(expr, seed):
    a = expr.random_move(random.Random(seed))
    b = expr.random_move(random.Random(seed))
    assert a.tokens == b.tokens
    assert a.rotated == b.rotated


# ----------------------------------------------------------------------
# moves that skip the full check: the full check is their oracle
# ----------------------------------------------------------------------
@given(expr=st.one_of(expressions(), relabelled()))
@settings(max_examples=150, deadline=None)
def test_local_m3_test_matches_full_check(expr):
    legal = expr._m3_test()
    tokens = expr.tokens
    for i in range(len(tokens) - 1):
        if (tokens[i] in OPERATORS) == (tokens[i + 1] in OPERATORS):
            continue  # not an M3 candidate
        swapped = list(tokens)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        try:
            accepted = PolishExpression(swapped, expr.dims, expr.rotated).is_normalized()
        except SlicingError:
            accepted = False
        assert legal(i) == accepted, (tokens, i)


@given(expr=expressions(), seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=80, deadline=None)
def test_unchecked_moves_pass_the_full_check(expr, seed):
    rng = random.Random(seed)
    outputs = [expr.copy()]
    if len(expr.operands()) >= 2:
        outputs.append(expr.move_swap_operands(rng))
        outputs.append(expr.move_complement_chain(rng))
        try:
            outputs.append(expr.move_swap_operand_operator(rng))
        except SlicingError:  # e.g. "b0 b1 V" has no legal M3
            pass
    for out in outputs:
        full_check(out)
        assert out.is_normalized()
        assert sorted(out.operands()) == sorted(expr.operands())


@given(parents=parent_pairs(), seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=80, deadline=None)
def test_crossover_children_pass_the_full_check(parents, seed):
    parent_a, parent_b = parents
    child = _crossover(parent_a, parent_b, random.Random(seed))
    full_check(child)
    assert child.is_normalized()
    assert [t in OPERATORS for t in child.tokens] == [
        t in OPERATORS for t in parent_a.tokens
    ]
    assert child.rotated <= set(parent_a.dims)


@given(expr=expressions())
@settings(max_examples=40, deadline=None)
def test_copy_is_independent(expr):
    tokens, dims, rotated = list(expr.tokens), dict(expr.dims), set(expr.rotated)
    clone = expr.copy()
    clone.tokens.reverse()
    clone.dims["extra"] = (1.0, 1.0)
    clone.rotated.add("extra")
    assert (expr.tokens, expr.dims, expr.rotated) == (tokens, dims, rotated)


# ----------------------------------------------------------------------
# golden outputs: the RNG call sequence of the moves is pinned
# ----------------------------------------------------------------------
def test_random_move_sequence_is_pinned():
    dims = {f"b{k}": (1.0 + k, 2.5 - 0.2 * k) for k in range(7)}
    rng = random.Random(18)
    expr = PolishExpression.initial(dims)
    for _ in range(200):
        expr = expr.random_move(rng)
    assert " ".join(expr.tokens) == "b6 b1 b2 H V b4 V b0 b3 H V b5 V"
    assert expr.rotated == {"b0", "b1", "b2", "b3"}
    assert rng.random() == 0.919208304918498


GOLDEN_GA = GeneticConfig(population_size=8, generations=5)
GOLDEN_SA = AnnealingConfig(
    initial_temperature=50.0, final_temperature=1.0, cooling_rate=0.8,
    moves_per_temperature=8,
)

#: (allocation, seed, GA (tokens, rotated, cost, evaluations),
#:  SA (tokens, rotated, cost, accepted moves)) for every 29th multi-PE
#: feasible allocation of the Bm benchmarks
GOLDEN_SEARCH = [
    ("emb-riscx2", 2005,
     ("pe0 pe1 H", ["pe0"], 75.0, 48),
     ("pe0 pe1 V", [], 75.0, 144)),
    ("lp-riscx3", 2006,
     ("pe2 pe1 H pe0 H", ["pe1"], 80.0, 48),
     ("pe0 pe1 V pe2 V", [], 80.0, 97)),
    ("dsp+emb-riscx2+vliw", 2007,
     ("pe0 pe3 V pe2 V pe1 V", ["pe2"], 180.77551020408163, 48),
     ("pe0 pe1 V pe3 pe2 V H", ["pe1", "pe2", "pe3"], 165.25, 69)),
    ("dspx2+lp-riscx2", 2008,
     ("pe1 pe2 V pe0 V pe3 V", ["pe2", "pe3"], 113.27499999999999, 48),
     ("pe0 pe1 V pe3 pe2 V H", ["pe1"], 102.375, 85)),
    ("accelx3+vliw", 2009,
     ("pe3 pe1 V pe2 H pe0 V", ["pe0", "pe1", "pe2"], 106.75, 48),
     ("pe2 pe1 H pe3 V pe0 H", ["pe1", "pe2", "pe3"], 105.0, 96)),
]


@pytest.fixture(scope="module")
def bm_allocations():
    """Multi-PE feasible allocations by name (the same set for Bm1–4)."""
    by_benchmark = []
    for name in BENCHMARK_NAMES:
        graph = benchmark(name)
        allocations = feasible_allocations(
            graph, library_for_graph(graph), default_catalogue(), 4
        )
        by_benchmark.append([a for a in allocations if len(a) > 1])
    names = [[a.name for a in allocations] for allocations in by_benchmark]
    assert all(n == names[0] for n in names)
    sample = by_benchmark[0][::29]
    assert [a.name for a in sample] == [row[0] for row in GOLDEN_SEARCH]
    return {a.name: a for a in sample}


def _wirelength_objective(architecture):
    names = architecture.pe_names()
    nets = [(a, b, 1.0) for a, b in zip(names, names[1:])]
    return FloorplanObjective(area_weight=1.0, wirelength_weight=0.5, nets=nets)


@pytest.mark.parametrize("name, seed, ga, sa", GOLDEN_SEARCH)
def test_search_outputs_are_pinned(bm_allocations, name, seed, ga, sa):
    architecture = bm_allocations[name]
    objective = _wirelength_objective(architecture)
    evolved = evolve_floorplan(architecture, objective=objective, config=GOLDEN_GA, seed=seed)
    annealed = anneal_floorplan(architecture, objective=objective, config=GOLDEN_SA, seed=seed)
    assert (
        " ".join(evolved.expression.tokens),
        sorted(evolved.expression.rotated),
        evolved.cost,
        evolved.evaluations,
    ) == ga
    assert (
        " ".join(annealed.expression.tokens),
        sorted(annealed.expression.rotated),
        annealed.cost,
        annealed.accepted_moves,
    ) == sa
