"""Property-based tests for slicing floorplans.

The key invariants of the Polish-expression representation:

* evaluation never produces overlaps;
* total block area is conserved under every move;
* every block appears exactly once, with its (possibly rotated) dimensions;
* the die bounding box always contains all blocks;
* the moves that skip the full well-formedness check (M1, M2, crossover,
  ``copy()``, and M3's local legality test) agree with it;
* the kernel functions the GA runs on ``(tuple, frozenset)`` chromosomes
  agree with the :class:`PolishExpression` methods, and the GA's sampling
  replica with ``random.Random.sample``, draw for draw;
* the default scoring path's shortcuts (no ``normalised()`` copy, one
  bounding-box scan per cost) change no bit;
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
from repro.floorplan.genetic import (
    GeneticConfig, _crossover, _sample_indices, evolve_floorplan,
)
from repro.floorplan.objectives import FloorplanObjective
from repro.floorplan.slicing import (
    OPERATORS, PolishExpression, _m1, _m2, _m3, _m3_test, _random_move, _rotate,
)
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
    legal = _m3_test(expr.tokens)
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
    tokens, rotated = _crossover(
        (tuple(parent_a.tokens), frozenset(parent_a.rotated)),
        (tuple(parent_b.tokens), frozenset(parent_b.rotated)),
        random.Random(seed),
    )
    child = PolishExpression._unchecked(tokens, parent_a.dims, rotated)
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
# the chromosome kernel and the scoring path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(20))
def test_sample_indices_replicates_random_sample(seed):
    # k <= 5 with n > 21 takes sample's rejection-set branch; every other
    # case here (including all k > 5, whose set size is 85) the pool swap
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in range(2, 81):
        for k in range(1, min(n, 12) + 1):
            assert _sample_indices(ours, n, k) == theirs.sample(range(n), k), (n, k)
            assert ours.random() == theirs.random(), (n, k)


@given(expr=expressions(), seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=80, deadline=None)
def test_move_methods_match_kernel(expr, seed):
    chromosome = (tuple(expr.tokens), frozenset(expr.rotated))
    pairs = [
        (expr.move_swap_operands, _m1),
        (expr.move_complement_chain, _m2),
        (expr.move_swap_operand_operator, _m3),
        (expr.move_rotate, _rotate),
        (expr.random_move, _random_move),
    ]
    for method, kernel in pairs:
        ours, theirs = random.Random(seed), random.Random(seed)
        try:
            moved = method(theirs)
        except SlicingError:
            with pytest.raises(SlicingError):
                kernel(*chromosome, ours)
        else:
            tokens, rotated = kernel(*chromosome, ours)
            assert isinstance(tokens, tuple) and isinstance(rotated, frozenset)
            assert (list(tokens), set(rotated)) == (moved.tokens, moved.rotated)
        assert ours.random() == theirs.random()
    # the explicit-argument forms go through the same kernel functions
    if len(expr.operands()) >= 2:
        assert list(_m1(*chromosome, None, 0)[0]) == expr.move_swap_operands((0,)).tokens
        assert list(_m2(*chromosome, None, 1)[0]) == expr.move_complement_chain(1).tokens
    name = expr.operands()[0]
    assert set(_rotate(*chromosome, None, name)[1]) == expr.move_rotate(name).rotated
    assert chromosome == (tuple(expr.tokens), frozenset(expr.rotated))  # inputs untouched


@given(expr=expressions())
@settings(max_examples=60, deadline=None)
def test_evaluate_is_already_normalised(expr):
    plan = expr.evaluate()
    box = plan.bounding_box()
    assert (box.x, box.y) == (0.0, 0.0)
    # repr tells -0.0 from 0.0: the translation changes no bit
    assert [(b.name, repr(b.rect)) for b in plan.normalised()] == [
        (b.name, repr(b.rect)) for b in plan
    ]


weights = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=5.0))


@given(
    expr=expressions(),
    area=weights, temp=weights, wire=weights, aspect=weights,
    limit=st.floats(min_value=0.5, max_value=4.0),
)
@settings(max_examples=80, deadline=None)
def test_objective_matches_two_scan_formula(expr, area, temp, wire, aspect, limit):
    names = sorted(expr.dims)
    nets = [(a, b, 1.5) for a, b in zip(names, names[1:])]

    def temp_evaluator(plan):
        return sum(b.rect.x * b.area for b in plan)

    objective = FloorplanObjective(
        area_weight=area, temp_weight=temp, wirelength_weight=wire,
        aspect_weight=aspect, aspect_limit=limit,
        temp_evaluator=temp_evaluator, nets=nets,
    )
    plan = expr.evaluate()
    expected = 0.0
    if area:
        expected += area * plan.die_area
    if temp:
        expected += temp * temp_evaluator(plan)
    if wire and nets:
        expected += wire * plan.total_wirelength(nets)
    if aspect:
        box = plan.bounding_box()
        excess = max(0.0, box.aspect_ratio - limit)
        expected += aspect * excess * excess
    assert repr(objective(plan)) == repr(expected)


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


#: (allocation, seed, GA tokens, rotated, cost, evaluations, the stream's
#: next ``random()``) for the default ``GeneticConfig()`` — population 24,
#: tournaments of 3, so selection takes ``sample``'s rejection-set branch —
#: and for ``tournament_size=7``, whose set size (85) sends it back to the
#: pool branch.  Captured before the GA moved onto the chromosome kernel.
GOLDEN_GA_DEFAULT = [
    ("emb-riscx2", 2005, "pe0 pe1 H", ["pe0"], 75.0, 744, 0.987229113602812),
    ("lp-riscx3", 2006, "pe2 pe1 H pe0 H", ["pe1"], 80.0, 744, 0.9525106052794053),
    ("dsp+emb-riscx2+vliw", 2007, "pe3 pe2 H pe1 H pe0 H", ["pe0", "pe1", "pe3"],
     175.02551020408163, 744, 0.6745589297619734),
    ("dspx2+lp-riscx2", 2008, "pe1 pe2 H pe0 pe3 H V", [], 102.375, 744,
     0.7780060389621902),
    ("accelx3+vliw", 2009, "pe3 pe2 pe1 H V pe0 V", ["pe2"], 105.0, 744,
     0.6191742025361558),
]
GOLDEN_GA_TOURNAMENT_7 = [
    ("emb-riscx2", 2005, "pe0 pe1 H", ["pe0"], 75.0, 744, 0.9787804117048946),
    ("lp-riscx3", 2006, "pe2 pe1 H pe0 H", ["pe1"], 80.0, 744, 0.5127303179769892),
    ("dsp+emb-riscx2+vliw", 2007, "pe0 pe1 H pe2 H pe3 H", ["pe0", "pe1"],
     175.02551020408163, 744, 0.6437334519818148),
    ("dspx2+lp-riscx2", 2008, "pe1 pe2 H pe0 pe3 H V", [], 102.375, 744,
     0.15108421885913537),
    ("accelx3+vliw", 2009, "pe3 pe2 pe1 H V pe0 V", ["pe2"], 105.0, 744,
     0.5261693656729084),
]


@pytest.mark.parametrize(
    "config, golden",
    [
        (GeneticConfig(), GOLDEN_GA_DEFAULT),
        (GeneticConfig(tournament_size=7), GOLDEN_GA_TOURNAMENT_7),
    ],
    ids=["default", "tournament7"],
)
def test_default_population_outputs_are_pinned(bm_allocations, config, golden):
    for name, seed, tokens, rotated, cost, evaluations, next_draw in golden:
        architecture = bm_allocations[name]
        rng = random.Random(seed)
        evolved = evolve_floorplan(
            architecture, objective=_wirelength_objective(architecture),
            config=config, rng=rng,
        )
        assert (
            " ".join(evolved.expression.tokens),
            sorted(evolved.expression.rotated),
            evolved.cost,
            evolved.evaluations,
            rng.random(),
        ) == (tokens, rotated, cost, evaluations, next_draw), name
