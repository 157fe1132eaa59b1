"""The draw-identical shortcuts of :mod:`repro.rng` and the GA tournament.

``_randbelow``, ``_choice`` and ``_shuffle`` replay ``random.Random``'s
``randrange``, ``choice`` and ``shuffle`` straight over ``getrandbits``;
``_sample_indices`` and ``_tournament`` replay ``sample(range(n), k)``.
Each must consume exactly the draws of the method it replaces, so a twin
generator driven through the public methods ends in the same state.  A
generator whose class overrides only ``random()`` draws bounded integers
another way; it must fall back to its own methods and so keep the search
outputs it had before the shortcuts existed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosynth.allocation import feasible_allocations
from repro.floorplan.annealing import AnnealingConfig, anneal_floorplan
from repro.floorplan.genetic import (
    GeneticConfig, _sample_indices, _tournament, evolve_floorplan,
)
from repro.floorplan.objectives import FloorplanObjective
from repro.library.presets import default_catalogue, library_for_graph
from repro.rng import _choice, _draws_bits, _randbelow, _shuffle
from repro.taskgraph.benchmarks import benchmark


class RandomOnly(random.Random):
    """Overrides only ``random()``: ``Random`` then draws integers from it."""

    def random(self):
        return super().random()


GENERATORS = [random.Random, RandomOnly]

#: (operation, size, k) triples; k is used by the sample operations only
operations = st.lists(
    st.tuples(
        st.sampled_from(["randbelow", "choice", "shuffle", "sample", "tournament", "random"]),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=12),
    ),
    max_size=40,
)


def test_fallback_is_chosen_by_the_draw_method():
    assert _draws_bits(random.Random(1))
    assert not _draws_bits(RandomOnly(1))


@pytest.mark.parametrize("kind", GENERATORS, ids=lambda kind: kind.__name__)
@given(seed=st.integers(min_value=0, max_value=2**32), ops=operations)
@settings(max_examples=150, deadline=None)
def test_helpers_replicate_random_methods(kind, seed, ops):
    ours, theirs = kind(seed), kind(seed)
    for op, size, k in ops:
        if op == "randbelow":
            assert _randbelow(ours, size) == theirs.randrange(size)
        elif op == "choice":
            seq = [f"x{i}" for i in range(size)]
            assert _choice(ours, seq) == theirs.choice(seq)
        elif op == "shuffle":
            a = list(range(size % 40))
            b = list(a)
            _shuffle(ours, a)
            theirs.shuffle(b)
            assert a == b
        elif op == "sample":
            k = min(k, size)
            assert _sample_indices(ours, size, k) == theirs.sample(range(size), k)
        elif op == "tournament":
            k = min(k, size)
            assert _tournament(ours, size, k)() == min(theirs.sample(range(size), k))
        else:
            assert ours.random() == theirs.random()
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("kind", GENERATORS, ids=lambda kind: kind.__name__)
def test_tournament_replicates_both_sample_branches(kind):
    # population 16 / tournament 3 takes sample's pool branch, population
    # 24 / tournament 3 its rejection-set branch, and k > 5 grows the set
    # size (85 for k = 7) back over the population
    for n, k in [(16, 3), (24, 3), (22, 2), (24, 7), (90, 7), (2, 2)]:
        ours, theirs = kind(n * 31 + k), kind(n * 31 + k)
        pick = _tournament(ours, n, k)
        for _ in range(200):
            assert pick() == min(theirs.sample(range(n), k)), (n, k)
        assert ours.getstate() == theirs.getstate(), (n, k)


@pytest.mark.parametrize("n", [0, -3])
def test_empty_range_is_rejected(n):
    with pytest.raises(ValueError):
        _randbelow(random.Random(0), n)


# ----------------------------------------------------------------------
# a random()-only subclass keeps the pre-shortcut search outputs
# ----------------------------------------------------------------------
SMALL_GA = GeneticConfig(population_size=8, generations=5)
SET_BRANCH_GA = GeneticConfig(population_size=24, generations=3)
SMALL_SA = AnnealingConfig(
    initial_temperature=50.0, final_temperature=1.0, cooling_rate=0.8,
    moves_per_temperature=8,
)

#: (allocation, seed, GA with SMALL_GA, GA with SET_BRANCH_GA, SA): each
#: (tokens, rotated, cost[, accepted moves], the stream's next random()),
#: captured for ``RandomOnly`` before the GA and the moves drew through
#: the shortcuts
GOLDEN_RANDOM_ONLY = [
    ("emb-risc+vliw", 11,
     ("pe0 pe1 H", ["pe0"], 94.5, 0.9800867108621683),
     ("pe0 pe1 H", ["pe0"], 94.5, 0.6791958598911734),
     ("pe0 pe1 V", [], 94.5, 144, 0.6036232911527608)),
    ("dsp+lp-risc+vliw", 12,
     ("pe1 pe0 V pe2 H", ["pe0", "pe1", "pe2"], 120.0, 0.06592867232580091),
     ("pe1 pe0 V pe2 H", ["pe0", "pe1", "pe2"], 120.0, 0.4656648197394486),
     ("pe1 pe0 H pe2 V", ["pe2"], 120.0, 103, 0.3123041283411524)),
    ("emb-risc+lp-riscx2+vliw", 13,
     ("pe2 pe0 H pe3 pe1 H V", ["pe3"], 170.0, 0.06594767086336151),
     ("pe1 pe2 H pe0 pe3 H V", [], 165.5, 0.21526091317568274),
     ("pe1 pe2 H pe0 pe3 H V", ["pe3"], 165.5, 65, 0.2845829017297862)),
    ("dsp+lp-risc+vliwx2", 14,
     ("pe1 pe0 H pe2 pe3 H V", ["pe0"], 177.5, 0.37963899223382114),
     ("pe1 pe0 H pe2 pe3 H V", ["pe0"], 177.5, 0.9031571604038887),
     ("pe2 pe3 H pe1 pe0 H V", ["pe1", "pe2", "pe3"], 177.5, 79, 0.034459937720981104)),
]


@pytest.fixture(scope="module")
def allocations():
    graph = benchmark("Bm1")
    found = feasible_allocations(graph, library_for_graph(graph), default_catalogue(), 4)
    sample = [a for a in found if len(a) > 1][3::31]
    assert [a.name for a in sample] == [row[0] for row in GOLDEN_RANDOM_ONLY]
    return sample


def _objective(architecture):
    names = architecture.pe_names()
    nets = [(a, b, 1.0) for a, b in zip(names, names[1:])]
    return FloorplanObjective(area_weight=1.0, wirelength_weight=0.5, nets=nets)


@pytest.mark.parametrize("row", range(len(GOLDEN_RANDOM_ONLY)))
def test_random_only_subclass_keeps_its_search_outputs(allocations, row):
    _, seed, small, set_branch, annealed = GOLDEN_RANDOM_ONLY[row]
    architecture = allocations[row]
    objective = _objective(architecture)
    for config, golden in [(SMALL_GA, small), (SET_BRANCH_GA, set_branch)]:
        rng = RandomOnly(seed)
        result = evolve_floorplan(architecture, objective=objective, config=config, rng=rng)
        assert (
            " ".join(result.expression.tokens),
            sorted(result.expression.rotated),
            result.cost,
            rng.random(),
        ) == golden
    rng = RandomOnly(seed)
    result = anneal_floorplan(architecture, objective=objective, config=SMALL_SA, rng=rng)
    assert (
        " ".join(result.expression.tokens),
        sorted(result.expression.rotated),
        result.cost,
        result.accepted_moves,
        rng.random(),
    ) == annealed
