"""Slicing floorplans as normalized Polish expressions.

A slicing floorplan recursively cuts the die with horizontal and vertical
lines; it is representable as a postfix ("Polish") expression over block
operands and the operators

* ``V`` — vertical cut: the two sub-floorplans sit **side by side**;
* ``H`` — horizontal cut: the two sub-floorplans are **stacked**.

This is the classic Wong–Liu representation used by both annealing and
genetic floorplanners (the paper's thermal-aware floorplanner, ref [3], is a
GA over floorplan encodings).  An expression is *normalized* when no two
consecutive operators are identical, which removes redundant encodings of
the same plan.

The three Wong–Liu perturbation moves are provided for the annealer, plus a
rotation move (blocks may be placed in either orientation).  They and the
slicing evaluation are implemented once, as private functions over
``(tokens, rotated)`` (the *kernel*): :class:`PolishExpression`'s methods
delegate to them, and the genetic floorplanner runs them directly on
immutable ``(tuple, frozenset)`` chromosomes.  Every kernel move returns
its tokens as a new tuple and never mutates its input, and draws through
:mod:`repro.rng`'s ``_randbelow``/``_choice``/``_shuffle``, which consume
exactly the draws of ``randrange``/``choice``/``shuffle``.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import SlicingError
from ..rng import SeedLike, _choice, _randbelow, _shuffle, as_random
from .geometry import Floorplan

__all__ = ["PolishExpression", "OPERATORS"]

#: The two slicing operators.
OPERATORS = ("H", "V")

#: A kernel move's result: new tokens, and the rotated set it was given
#: (a ``set`` for a :class:`PolishExpression`, a ``frozenset`` for a GA
#: chromosome) or that set with one block toggled.
Move = Tuple[Tuple[str, ...], AbstractSet[str]]


def _repeated_operators(tokens: Sequence[str]) -> int:
    """Adjacent pairs of identical operators (0 for a normalized sequence)."""
    return sum(
        first == second and first in OPERATORS
        for first, second in zip(tokens, tokens[1:])
    )


# ----------------------------------------------------------------------
# kernel: moves and evaluation over (tokens, rotated)
# ----------------------------------------------------------------------
def _initial_tokens(names: Sequence[str], alternate: bool = True) -> List[str]:
    """Left-leaning ``b0 b1 O b2 O …``; operators V, H, V, … or all V."""
    tokens: List[str] = [names[0]]
    for index, name in enumerate(names[1:]):
        tokens.append(name)
        tokens.append(OPERATORS[index % 2 == 0] if alternate else "V")
    return tokens


def _operands(tokens: Sequence[str]) -> List[str]:
    return [t for t in tokens if t not in OPERATORS]


def _swapped(tokens: Sequence[str], i: int, j: int) -> Tuple[str, ...]:
    out = list(tokens)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _m1(
    tokens: Sequence[str], rotated: AbstractSet[str], rand: Optional[random.Random],
    first: Optional[int] = None,
) -> Move:
    """M1: swap operands ``first`` and ``first + 1`` (drawn when ``None``).

    Operands trade places, so every prefix keeps its operand count: the
    result is well formed by construction.
    """
    positions = [i for i, t in enumerate(tokens) if t not in OPERATORS]
    if len(positions) < 2:
        raise SlicingError("M1 needs at least two operands")
    if first is None:
        first = _randbelow(rand, len(positions) - 1)
    return _swapped(tokens, positions[first], positions[first + 1]), rotated


def _operator_chains(tokens: Sequence[str]) -> List[List[int]]:
    chains: List[List[int]] = []
    current: List[int] = []
    for index, token in enumerate(tokens):
        if token in OPERATORS:
            current.append(index)
        elif current:
            chains.append(current)
            current = []
    if current:
        chains.append(current)
    return chains


def _m2(
    tokens: Sequence[str], rotated: AbstractSet[str], rand: Optional[random.Random],
    index: Optional[int] = None,
) -> Move:
    """M2: complement a maximal operator chain (drawn when *index* is ``None``).

    Operators stay operators, so every prefix keeps its operator count.
    """
    chains = _operator_chains(tokens)
    if not chains:
        raise SlicingError("M2 needs at least one operator")
    chain = _choice(rand, chains) if index is None else chains[index % len(chains)]
    out = list(tokens)
    for position in chain:
        out[position] = "V" if out[position] == "H" else "H"
    return tuple(out), rotated


def _m3_test(tokens: Sequence[str]) -> Callable[[int], bool]:
    """Predicate: does swapping the operand/operator pair at ``(i, i + 1)``
    keep this (well-formed) expression well formed and normalized?

    Decided locally per pair instead of re-scanning a swapped copy.
    Only an operator moving one place left can break balloting, and
    only at its new position ``i``: it needs more operands than
    operators before it.  Normalization changes only across the three
    adjacent pairs around the swap, so the expression-wide count of
    repeated operators is corrected there.
    """
    before = [0]  # before[i]: operators in tokens[:i]
    for token in tokens:
        before.append(before[-1] + (token in OPERATORS))
    total = _repeated_operators(tokens)

    def legal(i: int) -> bool:
        operators = before[i]
        if tokens[i + 1] in OPERATORS and operators + 1 >= i - operators:
            return False
        window = tokens[max(i - 1, 0) : i + 3]
        swapped = list(window)
        j = min(i, 1)  # the pair's offset inside the window
        swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
        return total - _repeated_operators(window) + _repeated_operators(swapped) == 0

    return legal


def _m3(tokens: Sequence[str], rotated: AbstractSet[str], rand: random.Random) -> Move:
    """M3: swap the first adjacent operand/operator pair, in random order,
    that passes :func:`_m3_test`; raises if none does."""
    candidates = [
        i
        for i in range(len(tokens) - 1)
        if (tokens[i] in OPERATORS) != (tokens[i + 1] in OPERATORS)
    ]
    _shuffle(rand, candidates)
    legal = _m3_test(tokens)
    for i in candidates:
        if legal(i):
            return _swapped(tokens, i, i + 1), rotated
    raise SlicingError("no legal M3 move exists for this expression")


def _rotate(
    tokens: Sequence[str], rotated: AbstractSet[str], rand: Optional[random.Random],
    name: Optional[str] = None,
) -> Move:
    """Toggle the orientation of block *name* (drawn when ``None``)."""
    if name is None:
        name = _choice(rand, _operands(tokens))
    return tuple(tokens), rotated ^ {name}


_MOVES = (_m1, _m2, _m3, _rotate)


def _random_move(
    tokens: Sequence[str], rotated: AbstractSet[str], rand: random.Random
) -> Move:
    """One of M1/M2/M3/rotate, uniformly: the first legal in shuffled order."""
    order = list(_MOVES)
    _shuffle(rand, order)
    for move in order:
        try:
            return move(tokens, rotated, rand)
        except SlicingError:
            continue
    raise SlicingError("no legal move exists")  # 1-block expressions


def _evaluate(
    tokens: Sequence[str],
    rotated: AbstractSet[str],
    dims: Dict[str, Tuple[float, float]],
) -> Floorplan:
    """Realise ``(tokens, rotated)`` as a placed plan; see
    :meth:`PolishExpression.evaluate`.

    Node indices are token positions.  An operator's right child is the
    node just before it (postfix); its left child comes off the stack.  A
    bottom-up pass sizes every subtree; a top-down pass (descending
    positions visit parents before children) places them, the left child
    at the parent's corner.  The leaves' names and rectangles, in token
    order, become the plan's columns.
    """
    count = len(tokens)
    widths = [0.0] * count
    heights = [0.0] * count
    lefts = [-1] * count  # -1: a leaf
    leaves: List[int] = []
    stack: List[int] = []
    for node, token in enumerate(tokens):
        if token in OPERATORS:
            right = stack.pop()
            left = lefts[node] = stack.pop()
            if token == "V":
                widths[node] = widths[left] + widths[right]
                heights[node] = max(heights[left], heights[right])
            else:
                widths[node] = max(widths[left], widths[right])
                heights[node] = heights[left] + heights[right]
        else:
            leaves.append(node)
            if token in rotated:
                heights[node], widths[node] = dims[token]
            else:
                widths[node], heights[node] = dims[token]
        stack.append(node)
    stack.pop()
    if stack:
        raise SlicingError("expression leaves extra subtrees on the stack")

    xs = [0.0] * count
    ys = [0.0] * count
    for node in range(count - 1, 0, -1):
        left = lefts[node]
        if left < 0:
            continue
        right = node - 1
        xs[left] = xs[right] = xs[node]
        ys[left] = ys[right] = ys[node]
        if tokens[node] == "V":
            xs[right] += widths[left]
        else:
            ys[right] += heights[left]

    columns = (tokens, xs, ys, widths, heights)
    return Floorplan._from_columns(
        *([column[node] for node in leaves] for column in columns)
    )


class PolishExpression:
    """A normalized Polish expression plus block dimensions.

    Parameters
    ----------
    tokens:
        Postfix token sequence; operands are block names, operators are
        ``"H"`` / ``"V"``.
    dims:
        Map from block name to ``(width_mm, height_mm)``.
    rotated:
        Set of block names placed with width/height exchanged.
    """

    def __init__(
        self,
        tokens: Sequence[str],
        dims: Dict[str, Tuple[float, float]],
        rotated: Optional[Set[str]] = None,
    ):
        self.tokens: List[str] = list(tokens)
        self.dims: Dict[str, Tuple[float, float]] = dict(dims)
        self.rotated: Set[str] = set(rotated or ())
        self._check_well_formed()

    @classmethod
    def _unchecked(
        cls,
        tokens: Sequence[str],
        dims: Dict[str, Tuple[float, float]],
        rotated: AbstractSet[str],
    ) -> "PolishExpression":
        """Fresh containers over *tokens*/*dims*/*rotated*, skipping the
        full check.

        Only for states that are well formed by construction (Wong & Liu,
        DAC 1986): the kernel moves, GA chromosomes, and :meth:`copy`.
        """
        expression = object.__new__(cls)
        expression.tokens = list(tokens)
        expression.dims = dict(dims)
        expression.rotated = set(rotated)
        return expression

    def _adopt(self, move: Move) -> "PolishExpression":
        tokens, rotated = move
        return PolishExpression._unchecked(tokens, self.dims, rotated)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def initial(
        cls,
        dims: Dict[str, Tuple[float, float]],
        order: Optional[Sequence[str]] = None,
        alternate: bool = True,
    ) -> "PolishExpression":
        """Left-leaning initial expression ``b0 b1 O b2 O …``.

        With ``alternate=True`` operators alternate V, H, V, … giving a
        roughly square starting plan instead of one long row.
        """
        names = list(order) if order is not None else sorted(dims)
        if not names:
            raise SlicingError("cannot build an expression over zero blocks")
        unknown = [n for n in names if n not in dims]
        if unknown:
            raise SlicingError(f"blocks without dimensions: {unknown}")
        if len(set(names)) != len(names):
            raise SlicingError("duplicate block names in order")
        return cls(_initial_tokens(names, alternate), dims)

    def copy(self) -> "PolishExpression":
        """Independent copy."""
        return PolishExpression._unchecked(self.tokens, self.dims, self.rotated)

    # ------------------------------------------------------------------
    # structure checks
    # ------------------------------------------------------------------
    def _check_well_formed(self) -> None:
        operands = 0
        operators = 0
        for position, token in enumerate(self.tokens):
            if token in OPERATORS:
                operators += 1
                if operators >= operands:
                    raise SlicingError(
                        f"balloting violation at position {position}: "
                        f"{operators} operators for {operands} operands"
                    )
            else:
                if token not in self.dims:
                    raise SlicingError(f"operand {token!r} has no dimensions")
                operands += 1
        if operands != operators + 1:
            raise SlicingError(
                f"malformed expression: {operands} operands, {operators} operators"
            )
        seen: Set[str] = set()
        for token in self.operands():
            if token in seen:
                raise SlicingError(f"operand {token!r} appears twice")
            seen.add(token)
        for name in self.rotated:
            if name not in self.dims:
                raise SlicingError(f"rotated block {name!r} has no dimensions")

    def is_normalized(self) -> bool:
        """True if no two consecutive operators are identical."""
        return _repeated_operators(self.tokens) == 0

    def operands(self) -> List[str]:
        """Block names in expression order."""
        return _operands(self.tokens)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def evaluate(self) -> Floorplan:
        """Realise the expression as a placed :class:`Floorplan`.

        Stack evaluation computes each subtree's extent (``V``: widths add,
        heights max; ``H``: heights add, widths max), then a top-down pass
        assigns coordinates.  Blocks are bottom/left aligned within their
        slice, which keeps all contacts tight (good for lateral thermal
        coupling and matches classic slicing-floorplan drawings).  The
        root sits at the origin, so the bounding box's corner is ``(0, 0)``
        and :meth:`~repro.floorplan.geometry.Floorplan.normalised` would
        return equal rectangles.
        """
        return _evaluate(self.tokens, self.rotated, self.dims)

    def die_area(self) -> float:
        """Bounding-box area of the realised plan (mm²)."""
        plan = self.evaluate()
        return plan.die_area

    # ------------------------------------------------------------------
    # Wong–Liu perturbation moves
    # ------------------------------------------------------------------
    def move_swap_operands(self, rng_or_pair) -> "PolishExpression":
        """M1: swap two adjacent operands (adjacent in operand order)."""
        if isinstance(rng_or_pair, tuple):
            return self._adopt(_m1(self.tokens, self.rotated, None, rng_or_pair[0]))
        return self._adopt(_m1(self.tokens, self.rotated, as_random(rng_or_pair)))

    def move_complement_chain(self, rng_or_index) -> "PolishExpression":
        """M2: complement a maximal chain of consecutive operators."""
        if isinstance(rng_or_index, int):
            return self._adopt(_m2(self.tokens, self.rotated, None, rng_or_index))
        return self._adopt(_m2(self.tokens, self.rotated, as_random(rng_or_index)))

    def move_swap_operand_operator(self, rng: SeedLike = None) -> "PolishExpression":
        """M3: swap an adjacent operand/operator pair.

        Takes the first adjacent pair, in random order, whose swap
        preserves the balloting property and normalization; raises if no
        legal M3 exists.
        """
        return self._adopt(_m3(self.tokens, self.rotated, as_random(rng)))

    def move_rotate(self, rng_or_name) -> "PolishExpression":
        """Toggle the orientation of one block."""
        if isinstance(rng_or_name, str):
            if rng_or_name not in self.dims:
                raise SlicingError(f"unknown block {rng_or_name!r}")
            return self._adopt(_rotate(self.tokens, self.rotated, None, rng_or_name))
        return self._adopt(_rotate(self.tokens, self.rotated, as_random(rng_or_name)))

    def random_move(self, rng: SeedLike = None) -> "PolishExpression":
        """Apply one random move (M1/M2/M3/rotate), uniformly."""
        return self._adopt(_random_move(self.tokens, self.rotated, as_random(rng)))

    def __repr__(self) -> str:
        return f"PolishExpression({' '.join(self.tokens)})"
