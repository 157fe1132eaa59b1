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
rotation move (blocks may be placed in either orientation).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import SlicingError
from ..rng import SeedLike, as_random
from .geometry import Block, Floorplan, Rect

__all__ = ["PolishExpression", "OPERATORS"]

#: The two slicing operators.
OPERATORS = ("H", "V")


def _repeated_operators(tokens: Sequence[str]) -> int:
    """Adjacent pairs of identical operators (0 for a normalized sequence)."""
    return sum(
        first == second and first in OPERATORS
        for first, second in zip(tokens, tokens[1:])
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
        tokens: List[str],
        dims: Dict[str, Tuple[float, float]],
        rotated: Set[str],
    ) -> "PolishExpression":
        """Adopt *tokens*/*dims*/*rotated* as-is, skipping the full check.

        Only for moves that keep an expression well formed by construction
        (Wong & Liu, DAC 1986): M1 and M2, crossover over one skeleton, and
        :meth:`copy`.  Callers hand over freshly built containers.
        """
        expression = object.__new__(cls)
        expression.tokens = tokens
        expression.dims = dims
        expression.rotated = rotated
        return expression

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
        tokens: List[str] = [names[0]]
        for index, name in enumerate(names[1:]):
            tokens.append(name)
            if alternate:
                tokens.append(OPERATORS[index % 2 == 0])  # V, H, V, H, ...
            else:
                tokens.append("V")
        return cls(tokens, dims)

    def copy(self) -> "PolishExpression":
        """Independent copy."""
        return PolishExpression._unchecked(
            list(self.tokens), dict(self.dims), set(self.rotated)
        )

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
        previous = None
        for token in self.tokens:
            if token in OPERATORS and token == previous:
                return False
            previous = token if token in OPERATORS else None
        return True

    def operands(self) -> List[str]:
        """Block names in expression order."""
        return [t for t in self.tokens if t not in OPERATORS]

    def operator_positions(self) -> List[int]:
        """Indices of operator tokens."""
        return [i for i, t in enumerate(self.tokens) if t in OPERATORS]

    def operand_positions(self) -> List[int]:
        """Indices of operand tokens."""
        return [i for i, t in enumerate(self.tokens) if t not in OPERATORS]

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def _block_dims(self, name: str) -> Tuple[float, float]:
        w, h = self.dims[name]
        if name in self.rotated:
            return (h, w)
        return (w, h)

    def evaluate(self) -> Floorplan:
        """Realise the expression as a placed :class:`Floorplan`.

        Stack evaluation computes each subtree's extent (``V``: widths add,
        heights max; ``H``: heights add, widths max), then a top-down pass
        assigns coordinates.  Blocks are bottom/left aligned within their
        slice, which keeps all contacts tight (good for lateral thermal
        coupling and matches classic slicing-floorplan drawings).
        """
        # bottom-up sizes: each stack item is (node_index, w, h)
        sizes: List[Tuple[float, float]] = []
        children: List[Optional[Tuple[int, int]]] = []
        stack: List[int] = []
        for token in self.tokens:
            if token in OPERATORS:
                right = stack.pop()
                left = stack.pop()
                wl, hl = sizes[left]
                wr, hr = sizes[right]
                if token == "V":
                    size = (wl + wr, max(hl, hr))
                else:
                    size = (max(wl, wr), hl + hr)
                sizes.append(size)
                children.append((left, right))
                stack.append(len(sizes) - 1)
            else:
                sizes.append(self._block_dims(token))
                children.append(None)
                stack.append(len(sizes) - 1)
        root = stack.pop()
        if stack:
            raise SlicingError("expression leaves extra subtrees on the stack")

        # top-down placement (node indices equal token positions, because one
        # sizes/children entry is appended per token)
        plan = Floorplan()
        operand_tokens = self.operands()

        def place(node: int, x: float, y: float) -> None:
            child = children[node]
            if child is None:
                name = self._leaf_name(node)
                w, h = sizes[node]
                plan.add(Block(name, Rect(x, y, w, h)))
                return
            left, right = child
            token = self._node_operator(node)
            if token == "V":
                place(left, x, y)
                place(right, x + sizes[left][0], y)
            else:
                place(left, x, y)
                place(right, x, y + sizes[left][1])

        place(root, 0.0, 0.0)
        if len(plan) != len(operand_tokens):
            raise SlicingError("evaluation lost blocks")  # defensive
        return plan

    def _leaf_name(self, node: int) -> str:
        token = self.tokens[node]
        if token in OPERATORS:
            raise SlicingError(f"node {node} is not a leaf")
        return token

    def _node_operator(self, node: int) -> str:
        token = self.tokens[node]
        if token not in OPERATORS:
            raise SlicingError(f"node {node} is not an operator")
        return token

    def die_area(self) -> float:
        """Bounding-box area of the realised plan (mm²)."""
        plan = self.evaluate()
        return plan.die_area

    # ------------------------------------------------------------------
    # Wong–Liu perturbation moves
    # ------------------------------------------------------------------
    def move_swap_operands(self, rng_or_pair) -> "PolishExpression":
        """M1: swap two adjacent operands (adjacent in operand order)."""
        positions = self.operand_positions()
        if len(positions) < 2:
            raise SlicingError("M1 needs at least two operands")
        if isinstance(rng_or_pair, tuple):
            first = rng_or_pair[0]
        else:
            first = as_random(rng_or_pair).randrange(len(positions) - 1)
        i, j = positions[first], positions[first + 1]
        # operands trade places: every prefix keeps its operand count
        clone = self.copy()
        clone.tokens[i], clone.tokens[j] = clone.tokens[j], clone.tokens[i]
        return clone

    def move_complement_chain(self, rng_or_index) -> "PolishExpression":
        """M2: complement a maximal chain of consecutive operators."""
        chains = self._operator_chains()
        if not chains:
            raise SlicingError("M2 needs at least one operator")
        if isinstance(rng_or_index, int):
            chain = chains[rng_or_index % len(chains)]
        else:
            chain = as_random(rng_or_index).choice(chains)
        # operators stay operators: every prefix keeps its operator count
        clone = self.copy()
        for position in chain:
            clone.tokens[position] = "V" if clone.tokens[position] == "H" else "H"
        return clone

    def _operator_chains(self) -> List[List[int]]:
        chains: List[List[int]] = []
        current: List[int] = []
        for index, token in enumerate(self.tokens):
            if token in OPERATORS:
                current.append(index)
            elif current:
                chains.append(current)
                current = []
        if current:
            chains.append(current)
        return chains

    def move_swap_operand_operator(self, rng: SeedLike = None) -> "PolishExpression":
        """M3: swap an adjacent operand/operator pair.

        Takes the first adjacent pair, in random order, whose swap
        preserves the balloting property and normalization
        (:meth:`_m3_test`); raises if no legal M3 exists.
        """
        rand = as_random(rng)
        candidates = [
            i
            for i in range(len(self.tokens) - 1)
            if (self.tokens[i] in OPERATORS) != (self.tokens[i + 1] in OPERATORS)
        ]
        rand.shuffle(candidates)
        legal = self._m3_test()
        for i in candidates:
            if legal(i):
                clone = self.copy()
                clone.tokens[i], clone.tokens[i + 1] = clone.tokens[i + 1], clone.tokens[i]
                return clone
        raise SlicingError("no legal M3 move exists for this expression")

    def _m3_test(self) -> Callable[[int], bool]:
        """Predicate: does swapping the operand/operator pair at ``(i, i + 1)``
        keep this (well-formed) expression well formed and normalized?

        Decided locally per pair instead of re-scanning a swapped copy.
        Only an operator moving one place left can break balloting, and
        only at its new position ``i``: it needs more operands than
        operators before it.  Normalization changes only across the three
        adjacent pairs around the swap, so the expression-wide count of
        repeated operators is corrected there.
        """
        tokens = self.tokens
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

    def move_rotate(self, rng_or_name) -> "PolishExpression":
        """Toggle the orientation of one block."""
        if isinstance(rng_or_name, str):
            name = rng_or_name
            if name not in self.dims:
                raise SlicingError(f"unknown block {name!r}")
        else:
            name = as_random(rng_or_name).choice(self.operands())
        clone = self.copy()
        if name in clone.rotated:
            clone.rotated.discard(name)
        else:
            clone.rotated.add(name)
        return clone

    def random_move(self, rng: SeedLike = None) -> "PolishExpression":
        """Apply one random move (M1/M2/M3/rotate), uniformly."""
        rand = as_random(rng)
        moves = [
            self.move_swap_operands,
            self.move_complement_chain,
            self.move_swap_operand_operator,
            self.move_rotate,
        ]
        order = list(moves)
        rand.shuffle(order)
        for move in order:
            try:
                return move(rand)
            except SlicingError:
                continue
        raise SlicingError("no legal move exists")  # 1-block expressions

    def __repr__(self) -> str:
        return f"PolishExpression({' '.join(self.tokens)})"
