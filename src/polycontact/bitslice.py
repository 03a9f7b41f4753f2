"""Bit-sliced evaluation of compiled formulas over finite contact algebras.

A ``Program`` is a formula compiled (by ``logic.compile_formula``) to
straight-line code over its unique subterms.  One run of it evaluates the
formula under many valuations at once, one bit per valuation (Biham's
bit-slicing, with Python ints as the words).

A valuation of the sorted variables x_0 .. x_{k-1} over n cells is numbered
v = m_0 * 2^(n(k-1)) + ... + m_{k-1}, where m_j is the bitmask of x_j: the
order of ``itertools.product``, with the first variable most significant.  A
term's value across valuations is a list of n ints, one per cell, whose bit
v is set when the cell lies in the term's value under valuation v; a
formula's value is one int whose bit v is its truth under valuation v.  So
the lowest zero bit of a run is the first falsifying valuation in product
order.

A search runs one program over many algebras, so a run sets up nothing:
the program decodes its code once, the input slices of each (cells,
variables) are built once per process from the bit patterns and shared by
every program, and each algebra builds its successor lists once
(``FiniteContactAlgebra.near``).  When every variable fits one run, a space
costs that one run.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional, Sequence

from .algebra import FiniteContactAlgebra

# Most index bits (cells x sliced variables) one run covers, so no value is
# wider than 2^SLICE_BITS bits.  Leading variables beyond it are fixed one
# mask at a time, in product order, outside the run.
SLICE_BITS = 16

# Instruction operators: VAR takes a variable name, COMPLEMENT and NOT one
# slot, the others two slots.
VAR, COMPLEMENT, JOIN, EQ, CONTACT, NOT, OR = range(7)


def bit_patterns(width: int) -> list[int]:
    """``out[p]`` has bit v set exactly when bit p of v is set, v < 2^width."""
    total = 1 << width
    out = []
    for p in range(width):
        half = 1 << p
        pattern = ((1 << half) - 1) << half
        span = 2 * half
        while span < total:
            pattern |= pattern << span
            span *= 2
        out.append(pattern)
    return out


# The input slices and ``full`` of a run by (cells, sliced variables),
# shared by every program: slice j holds the bit patterns of the j-th
# variable's cells, and ``full`` has every bit of the run set.  Widths never
# exceed SLICE_BITS, and entries of equal width share their pattern ints,
# so the patterns take at most SLICE_BITS + 1 lists of at most SLICE_BITS
# ints below 2^(2^SLICE_BITS) each (about 0.25 MB in all at 16)
_PATTERNS: dict[tuple[int, int], tuple[list[list[int]], int]] = {}


def _slices(n: int, sliced: int) -> tuple[list[list[int]], int]:
    entry = _PATTERNS.get((n, sliced))
    if entry is None:
        width = n * sliced
        bits = next((sum(reversed(slices), []) for (m, k), (slices, _) in _PATTERNS.items()
                     if m * k == width), None)
        if bits is None:
            bits = bit_patterns(width)
        entry = _PATTERNS[n, sliced] = (
            [bits[n * (sliced - 1 - j):n * (sliced - j)] for j in range(sliced)],
            (1 << (1 << width)) - 1)
    return entry


class Program:
    """Straight-line code: instruction i, ``(op, *operands)``, computes slot i
    from earlier slots, and the last slot is the formula.  ``steps`` holds
    the code decoded once into ``(op, a, b, dead)``: a variable's index in
    ``names`` or the operand slots (``b`` is None for one operand), and the
    slots whose last use is this instruction, dropped right after it, so a
    run holds only the values still needed.  A program keeps no state
    between runs: the input slices are shared across programs, and each
    algebra carries its successor lists (``near``)."""

    def __init__(self, code: list[tuple]):
        # One backward pass: the first instruction it meets that uses a slot
        # is the slot's last use.  ``first`` ends holding each slot's first
        # use, as 2 x instruction + operand position; two slots that die at
        # one instruction are dropped in that order, which the pass knows
        # only at its end.
        first: dict[int, int] = {}
        # a list, not a tuple: a freed tuple of under 20 items stays on
        # CPython's free list for its length, so a tuple per program, of
        # every length programs have, would hold about 1 MB after a few
        # thousand searches
        steps: list = [None] * len(code)
        variables = []
        pairs = []
        for i in range(len(code) - 1, -1, -1):
            ins = code[i]
            op, a = ins[0], ins[1]
            if op == VAR:
                variables.append(i)
            elif len(ins) == 2:
                steps[i] = (op, a, None, () if a in first else (a,))
                first[a] = 2 * i
            else:
                b = ins[2]
                dead = () if b in first else (b,)
                if a not in first and a != b:
                    if dead:
                        pairs.append(i)
                    dead = (a, *dead)
                steps[i] = (op, a, b, dead)
                first[b] = 2 * i + 1
                first[a] = 2 * i
        for i in pairs:
            op, a, b, _ = steps[i]
            if first[b] < first[a]:
                steps[i] = (op, a, b, (b, a))
        self.code = code
        self.names = sorted(code[i][1] for i in variables)
        position = {name: j for j, name in enumerate(self.names)}
        for i in variables:
            steps[i] = (VAR, position[code[i][1]], None, ())
        self.steps = steps

    def run(self, inputs: Sequence[list[int]], near: Sequence[Sequence[int]],
            full: int) -> int:
        """Truth bits of the formula; ``inputs[j]`` holds the per-cell bits
        of ``names[j]`` and ``near[i]`` lists the successors of cell i, as
        in ``FiniteContactAlgebra.near``."""
        vals: list = []
        append = vals.append
        for op, a, b, dead in self.steps:
            if op == COMPLEMENT:
                out = [full ^ x for x in vals[a]]
            elif op == JOIN:
                out = [x | y for x, y in zip(vals[a], vals[b])]
            elif op == OR:
                out = vals[a] | vals[b]
            elif op == NOT:
                out = full ^ vals[a]
            elif op == EQ:
                diff = 0
                for x, y in zip(vals[a], vals[b]):
                    diff |= x ^ y
                out = full ^ diff
            elif op == CONTACT:
                ys = vals[b]
                out = 0
                for x, succ in zip(vals[a], near):
                    if x:
                        reach = 0
                        for j in succ:
                            reach |= ys[j]
                        out |= x & reach
            else:
                out = inputs[a]
            append(out)
            for slot in dead:
                vals[slot] = None
        return vals[-1]

    def _sliced(self, n: int) -> int:
        """How many of the last variables one run over n cells covers."""
        k = len(self.names)
        return min(k, SLICE_BITS // n) if n else k

    def truth_runs(self, algebra: FiniteContactAlgebra
                   ) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """``(prefix, truth, full)`` per run, in product order: the leading
        variables that do not fit under ``SLICE_BITS`` are fixed to the
        masks in ``prefix``; bit v of ``truth`` is the formula's truth under
        the v-th valuation of the others, and ``full`` has every bit set."""
        n = len(algebra.cells)
        sliced = self._sliced(n)
        fixed = len(self.names) - sliced
        slices, full = _slices(n, sliced)
        near = algebra.near
        inputs = [None] * fixed + slices
        for prefix in product(range(1 << n), repeat=fixed):
            for j, m in enumerate(prefix):
                inputs[j] = [full if m >> i & 1 else 0 for i in range(n)]
            yield prefix, self.run(inputs, near, full), full

    def first_falsifier(self, algebra: FiniteContactAlgebra
                        ) -> Optional[tuple[int, ...]]:
        """Masks of ``names`` in the first falsifying valuation in product
        order, or None when the formula is true in the algebra.  When every
        variable fits one run, that run is the whole search."""
        n = len(algebra.cells)
        k = len(self.names)
        if self._sliced(n) == k:
            slices, full = _slices(n, k)
            return _first_masks((), full ^ self.run(slices, algebra.near, full), n, k)
        for prefix, truth, full in self.truth_runs(algebra):
            masks = _first_masks(prefix, full ^ truth, n, k - len(prefix))
            if masks is not None:
                return masks
        return None


def _first_masks(prefix: tuple[int, ...], falsified: int, n: int, sliced: int
                 ) -> Optional[tuple[int, ...]]:
    """``prefix`` followed by the masks of the ``sliced`` run variables in
    the lowest valuation set in ``falsified``, or None when none is."""
    if not falsified:
        return None
    v = (falsified & -falsified).bit_length() - 1
    return prefix + tuple(v >> (n * (sliced - 1 - j)) & ((1 << n) - 1)
                          for j in range(sliced))
