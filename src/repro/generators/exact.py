"""Exact (golden) arithmetic circuit generators.

Every approximate-circuit family is derived from, and evaluated against, one
of these exact reference implementations.  They are also members of the
circuit libraries themselves (the "zero error" end of every Pareto front).
"""

from __future__ import annotations

from typing import List

from ..circuits import NetlistBuilder, Netlist


def ripple_carry_adder(width: int, name: str | None = None) -> Netlist:
    """Exact ``width``-bit ripple-carry adder with a ``width + 1``-bit output."""
    if width < 1:
        raise ValueError("adder width must be at least 1")
    builder = NetlistBuilder(name or f"add{width}_rca_exact", kind="adder")
    a = builder.add_input_word("a", width)
    b = builder.add_input_word("b", width)
    sums, carry = builder.ripple_chain(a, b)
    return builder.finish(
        sums + [carry],
        meta={"family": "exact_rca", "bitwidth": width, "exact": True},
    )


def carry_select_adder(width: int, block: int = 4, name: str | None = None) -> Netlist:
    """Exact carry-select adder (different structure, same function as RCA).

    Included so the exact corner of the adder library is not a single
    structural point; carry-select trades area for depth exactly the way a
    designer would on an FPGA.
    """
    if width < 1:
        raise ValueError("adder width must be at least 1")
    if block < 1:
        raise ValueError("block size must be at least 1")
    builder = NetlistBuilder(name or f"add{width}_csel_exact", kind="adder")
    a = builder.add_input_word("a", width)
    b = builder.add_input_word("b", width)

    sums: List[int] = []
    carry = builder.const0()
    position = 0
    while position < width:
        size = min(block, width - position)
        a_block = a[position:position + size]
        b_block = b[position:position + size]
        if position == 0:
            block_sums, carry = builder.ripple_chain(a_block, b_block, carry)
            sums.extend(block_sums)
        else:
            sums0, carry0 = builder.ripple_chain(a_block, b_block, builder.const0())
            sums1, carry1 = builder.ripple_chain(a_block, b_block, builder.const1())
            for s0, s1 in zip(sums0, sums1):
                sums.append(builder.mux(carry, s0, s1))
            carry = builder.mux(carry, carry0, carry1)
        position += size
    return builder.finish(
        sums + [carry],
        meta={"family": "exact_csel", "bitwidth": width, "exact": True, "block": block},
    )


def _partial_products(builder: NetlistBuilder, a: List[int], b: List[int]) -> List[List[int]]:
    """AND-gate partial-product matrix: ``pp[i][j] = a[j] & b[i]``."""
    return [[builder.and_(a[j], b[i]) for j in range(len(a))] for i in range(len(b))]


def _reduce_columns(builder: NetlistBuilder, columns: List[List[int]]) -> List[int]:
    """Carry-save reduction of a column-wise partial-product matrix.

    Repeatedly applies full/half adders within each column until every column
    holds at most two bits, then resolves the remaining two rows with a
    ripple-carry chain.  Returns the product bits, LSB first.
    """
    columns = [list(column) for column in columns]
    while any(len(column) > 2 for column in columns):
        next_columns: List[List[int]] = [[] for _ in range(len(columns) + 1)]
        for index, column in enumerate(columns):
            remaining = list(column)
            while len(remaining) >= 3:
                x, y, z = remaining.pop(), remaining.pop(), remaining.pop()
                total, carry = builder.full_adder(x, y, z)
                next_columns[index].append(total)
                next_columns[index + 1].append(carry)
            if len(remaining) == 2 and len(column) > 2:
                x, y = remaining.pop(), remaining.pop()
                total, carry = builder.half_adder(x, y)
                next_columns[index].append(total)
                next_columns[index + 1].append(carry)
            next_columns[index].extend(remaining)
        while next_columns and not next_columns[-1]:
            next_columns.pop()
        columns = next_columns

    # Final two-row addition.  Empty columns still have to propagate the
    # ripple carry, so they are treated as holding a constant zero.
    product: List[int] = []
    carry = builder.const0()
    for column in columns:
        if not column:
            total, carry = builder.half_adder(builder.const0(), carry)
        elif len(column) == 1:
            total, carry = builder.half_adder(column[0], carry)
        else:
            total, carry = builder.full_adder(column[0], column[1], carry)
        product.append(total)
    product.append(carry)
    return product


def array_multiplier(width: int, name: str | None = None) -> Netlist:
    """Exact ``width x width`` unsigned array multiplier (ripple-carry rows)."""
    if width < 2:
        raise ValueError("multiplier width must be at least 2")
    builder = NetlistBuilder(name or f"mul{width}x{width}_array_exact", kind="multiplier")
    a = builder.add_input_word("a", width)
    b = builder.add_input_word("b", width)
    partial = _partial_products(builder, a, b)

    # Row-by-row accumulation: running holds bits width .. of the partial sum.
    product: List[int] = [partial[0][0]]
    running: List[int] = partial[0][1:]
    for row in range(1, width):
        row_bits = partial[row]
        carry = builder.const0()
        new_running: List[int] = []
        for column in range(width):
            accumulated = running[column] if column < len(running) else builder.const0()
            total, carry = builder.full_adder(accumulated, row_bits[column], carry)
            new_running.append(total)
        new_running.append(carry)
        product.append(new_running[0])
        running = new_running[1:]
    product.extend(running)
    product = product[: 2 * width]
    return builder.finish(
        product,
        meta={"family": "exact_array", "bitwidth": width, "exact": True},
    )


def wallace_multiplier(width: int, name: str | None = None) -> Netlist:
    """Exact ``width x width`` unsigned multiplier with carry-save (Wallace) reduction."""
    if width < 2:
        raise ValueError("multiplier width must be at least 2")
    builder = NetlistBuilder(name or f"mul{width}x{width}_wallace_exact", kind="multiplier")
    a = builder.add_input_word("a", width)
    b = builder.add_input_word("b", width)
    partial = _partial_products(builder, a, b)

    columns: List[List[int]] = [[] for _ in range(2 * width)]
    for i in range(width):
        for j in range(width):
            columns[i + j].append(partial[i][j])
    product = _reduce_columns(builder, columns)
    product = product[: 2 * width]
    return builder.finish(
        product,
        meta={"family": "exact_wallace", "bitwidth": width, "exact": True},
    )


def exact_reference(kind: str, width: int) -> Netlist:
    """Golden reference circuit for error evaluation of a library."""
    if kind == "adder":
        return ripple_carry_adder(width)
    if kind == "multiplier":
        return array_multiplier(width)
    raise ValueError(f"unknown circuit kind {kind!r}")
