"""Synthetic numerical kernels standing in for SPEC2000fp.

The paper evaluates on SPEC2000fp, whose defining property (for this
study) is that most performance is lost to loads missing in L2 while
branch prediction is nearly perfect.  The kernels below reproduce that
regime: streaming and strided floating-point loops over data sets larger
than the cache hierarchy, with loop-closing branches that any history
predictor learns quickly, and dependence structure ranging from fully
parallel (daxpy, triad) to serial reductions.

Every generator is deterministic given its arguments, so experiments are
reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Optional

from ..isa import registers as regs
from ..trace.trace import Trace
from .builder import TraceBuilder

#: Double-precision element size used by all kernels.
ELEMENT_BYTES = 8

#: Base addresses for up to four arrays, spaced far apart so that arrays
#: never alias in the cache models.
ARRAY_BASES = (0x1000_0000, 0x2000_0000, 0x3000_0000, 0x4000_0000)

# Register conventions shared by the kernels.
_INDEX = regs.int_reg(1)
_LIMIT = regs.int_reg(2)
_TMP_INT = regs.int_reg(6)

_SCALAR = regs.fp_reg(0)
_ACC = regs.fp_reg(1)


def _loop_header(builder: TraceBuilder) -> int:
    """Emit loop-invariant setup and return the pc of the loop start."""
    builder.int_op(_INDEX)
    builder.int_op(_LIMIT)
    builder.fp_add(_SCALAR)
    return builder.pc


def daxpy(elements: int = 2048, name: str = "daxpy") -> Trace:
    """``y[i] = a * x[i] + y[i]`` — streaming, fully parallel iterations."""
    builder = TraceBuilder(name=name)
    loop_pc = _loop_header(builder)
    x_base, y_base = ARRAY_BASES[0], ARRAY_BASES[1]
    t0, t1, t2 = regs.fp_reg(2), regs.fp_reg(3), regs.fp_reg(4)
    for i in range(elements):
        builder.set_pc(loop_pc)
        addr_x = x_base + i * ELEMENT_BYTES
        addr_y = y_base + i * ELEMENT_BYTES
        builder.load(t0, addr_x, addr_reg=_INDEX)
        builder.load(t1, addr_y, addr_reg=_INDEX)
        builder.fp_mul(t2, _SCALAR, t0)
        builder.fp_add(t2, t2, t1)
        builder.store(addr_y, t2, addr_reg=_INDEX)
        builder.int_op(_INDEX, _INDEX)
        builder.branch(taken=(i != elements - 1), target=loop_pc, srcs=(_INDEX, _LIMIT))
    return builder.build()


def stream_triad(elements: int = 2048, name: str = "triad") -> Trace:
    """``a[i] = b[i] + s * c[i]`` — the STREAM triad, three streams."""
    builder = TraceBuilder(name=name)
    loop_pc = _loop_header(builder)
    a_base, b_base, c_base = ARRAY_BASES[0], ARRAY_BASES[1], ARRAY_BASES[2]
    t0, t1, t2 = regs.fp_reg(2), regs.fp_reg(3), regs.fp_reg(4)
    for i in range(elements):
        builder.set_pc(loop_pc)
        builder.load(t0, b_base + i * ELEMENT_BYTES, addr_reg=_INDEX)
        builder.load(t1, c_base + i * ELEMENT_BYTES, addr_reg=_INDEX)
        builder.fp_mul(t2, _SCALAR, t1)
        builder.fp_add(t2, t2, t0)
        builder.store(a_base + i * ELEMENT_BYTES, t2, addr_reg=_INDEX)
        builder.int_op(_INDEX, _INDEX)
        builder.branch(taken=(i != elements - 1), target=loop_pc, srcs=(_INDEX, _LIMIT))
    return builder.build()


def reduction(elements: int = 2048, name: str = "reduction") -> Trace:
    """``acc += x[i]`` — a serial floating-point dependence chain.

    Every addition depends on the previous one, so a single L2 miss stalls
    the whole chain behind it; this is the worst case for a small window.
    """
    builder = TraceBuilder(name=name)
    loop_pc = _loop_header(builder)
    x_base = ARRAY_BASES[0]
    t0 = regs.fp_reg(2)
    for i in range(elements):
        builder.set_pc(loop_pc)
        builder.load(t0, x_base + i * ELEMENT_BYTES, addr_reg=_INDEX)
        builder.fp_add(_ACC, _ACC, t0)
        builder.int_op(_INDEX, _INDEX)
        builder.branch(taken=(i != elements - 1), target=loop_pc, srcs=(_INDEX, _LIMIT))
    return builder.build()


def stencil3(elements: int = 2048, name: str = "stencil3") -> Trace:
    """Three-point stencil ``y[i] = c * (x[i-1] + x[i] + x[i+1])``.

    Neighbouring loads hit the same cache line most of the time, giving a
    lower L2-miss rate than pure streaming — a different point in the
    miss-rate spectrum.
    """
    builder = TraceBuilder(name=name)
    loop_pc = _loop_header(builder)
    x_base, y_base = ARRAY_BASES[0], ARRAY_BASES[1]
    t0, t1, t2, t3 = regs.fp_reg(2), regs.fp_reg(3), regs.fp_reg(4), regs.fp_reg(5)
    for i in range(1, elements + 1):
        builder.set_pc(loop_pc)
        builder.load(t0, x_base + (i - 1) * ELEMENT_BYTES, addr_reg=_INDEX)
        builder.load(t1, x_base + i * ELEMENT_BYTES, addr_reg=_INDEX)
        builder.load(t2, x_base + (i + 1) * ELEMENT_BYTES, addr_reg=_INDEX)
        builder.fp_add(t3, t0, t1)
        builder.fp_add(t3, t3, t2)
        builder.fp_mul(t3, t3, _SCALAR)
        builder.store(y_base + i * ELEMENT_BYTES, t3, addr_reg=_INDEX)
        builder.int_op(_INDEX, _INDEX)
        builder.branch(taken=(i != elements), target=loop_pc, srcs=(_INDEX, _LIMIT))
    return builder.build()


def matvec(rows: int = 64, cols: int = 32, name: str = "matvec") -> Trace:
    """Dense matrix-vector product ``y[r] = sum_c A[r, c] * x[c]``.

    The inner loop is a serial reduction (like ``reduction``) but the
    vector ``x`` is reused across rows and therefore mostly cache
    resident, mixing hits and misses.
    """
    builder = TraceBuilder(name=name)
    a_base, x_base, y_base = ARRAY_BASES[0], ARRAY_BASES[1], ARRAY_BASES[2]
    t0, t1, acc = regs.fp_reg(2), regs.fp_reg(3), regs.fp_reg(4)
    builder.int_op(_INDEX)
    builder.int_op(_LIMIT)
    outer_pc = builder.pc
    for r in range(rows):
        builder.set_pc(outer_pc)
        builder.fp_add(acc)
        inner_pc = builder.pc
        for c in range(cols):
            builder.set_pc(inner_pc)
            addr_a = a_base + (r * cols + c) * ELEMENT_BYTES
            addr_x = x_base + c * ELEMENT_BYTES
            builder.load(t0, addr_a, addr_reg=_INDEX)
            builder.load(t1, addr_x, addr_reg=_INDEX)
            builder.fp_mul(t0, t0, t1)
            builder.fp_add(acc, acc, t0)
            builder.int_op(_INDEX, _INDEX)
            builder.branch(taken=(c != cols - 1), target=inner_pc, srcs=(_INDEX,))
        builder.store(y_base + r * ELEMENT_BYTES, acc, addr_reg=_INDEX)
        builder.int_op(_TMP_INT, _TMP_INT)
        builder.branch(taken=(r != rows - 1), target=outer_pc, srcs=(_TMP_INT,))
    return builder.build()


def random_gather(
    elements: int = 2048,
    table_elements: int = 1 << 20,
    seed: int = 12345,
    name: str = "gather",
) -> Trace:
    """``y[i] = table[idx[i]]`` — indirect loads over a huge table.

    The index stream is sequential (and therefore cheap) but the gathered
    addresses are uniformly random over an 8 MiB table, so virtually every
    gather misses in L2.  This mimics the irregular-access SPECfp codes.
    """
    builder = TraceBuilder(name=name)
    loop_pc = _loop_header(builder)
    rng = random.Random(seed)
    idx_base, table_base, y_base = ARRAY_BASES[0], ARRAY_BASES[1], ARRAY_BASES[2]
    t_idx = regs.int_reg(7)
    t0, t1 = regs.fp_reg(2), regs.fp_reg(3)
    for i in range(elements):
        builder.set_pc(loop_pc)
        builder.load(t_idx, idx_base + i * ELEMENT_BYTES, addr_reg=_INDEX)
        gathered = table_base + rng.randrange(table_elements) * ELEMENT_BYTES
        builder.load(t0, gathered, addr_reg=t_idx)
        builder.fp_add(t1, t0, _SCALAR)
        builder.store(y_base + i * ELEMENT_BYTES, t1, addr_reg=_INDEX)
        builder.int_op(_INDEX, _INDEX)
        builder.branch(taken=(i != elements - 1), target=loop_pc, srcs=(_INDEX, _LIMIT))
    return builder.build()


def blocked_daxpy(
    elements: int = 2048,
    block_elements: int = 512,
    passes: int = 2,
    name: str = "blocked_daxpy",
) -> Trace:
    """A cache-blocked daxpy that revisits a small block several times.

    Re-use within a block means most accesses after the first pass hit in
    the data caches — useful for tests that need a low-miss workload.
    """
    builder = TraceBuilder(name=name)
    loop_pc = _loop_header(builder)
    x_base, y_base = ARRAY_BASES[0], ARRAY_BASES[1]
    t0, t1, t2 = regs.fp_reg(2), regs.fp_reg(3), regs.fp_reg(4)
    total = 0
    blocks = max(1, elements // block_elements)
    for block in range(blocks):
        for _ in range(passes):
            for i in range(block_elements):
                builder.set_pc(loop_pc)
                index = block * block_elements + i
                addr_x = x_base + index * ELEMENT_BYTES
                addr_y = y_base + index * ELEMENT_BYTES
                builder.load(t0, addr_x, addr_reg=_INDEX)
                builder.load(t1, addr_y, addr_reg=_INDEX)
                builder.fp_mul(t2, _SCALAR, t0)
                builder.fp_add(t2, t2, t1)
                builder.store(addr_y, t2, addr_reg=_INDEX)
                builder.int_op(_INDEX, _INDEX)
                total += 1
                last = block == blocks - 1 and _ == passes - 1 and i == block_elements - 1
                builder.branch(taken=not last, target=loop_pc, srcs=(_INDEX, _LIMIT))
    return builder.build()


def fp_compute_bound(
    iterations: int = 2048,
    chain_length: int = 4,
    name: str = "fp_compute",
) -> Trace:
    """A floating-point compute kernel with almost no memory traffic.

    Used as the "perfect memory" contrast point and in unit tests where
    cache behaviour would only add noise.
    """
    builder = TraceBuilder(name=name)
    loop_pc = _loop_header(builder)
    temps = [regs.fp_reg(2 + i) for i in range(max(2, chain_length))]
    for i in range(iterations):
        builder.set_pc(loop_pc)
        for j, temp in enumerate(temps):
            src = temps[j - 1] if j else _SCALAR
            builder.fp_mul(temp, src, _SCALAR)
        builder.fp_add(_ACC, _ACC, temps[-1])
        builder.int_op(_INDEX, _INDEX)
        builder.branch(taken=(i != iterations - 1), target=loop_pc, srcs=(_INDEX, _LIMIT))
    return builder.build()


def single_miss_probe(
    miss_addr: Optional[int] = None,
    dependents: int = 8,
    padding: int = 32,
    name: str = "single_miss",
) -> Trace:
    """One L2-missing load followed by a dependence chain and padding.

    A micro-trace used by unit tests of the SLIQ and checkpoint logic: the
    first load misses everywhere, ``dependents`` FP operations depend on
    it, and ``padding`` independent integer instructions follow.
    """
    builder = TraceBuilder(name=name)
    addr = miss_addr if miss_addr is not None else ARRAY_BASES[3]
    t0 = regs.fp_reg(2)
    builder.load(t0, addr)
    previous = t0
    for i in range(dependents):
        dest = regs.fp_reg(3 + (i % 8))
        builder.fp_add(dest, previous, _SCALAR)
        previous = dest
    for i in range(padding):
        builder.int_op(regs.int_reg(8 + (i % 8)), _INDEX)
    builder.branch(taken=False, srcs=(_INDEX,))
    return builder.build()
