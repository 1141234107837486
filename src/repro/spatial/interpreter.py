"""Functional execution of DSL programs, with mixed-precision rounding.

The executor evaluates loop bodies *vectorized*: entering a ``Foreach`` or
``Reduce`` does not iterate in Python — it binds the loop counter to a
numpy array carrying a fresh broadcast axis, evaluates the body once, and
reduces/commits along that axis.  An H=2048 LSTM step therefore costs a
handful of numpy kernels instead of millions of Python operations, per the
ml-systems guidance of replacing nested loops with vectorized idioms.

Only ``Sequential.Foreach`` iterates in Python, because its iterations
are truly ordered (the RNN time-step loop).

Mixed precision: a :class:`PrecisionPolicy` quantizes the result of every
operation category onto its hardware format — multiplies to fp8/fp16,
first reduction stage to fp16, accumulation to fp32 — reproducing the
paper's "mix f8+16+32" datapath numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import DSLBoundsError, DSLError, InterpreterError
from repro.precision.formats import FloatFormat
from repro.precision.quantize import quantize
from repro.spatial.context import Engine
from repro.spatial.ir import fresh_id
from repro.spatial.loops import Range
from repro.spatial.memories import LUT, Reg, SRAM
from repro.spatial.values import Value

__all__ = ["PrecisionPolicy", "Executor"]


@dataclass(frozen=True)
class PrecisionPolicy:
    """Which format each operation category rounds into.

    ``None`` anywhere means exact float64 (no rounding).  The defaults
    model the paper's Plasticine datapath; see Section 5.1: element-wise
    operations in 8-bit, first reduction stage in 16-bit, remaining
    reduction and accumulation in 32-bit.
    """

    mul: FloatFormat | None = None
    ew: FloatFormat | None = None
    reduce_stage1: FloatFormat | None = None
    accum: FloatFormat | None = None
    lut_out: FloatFormat | None = None
    quantize_storage: bool = True

    def round(self, x: np.ndarray, fmt: FloatFormat | None) -> np.ndarray:
        if fmt is None:
            return x
        return quantize(x, fmt)

    @classmethod
    def plasticine_mixed(cls) -> "PrecisionPolicy":
        """The paper's f8+16+32 configuration."""
        from repro.precision.formats import FP8, FP16, FP32

        return cls(mul=FP16, ew=FP16, reduce_stage1=FP16, accum=FP32, lut_out=FP16)

    @classmethod
    def exact(cls) -> "PrecisionPolicy":
        return cls(quantize_storage=False)


@dataclass
class _ActiveCounter:
    cid: int
    size: int  # number of iteration values


class Executor(Engine):
    """Vectorized numpy execution engine.

    Not constructed directly — use :meth:`repro.spatial.builder.Program.run`.

    Every SRAM starts as zeros of its declared shape.  Bound data of the
    same rank and no larger on any axis fills the leading block, the
    rest stays zero, and the whole array is then quantized to the SRAM's
    storage format; wider or different-rank data raises
    :class:`~repro.errors.InterpreterError`.
    """

    def __init__(
        self,
        memories,
        data: dict[str, np.ndarray],
        policy: PrecisionPolicy | None = None,
    ):
        self.memories = memories
        self.policy = policy or PrecisionPolicy.exact()
        self.state: dict[str, np.ndarray] = {}
        self.reg_state: dict[str, float] = {}
        self._lut_tables: dict[str, np.ndarray] = {}
        self._active: list[_ActiveCounter] = []
        self._pending: list[tuple] = []
        # Counters for traffic accounting (elements moved, not bytes).
        self.read_elems: dict[str, int] = {}
        self.write_elems: dict[str, int] = {}

        for sram in memories.srams.values():
            arr = np.zeros(sram.shape, dtype=np.float64)
            init = data.get(sram.name)
            if init is not None:
                init = np.asarray(init, dtype=np.float64)
                if init.ndim != arr.ndim or any(
                    n > extent for n, extent in zip(init.shape, sram.shape)
                ):
                    raise InterpreterError(
                        f"data for SRAM {sram.name!r} has shape {init.shape}, "
                        f"which does not fit declared {sram.shape}"
                    )
                arr[tuple(slice(0, n) for n in init.shape)] = init
                if self.policy.quantize_storage and sram.dtype is not None:
                    arr = quantize(arr, sram.dtype)
            self.state[sram.name] = arr
        for reg in memories.regs.values():
            self.reg_state[reg.name] = float(data.get(reg.name, reg.init))
        for lut in memories.luts.values():
            self._lut_tables[lut.name] = lut.table()

    # -- axis alignment --------------------------------------------------

    def _axis_sizes(self) -> dict[int, int]:
        return {c.cid: c.size for c in self._active}

    def _align(self, *vals: Value) -> tuple[tuple[int, ...], list]:
        """Broadcast payloads onto the union of the values' axes.

        Axes are ordered by loop nesting (outer first).  Returns the union
        axes and the reshaped payloads.
        """
        order = [c.cid for c in self._active]
        union = [cid for cid in order if any(cid in v.axes for v in vals)]
        for v in vals:
            for cid in v.axes:
                if cid not in order:
                    raise InterpreterError(
                        "value escaped its loop scope (axis no longer active)"
                    )
        sizes = self._axis_sizes()
        shaped = []
        for v in vals:
            payload = v.payload
            if not union:
                shaped.append(payload)
                continue
            arr = np.asarray(payload)
            shape = tuple(sizes[cid] if cid in v.axes else 1 for cid in union)
            if arr.ndim == 0:
                shaped.append(arr.reshape((1,) * len(union)))
            else:
                shaped.append(arr.reshape(shape))
        return tuple(union), shaped

    # -- Engine interface --------------------------------------------------

    def binop(self, kind: str, a: Value, b: Value) -> Value:
        axes, (pa, pb) = self._align(a, b)
        if kind == "add":
            out = np.add(pa, pb)
            fmt = self.policy.ew
        elif kind == "sub":
            out = np.subtract(pa, pb)
            fmt = self.policy.ew
        elif kind == "mul":
            out = np.multiply(pa, pb)
            fmt = self.policy.mul
        elif kind == "div":
            out = np.divide(pa, pb)
            fmt = self.policy.ew
        elif kind == "max":
            out = np.maximum(pa, pb)
            fmt = None
        elif kind == "min":
            out = np.minimum(pa, pb)
            fmt = None
        else:
            raise InterpreterError(f"unknown binop {kind!r}")
        return Value(self.policy.round(out, fmt), axes)

    def unop(self, kind: str, a: Value) -> Value:
        if kind == "neg":
            return Value(np.negative(a.payload), a.axes)
        raise InterpreterError(f"unknown unop {kind!r}")

    def read(self, mem, idxs: tuple) -> Value:
        if isinstance(mem, Reg):
            return Value(np.float64(self.reg_state[mem.name]), ())
        axes, shaped = self._align(*idxs)
        arrays = self._check_indices(mem, shaped)
        data = self.state[mem.name]
        if len(arrays) > 1:
            arrays = np.broadcast_arrays(*arrays)
            out = data[tuple(arrays)]
        else:
            out = data[arrays[0]]
        # Traffic accounting counts one access per active iteration context
        # (every unrolled lane re-reads loop-invariant operands), matching
        # the tracer's static counts.
        n = 1
        for c in self._active:
            n *= c.size
        self.read_elems[mem.name] = self.read_elems.get(mem.name, 0) + n
        return Value(out, axes)

    def _check_indices(self, mem: SRAM, shaped: list) -> list:
        arrays = []
        for dim, (payload, extent) in enumerate(zip(shaped, mem.shape)):
            arr = np.asarray(payload)
            if not np.issubdtype(arr.dtype, np.integer):
                if not np.all(arr == np.round(arr)):
                    raise DSLError(f"non-integer index into SRAM {mem.name!r} (dim {dim})")
                arr = arr.astype(np.int64)
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= extent):
                raise DSLBoundsError(
                    f"index into SRAM {mem.name!r} dim {dim} out of bounds "
                    f"[{int(arr.min())}, {int(arr.max())}] vs extent {extent}"
                )
            arrays.append(arr)
        return arrays

    def write(self, mem, value: Value, idxs: tuple) -> None:
        if isinstance(mem, Reg):
            if value.axes:
                raise DSLError(f"Reg {mem.name!r} written with a loop-varying value")
            self.reg_state[mem.name] = float(value.payload)
            return
        everything = (*idxs, value)
        axes, shaped = self._align(*everything)
        idx_arrays = self._check_indices(mem, shaped[:-1])
        val_arr = np.asarray(shaped[-1], dtype=np.float64)
        n = 1
        for c in self._active:
            n *= c.size
        self._pending.append((mem, idx_arrays, val_arr, n))

    def _commit(self) -> None:
        for mem, idx_arrays, val_arr, n in self._pending:
            data = self.state[mem.name]
            if self.policy.quantize_storage and mem.dtype is not None:
                val_arr = quantize(val_arr, mem.dtype)
            if len(idx_arrays) > 1:
                arrays = np.broadcast_arrays(*idx_arrays)
                data[tuple(arrays)] = np.broadcast_to(val_arr, arrays[0].shape)
            else:
                arr = idx_arrays[0]
                data[arr] = np.broadcast_to(val_arr, np.shape(arr)) if np.ndim(arr) else val_arr
            self.write_elems[mem.name] = self.write_elems.get(mem.name, 0) + n
        self._pending.clear()

    def lut_lookup(self, lut: LUT, x: Value) -> Value:
        table = self._lut_tables[lut.name]
        xv = np.asarray(x.payload, dtype=np.float64)
        pos = np.clip(np.round((xv - lut.lo) / lut.step_size), 0, lut.entries - 1)
        out = table[pos.astype(np.int64)]
        return Value(self.policy.round(out, self.policy.lut_out), x.axes)

    def foreach(self, rng: Range, body: Callable, *, sequential: bool, label: str) -> None:
        if sequential:
            for v in range(0, rng.extent, rng.step):
                body(Value(np.int64(v), ()))
                self._commit()
            return
        cid = fresh_id()
        values = np.arange(0, rng.extent, rng.step, dtype=np.int64)
        self._active.append(_ActiveCounter(cid, values.size))
        try:
            body(Value(values, (cid,)))
        finally:
            self._active.pop()
        self._commit()

    def reduce(self, rng: Range, map_fn: Callable, *, label: str) -> Value:
        cid = fresh_id()
        values = np.arange(0, rng.extent, rng.step, dtype=np.int64)
        self._active.append(_ActiveCounter(cid, values.size))
        try:
            mapped = map_fn(Value(values, (cid,)))
            if cid not in mapped.axes:
                # Loop-invariant map body: the reduction sums N copies.
                mapped = Value(
                    np.broadcast_to(
                        np.expand_dims(np.asarray(mapped.payload), -1),
                        (*np.shape(np.asarray(mapped.payload)), values.size),
                    ),
                    (*mapped.axes, cid),
                )
            axes, (arr,) = self._align(mapped)
        finally:
            self._active.pop()
        axis = axes.index(cid)
        out = self._tree_reduce(np.asarray(arr, dtype=np.float64), axis)
        out_axes = tuple(a for a in axes if a != cid)
        return Value(out, out_axes)

    def _tree_reduce(self, arr: np.ndarray, axis: int) -> np.ndarray:
        """Pairwise add-tree along ``axis`` with the hardware's precisions.

        The first tree level rounds to ``reduce_stage1`` (16-bit on the
        modified PCU), every later level and the final value round to
        ``accum`` (32-bit).
        """
        arr = np.moveaxis(arr, axis, -1)
        first = True
        while arr.shape[-1] > 1:
            n = arr.shape[-1]
            half = n // 2
            folded = arr[..., :half] + arr[..., half : 2 * half]
            fmt = self.policy.reduce_stage1 if first else self.policy.accum
            folded = self.policy.round(folded, fmt)
            if n % 2:
                folded = np.concatenate([folded, arr[..., -1:]], axis=-1)
            arr = folded
            first = False
        return self.policy.round(arr[..., 0], self.policy.accum)
