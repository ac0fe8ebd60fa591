"""Lowering: scheduled IR -> a registered :class:`KernelSpec`.

:func:`compile_kernel` turns a vectorized :class:`Schedule` into the same
two artifacts a handwritten kernel module exports:

* an auto-generated **preamble** — unpacks the instruction word with the
  Table I operand-packing convention, resolves logical matrix registers
  through the :class:`~repro.runtime.matrix.MatrixMap`, checks element
  types, and infers/validates every symbolic dimension from the actual
  operand shapes (:func:`repro.compiler.ir.bind_shapes`);
* a **body generator** driving :class:`~repro.runtime.context.
  KernelContext` — it claims register windows sized by the shared
  VRF-capacity policy (:func:`repro.runtime.kernels.common.k_strip_size`),
  keeps source rows resident in direct-mapped row caches (so a B-matrix
  strip is DMA-loaded once and reused across output rows exactly like the
  handwritten GeMM), batches strip loads under one cache-lock
  acquisition, folds zero coefficients at launch time (``beta == 0``
  skips the C load and becomes ``vclear``), and skips null ``vmacc.vs``
  contributions like the handwritten kernels do.

The result registers into the kernel library by ``func5`` and is
indistinguishable from a handwritten kernel to the decoder/scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.compiler.ir import (
    Access,
    Assign,
    Accum,
    BinOp,
    CompilerError,
    Const,
    Expr,
    KernelProgram,
    Loop,
    RowRef,
    Stmt,
    StripLoop,
    Sym,
    VClearElem,
    VEwise,
    VInit,
    VMacc,
    VReduce,
    VectorStmt,
    accesses,
    bind_shapes,
    eval_expr,
    key,
    syms,
    walk,
)
from repro.compiler.schedule import Schedule
from repro.isa.xmnmc import OffloadRequest
from repro.runtime.context import KernelContext
from repro.runtime.kernel_lib import KernelSpec, PreambleResult
from repro.runtime.kernels.common import k_strip_size, shard_rows, signed16
from repro.runtime.matrix import MatrixBinding, MatrixMap
from repro.runtime.queue import QueuedKernel
from repro.vpu.visa import OP_TRAITS, VectorOpcode


class LoweringError(CompilerError):
    """The scheduled program cannot be mapped onto the micro-program API."""


#: Which opcodes each vector statement's lowering can emit (see
#: ``_Interp._exec_vector``).  Consulted against ``OP_TRAITS`` when
#: planning register windows.
_STMT_OPCODES = {
    VInit: (VectorOpcode.VCLEAR, VectorOpcode.VMV, VectorOpcode.VMUL_VS),
    VEwise: (VectorOpcode.VADD_VV, VectorOpcode.VMUL_VV),
    VMacc: (VectorOpcode.VMACC_VS,),
    VReduce: (VectorOpcode.VREDSUM, VectorOpcode.VADD_VV),
    VClearElem: (VectorOpcode.VCLEAR,),
}


# ---------------------------------------------------------------------------
# compile-time analysis
# ---------------------------------------------------------------------------


@dataclass
class _CacheSpec:
    """Register-window plan for one source operand's resident rows."""

    operand: str
    capacity: Optional[Expr]  # None -> strip-sized (runtime S)
    strip_row: Optional[Expr] = None  # representative row expr (strip operands)

    @property
    def is_strip(self) -> bool:
        return self.capacity is None


@dataclass
class _Plan:
    """Everything the generated body needs, derived once at compile time."""

    program: KernelProgram
    store_loop: Optional[Loop]
    strip: Optional[StripLoop]
    caches: Dict[str, _CacheSpec]
    needs_scratch: bool
    dest_row: Expr
    sharded_var: Optional[str]


def _row_uses(program: KernelProgram) -> Dict[str, List[Expr]]:
    """operand -> row expressions of every vector/scalar access."""
    uses: Dict[str, List[Expr]] = {}

    def note(operand: str, row: Expr) -> None:
        uses.setdefault(operand, []).append(row)

    def note_scalar(expr: Expr) -> None:
        for access in accesses(expr):
            note(access.operand, access.row)

    for stmt in walk(program.body):
        if isinstance(stmt, VInit):
            note_scalar(stmt.coeff)
            if stmt.src is not None:
                note(stmt.src.operand, stmt.src.row)
        elif isinstance(stmt, VEwise):
            note(stmt.a.operand, stmt.a.row)
            note(stmt.b.operand, stmt.b.row)
        elif isinstance(stmt, VMacc):
            note_scalar(stmt.coeff)
            note(stmt.src.operand, stmt.src.row)
        elif isinstance(stmt, VReduce):
            note(stmt.src.operand, stmt.src.row)
    return uses


def _analyze(program: KernelProgram) -> _Plan:
    if program.vector_var is None:
        raise LoweringError(
            f"kernel {program.name!r} is not vectorized; apply "
            "Schedule.vectorize() before lowering"
        )

    # Residual element statements: only the scalar destination-clear form
    # survives vectorization; rewrite it, reject anything else.
    def rewrite_residuals(block: List[Stmt]) -> None:
        for index, stmt in enumerate(block):
            if isinstance(stmt, (Loop, StripLoop)):
                rewrite_residuals(stmt.body)
            elif isinstance(stmt, Assign):
                if isinstance(stmt.value, Const) and stmt.value.value == 0:
                    block[index] = VClearElem(stmt.dest.row, stmt.dest.col)
                else:
                    raise LoweringError(
                        f"element statement {stmt.dest!r} = {stmt.value!r} "
                        "was not vectorized and has no scalar lowering"
                    )
            elif isinstance(stmt, Accum):
                raise LoweringError(
                    f"element accumulation into {stmt.dest!r} was not "
                    "vectorized (is it missing a loop over the vector var?)"
                )

    rewrite_residuals(program.body)

    vector_stmts = [s for s in walk(program.body) if isinstance(s, VectorStmt)]
    if not vector_stmts:
        raise LoweringError(f"kernel {program.name!r} has no vector statements")
    dest_rows = {key(s.dest_row) for s in vector_stmts}
    if len(dest_rows) > 1:
        raise LoweringError(
            f"kernel writes {len(dest_rows)} distinct destination rows per "
            f"iteration ({sorted(dest_rows)}); one accumulator row is supported"
        )
    dest_row = vector_stmts[0].dest_row

    # loop inventory
    strip = next((s for s in walk(program.body) if isinstance(s, StripLoop)), None)
    strip_syms = (
        {strip.outer_var, strip.inner_var, strip.size_sym} if strip else set()
    )
    parallel_loops: List[Loop] = []
    reduction_extents: Dict[str, Expr] = {}
    sharded_var: Optional[str] = None

    def scan(block: Sequence[Stmt]) -> None:
        nonlocal sharded_var
        for stmt in block:
            if isinstance(stmt, Loop):
                if stmt.parallel:
                    parallel_loops.append(stmt)
                    if stmt.sharded:
                        sharded_var = stmt.var
                else:
                    reduction_extents[stmt.var] = stmt.extent
                scan(stmt.body)
            elif isinstance(stmt, StripLoop):
                scan(stmt.body)

    scan(program.body)

    dest_syms = syms(dest_row)
    bad = dest_syms & (set(reduction_extents) | strip_syms)
    if bad:
        raise LoweringError(
            f"destination row {dest_row!r} is indexed by reduction "
            f"variables {sorted(bad)}"
        )
    store_loop = None
    for loop in parallel_loops:  # scan() appends outermost-first
        if loop.var in dest_syms:
            store_loop = loop

    # first write into the accumulator must be an assignment form
    first = vector_stmts[0]
    if isinstance(first, (VMacc, VReduce)):
        raise LoweringError(
            "destination is accumulated before being initialized; start "
            "each output iteration with an assignment (e.g. acc = 0)"
        )

    # row caches
    caches: Dict[str, _CacheSpec] = {}
    for operand, rows in _row_uses(program).items():
        strip_rows = [r for r in rows if syms(r) & strip_syms]
        if strip_rows:
            if len(strip_rows) != len(rows):
                raise LoweringError(
                    f"operand {operand!r} is accessed both inside and "
                    "outside the strip-mined loop; unsupported"
                )
            if len({key(r) for r in strip_rows}) != 1:
                raise LoweringError(
                    f"operand {operand!r} has several distinct strip-row "
                    f"indexings; unsupported"
                )
            caches[operand] = _CacheSpec(operand, None, strip_rows[0])
        else:
            capacity: Expr = Const(1)
            seen = set()
            for row in rows:
                for name in syms(row) & set(reduction_extents):
                    if name not in seen:
                        seen.add(name)
                        capacity = BinOp("*", capacity, reduction_extents[name])
            caches[operand] = _CacheSpec(operand, capacity)

    strip_caches = [c for c in caches.values() if c.is_strip]
    if len(strip_caches) > 1:
        raise LoweringError(
            "strip-mined rows of more than one operand; the strip window "
            "policy supports a single resident-strip operand"
        )
    if strip is not None and not strip_caches:
        raise LoweringError(
            "strip-mined loop does not index any operand rows; remove the "
            "strip_mine() step"
        )

    for stmt in vector_stmts:
        if isinstance(stmt, VEwise):
            # vs2 has no element-offset addressing in the vector ISA
            offset = stmt.b.offset
            if not (isinstance(offset, Const) and offset.value == 0):
                raise LoweringError(
                    f"second element-wise source {stmt.b!r} needs a column "
                    "offset; only vs1 supports gather addressing"
                )

    # A reduction opcode collapses the row into vd[vd_offset]; combining
    # that value into the accumulator takes one scratch register, which
    # must be reserved out of the strip-mining budget.
    needs_scratch = any(
        OP_TRAITS[opcode].is_reduction
        for stmt in vector_stmts
        for opcode in _STMT_OPCODES[type(stmt)]
    )
    return _Plan(
        program, store_loop, strip, caches, needs_scratch, dest_row, sharded_var
    )


# ---------------------------------------------------------------------------
# runtime support
# ---------------------------------------------------------------------------


def _tap_form(coeff: Expr, src_operand: str) -> Optional[Tuple[Access, Expr]]:
    """``(access, factor)`` when a ``vmacc.vs`` coefficient is one matrix
    element times an access-free factor — the form of every library
    coefficient, lowered through :meth:`KernelContext.macc_tap` — else
    None.  An element of the MAC's own source operand is excluded: making
    the source row resident could evict the tap's row from the shared
    row cache."""
    if isinstance(coeff, Access):
        access, factor = coeff, Const(1)
    elif isinstance(coeff, BinOp) and coeff.op == "*" and isinstance(coeff.rhs, Access):
        access, factor = coeff.rhs, coeff.lhs
    elif isinstance(coeff, BinOp) and coeff.op == "*" and isinstance(coeff.lhs, Access):
        access, factor = coeff.lhs, coeff.rhs
    else:
        return None
    if accesses(factor) or access.operand == src_operand:
        return None
    return access, factor


class _RowCache:
    """Direct-mapped resident-row tracking over one register window."""

    def __init__(self, window, capacity: int) -> None:
        self.window = window
        self.capacity = capacity
        self.resident: Dict[int, int] = {}  # slot -> matrix row

    def slot(self, row: int) -> int:
        return row % self.capacity

    def lookup(self, row: int) -> Optional[int]:
        slot = self.slot(row)
        if self.resident.get(slot) == row:
            return self.window[slot]
        return None

    def mark(self, row: int) -> int:
        slot = self.slot(row)
        self.resident[slot] = row
        return self.window[slot]


class _Interp:
    """Executes the scheduled IR as a micro-program on a KernelContext."""

    def __init__(
        self,
        plan: _Plan,
        kc: KernelContext,
        env: Dict[str, int],
        bindings: Dict[str, MatrixBinding],
        dest: MatrixBinding,
        shard: Optional[Tuple[int, int]],
        vl: int,
    ) -> None:
        self.plan = plan
        self.kc = kc
        self.env = env
        self.bindings = bindings
        self.dest = dest
        self.shard = shard
        self.vl = vl
        self.acc: int = -1
        self.acc_win = None
        self.tmp: int = -1
        self.caches: Dict[str, _RowCache] = {}

    # -- setup ---------------------------------------------------------------

    def claim_windows(self) -> None:
        kc, plan, env = self.kc, self.plan, self.env
        budget = kc.free_regs()
        reserved = 1 + (1 if plan.needs_scratch else 0)
        fixed = {
            name: max(1, eval_expr(spec.capacity, env))
            for name, spec in plan.caches.items()
            if not spec.is_strip
        }
        reserved += sum(fixed.values())
        strip_spec = next((c for c in plan.caches.values() if c.is_strip), None)
        if strip_spec is not None:
            total = eval_expr(plan.strip.total, env)
            size = k_strip_size(total, budget, reserved)
            if plan.strip.max_size is not None:
                # recipe-provided cap on the launch-time strip choice
                size = min(size, plan.strip.max_size)
            env[plan.strip.size_sym] = size
            self.caches[strip_spec.operand] = _RowCache(kc.claim(size), size)
        self.acc_win = kc.claim(1)
        self.acc = self.acc_win[0]
        if plan.needs_scratch:
            self.tmp = kc.claim(1)[0]
        for name, capacity in fixed.items():
            self.caches[name] = _RowCache(kc.claim(capacity), capacity)

    # -- data residency -------------------------------------------------------

    def _ensure_row(self, operand: str, row: int) -> Generator:
        cache = self.caches[operand]
        register = cache.lookup(row)
        if register is None:
            slot = cache.slot(row)
            yield from self.kc.load_rows(
                cache.window, self.bindings[operand], row, 1, reg_start=slot
            )
            register = cache.mark(row)
        return register

    def _ensure_ref(self, ref: RowRef) -> Generator:
        row = eval_expr(ref.row, self.env)
        offset = eval_expr(ref.offset, self.env)
        register = yield from self._ensure_row(ref.operand, row)
        return register, offset

    def _ensure_strip(self, count: int) -> Generator:
        """Batch-load the missing rows of the current strip (one lock)."""
        plan, env = self.plan, self.env
        spec = next(c for c in plan.caches.values() if c.is_strip)
        cache = self.caches[spec.operand]
        binding = self.bindings[spec.operand]
        specs = []
        for index in range(count):
            env[plan.strip.inner_var] = index
            row = eval_expr(spec.strip_row, env)
            if cache.lookup(row) is None:
                specs.append((cache.window, binding, row, cache.slot(row)))
                cache.mark(row)
        if specs:
            yield from self.kc.load_row_set(specs)

    # -- scalar evaluation ----------------------------------------------------

    def _eval_scalar(self, expr: Expr) -> Generator:
        """Evaluate a coefficient, reading matrix elements via the eCPU."""
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Sym):
            return self.env[expr.name]
        if isinstance(expr, Access):
            row = eval_expr(expr.row, self.env)
            col = eval_expr(expr.col, self.env)
            register = yield from self._ensure_row(expr.operand, row)
            value = yield from self.kc.read_element(register, col)
            return value
        if isinstance(expr, BinOp):
            lhs = yield from self._eval_scalar(expr.lhs)
            rhs = yield from self._eval_scalar(expr.rhs)
            if expr.op == "+":
                return lhs + rhs
            if expr.op == "-":
                return lhs - rhs
            if expr.op == "*":
                return lhs * rhs
            if expr.op == "//":
                return lhs // rhs
        raise LoweringError(f"cannot evaluate scalar expression {expr!r}")

    # -- execution -------------------------------------------------------------

    def run(self) -> Generator:
        if (
            self.shard is not None
            and self.shard != (0, 1)
            and self.plan.sharded_var is None
        ):
            # unsharded kernel in multi-instance mode: one shard does the work
            if self.shard[0] != 0:
                return
        self.claim_windows()
        yield from self._exec_block(self.plan.program.body)
        if self.plan.store_loop is None:
            yield from self._store()

    def _store(self) -> Generator:
        row = eval_expr(self.plan.dest_row, self.env)
        yield from self.kc.store_rows(self.acc_win, self.dest, row, 1)

    def _exec_block(self, block: Sequence[Stmt]) -> Generator:
        for stmt in block:
            if isinstance(stmt, Loop):
                yield from self._exec_loop(stmt)
            elif isinstance(stmt, StripLoop):
                yield from self._exec_strip(stmt)
            elif isinstance(stmt, VectorStmt):
                yield from self._exec_vector(stmt)
            else:  # pragma: no cover - analysis rejects other forms
                raise LoweringError(f"unexpected statement {stmt!r}")

    def _exec_loop(self, loop: Loop) -> Generator:
        extent = eval_expr(loop.extent, self.env)
        start, count = 0, extent
        if loop.sharded and self.shard is not None:
            start, count = shard_rows(extent, self.shard)
        for value in range(start, start + count):
            self.env[loop.var] = value
            yield from self._exec_block(loop.body)
            if loop is self.plan.store_loop:
                yield from self._store()

    def _exec_strip(self, strip: StripLoop) -> Generator:
        total = eval_expr(strip.total, self.env)
        size = self.env[strip.size_sym]
        for outer in range((total + size - 1) // size):
            self.env[strip.outer_var] = outer
            count = min(size, total - outer * size)
            yield from self._ensure_strip(count)
            for inner in range(count):
                self.env[strip.inner_var] = inner
                yield from self._exec_block(strip.body)

    def _exec_vector(self, stmt: VectorStmt) -> Generator:
        kc, vl = self.kc, self.vl
        if isinstance(stmt, VInit):
            coeff = yield from self._eval_scalar(stmt.coeff)
            if stmt.src is None or coeff == 0:
                # launch-time constant folding: a zero coefficient clears
                # the accumulator and skips the source row DMA entirely
                yield from kc.vop(VectorOpcode.VCLEAR, vd=self.acc, vl=vl)
                return
            register, offset = yield from self._ensure_ref(stmt.src)
            if coeff == 1:
                yield from kc.vop(
                    VectorOpcode.VMV, vd=self.acc, vs1=register, offset=offset, vl=vl
                )
            else:
                yield from kc.vop(
                    VectorOpcode.VMUL_VS, vd=self.acc, vs1=register,
                    scalar=coeff, offset=offset, vl=vl,
                )
        elif isinstance(stmt, VEwise):
            reg_a, off_a = yield from self._ensure_ref(stmt.a)
            reg_b, _ = yield from self._ensure_ref(stmt.b)
            opcode = VectorOpcode.VADD_VV if stmt.op == "add" else VectorOpcode.VMUL_VV
            yield from kc.vop(
                opcode, vd=self.acc, vs1=reg_a, vs2=reg_b, offset=off_a, vl=vl
            )
        elif isinstance(stmt, VMacc):
            tap = _tap_form(stmt.coeff, stmt.src.operand)
            if tap is None:
                coeff = yield from self._eval_scalar(stmt.coeff)
                if coeff == 0:
                    return  # software skips null contributions (like gemm.py)
                register, offset = yield from self._ensure_ref(stmt.src)
                yield from kc.vop(
                    VectorOpcode.VMACC_VS, vd=self.acc, vs1=register,
                    scalar=coeff, offset=offset, vl=vl,
                )
                return
            access, factor_expr = tap
            factor = yield from self._eval_scalar(factor_expr)
            tap_register = yield from self._ensure_row(
                access.operand, eval_expr(access.row, self.env)
            )
            # the source row is made resident before the tap is read, so
            # which rows move never depends on the tap's value
            register, offset = yield from self._ensure_ref(stmt.src)
            yield from kc.macc_tap(
                tap_register, eval_expr(access.col, self.env), vd=self.acc,
                vs1=register, vl=vl, factor=factor, offset=offset,
            )
        elif isinstance(stmt, VReduce):
            register, offset = yield from self._ensure_ref(stmt.src)
            yield from kc.vop(
                VectorOpcode.VREDSUM, vd=self.tmp, vs1=register, offset=offset, vl=vl
            )
            col = eval_expr(stmt.col, self.env)
            yield from kc.vop(
                VectorOpcode.VADD_VV, vd=self.acc, vd_offset=col,
                vs1=self.acc, offset=col, vs2=self.tmp, vl=1,
            )
        elif isinstance(stmt, VClearElem):
            col = eval_expr(stmt.col, self.env)
            yield from kc.vop(VectorOpcode.VCLEAR, vd=self.acc, vd_offset=col, vl=1)
        else:  # pragma: no cover
            raise LoweringError(f"unknown vector statement {stmt!r}")


# ---------------------------------------------------------------------------
# the compiler entry point
# ---------------------------------------------------------------------------


def compile_kernel(
    schedule: Schedule,
    func5: int,
    description: str = "",
) -> KernelSpec:
    """Lower a scheduled kernel to a library-registrable :class:`KernelSpec`.

    Operand packing follows the Table I convention: the (up to two)
    scalar params ride in rs1, sources take (rs3.first, rs3.second,
    rs2.first) in declaration order and the destination register is
    rs2.second — so a compiled GeMM is invoked exactly like ``xmk0``.
    """
    program = schedule.program
    plan = _analyze(program)
    source_names = [op.name for op in program.sources]
    params = list(program.params)

    def preamble(request: OffloadRequest, matrix_map: MatrixMap) -> PreambleResult:
        from repro.vpu.visa import ElementType

        (p0, p1), (s3, dreg), (s1, s2) = request.pairs()
        registers = [s1, s2, s3][: len(source_names)]
        raw_params = [p0, p1][: len(params)]
        env: Dict[str, int] = {
            name: signed16(value) for name, value in zip(params, raw_params)
        }
        etype = ElementType.from_suffix(request.size_suffix)
        sources = [matrix_map.resolve(register) for register in registers]
        dest = matrix_map.resolve(dreg)
        for name, binding in zip(source_names + [program.dest.name],
                                 sources + [dest]):
            if binding.etype is not etype:
                raise ValueError(
                    f"kernel {program.name!r}: operand {name!r} is bound as "
                    f".{binding.etype.suffix} but the instruction is "
                    f".{etype.suffix}"
                )
        actual = {
            name: (binding.rows, binding.cols)
            for name, binding in zip(source_names, sources)
        }
        actual[program.dest.name] = (dest.rows, dest.cols)
        bind_shapes(program, actual, env)
        return dest, sources, env

    def body(
        kc: KernelContext,
        kernel: QueuedKernel,
        shard: Optional[Tuple[int, int]] = None,
    ) -> Generator:
        env = dict(kernel.scalars)
        bindings = dict(zip(source_names, kernel.sources))
        vl = eval_expr(program.vector_extent, env)
        if vl <= 0:
            return
        if vl > kc.max_vl:
            raise ValueError(
                f"kernel {program.name!r}: output rows of {vl} elements "
                f"exceed the {kc.max_vl}-element vector registers"
            )
        interp = _Interp(plan, kc, env, bindings, kernel.dest, shard, vl)
        yield from interp.run()

    return KernelSpec(
        func5=func5,
        name=program.name,
        preamble=preamble,
        body=body,
        description=description or f"compiled kernel {program.name!r}",
    )
