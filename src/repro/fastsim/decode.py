"""Per-program static decode tables for the fast cycle-level engines.

The reference pipelines (:mod:`repro.pipeline`, :mod:`repro.multipath`)
re-derive per-instruction facts on every dispatch: ``source_regs`` and
``dest_reg`` rebuild operand tuples, ``exec_latency`` probes a dict, and
:func:`repro.emu.exec_core.execute` walks a ~30-arm ``if`` chain to find
the opcode's semantics. All of that is a pure function of the *static*
instruction, so the fast engines hoist it out of the per-cycle loop:
one :class:`DecodeTable` per :class:`~repro.isa.program.Program` holds
flat, index-parallel columns (control class, memory kind, ``dest``,
sources, latency) plus an **exec column** naming each instruction's
semantics. Executing instruction ``i`` at ``pc`` is then one indexed
call, ``exec_fns[i](regs, mem_or_load, undo, text[i], pc + WORD_SIZE)``,
with no decode work left inside the engine's inner loop.

Memory contract: a table costs bytes per static instruction, not
objects. The facts that depend only on the opcode are ``bytes`` columns
expanded from one fact row per opcode, the register operands are
``array('b')`` columns, and the exec columns hold references to the
module-level functions below, one per opcode, which read their operands
from the shared :class:`~repro.isa.instruction.Instruction` at call
time. :func:`decode_table` keeps only the most recent program's table
alive: sweeps submit their jobs workload-major, so consecutive jobs
share one table, and moving to the next program frees the previous one.

Two exec families exist because the two pipeline models speculate
differently. They differ only in LOAD and STORE; every function returns
``(next_pc, taken, mem_address, store_value)``:

* :data:`EXEC` (the ``exec_fns`` column) — single-path semantics:
  register and memory writes apply immediately against a flat register
  list and a sparse memory dict, logging undo records *bit-identical* to
  :meth:`repro.emu.machine_state.MachineState.write_reg` / ``write_mem``
  so recovery rewinds restore exactly the same state.
* :data:`EXEC_MP` (the ``exec_fns_mp`` column) — multipath semantics:
  loads read through a caller-supplied forwarding function, and stores
  return their value (``store_value``) for commit-time application
  instead of writing memory (mirroring ``repro.multipath.cpu._PathState``).

Parity note: every function replicates one arm of
:func:`repro.emu.exec_core.execute` exactly — same masking, same
signedness, same undo record layout. The differential harness in
:mod:`repro.fastsim.parity` holds that line.
"""

from __future__ import annotations

import functools
from array import array
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.emu.machine_state import MASK64, to_signed
from repro.isa.instruction import Instruction
from repro.isa.opcodes import ControlClass, Opcode, REG_RA, WORD_SIZE
from repro.isa.program import Program
from repro.pipeline.inflight import dest_reg, exec_latency, source_regs

#: ``f(regs, mem_or_load, undo, inst, fall_through)`` applies ``inst``
#: and returns ``(next_pc, taken, mem_address, store_value)``.
ExecFn = Callable[[List[int], object, list, Instruction, int],
                  Tuple[int, bool, Optional[int], Optional[int]]]

#: Code of each control class in the ``control`` column. NOT_CONTROL is
#: the enum's first member, so its code is 0 and the column doubles as
#: the is-control test.
CONTROL_CODE: Dict[ControlClass, int] = {
    control: code for code, control in enumerate(ControlClass)}


# ----------------------------------------------------------------------
# One function per opcode. Each inlines write_reg (r0 hard-wired, undo
# logs the old value) rather than calling a helper: one call frame per
# executed instruction is measurable at engine scale.

def _addi(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = (regs[inst.rs] + inst.imm) & MASK64
    return ft, False, None, None


def _li(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = inst.imm & MASK64
    return ft, False, None, None


def _andi(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = regs[inst.rs] & inst.imm & MASK64
    return ft, False, None, None


def _xori(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = (regs[inst.rs] ^ (inst.imm & MASK64)) & MASK64
    return ft, False, None, None


def _slli(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = (regs[inst.rs] << (inst.imm & 63)) & MASK64
    return ft, False, None, None


def _srli(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = (regs[inst.rs] >> (inst.imm & 63)) & MASK64
    return ft, False, None, None


def _add(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = (regs[inst.rs] + regs[inst.rt]) & MASK64
    return ft, False, None, None


def _sub(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = (regs[inst.rs] - regs[inst.rt]) & MASK64
    return ft, False, None, None


def _and(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = regs[inst.rs] & regs[inst.rt] & MASK64
    return ft, False, None, None


def _or(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = (regs[inst.rs] | regs[inst.rt]) & MASK64
    return ft, False, None, None


def _xor(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = (regs[inst.rs] ^ regs[inst.rt]) & MASK64
    return ft, False, None, None


def _sll(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = (regs[inst.rs] << (regs[inst.rt] & 63)) & MASK64
    return ft, False, None, None


def _srl(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = (regs[inst.rs] >> (regs[inst.rt] & 63)) & MASK64
    return ft, False, None, None


def _slt(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = (1 if to_signed(regs[inst.rs]) < to_signed(regs[inst.rt])
                    else 0)
    return ft, False, None, None


def _mul(regs, mem, undo, inst, ft):
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = (regs[inst.rs] * regs[inst.rt]) & MASK64
    return ft, False, None, None


def _load(regs, mem, undo, inst, ft):
    address = (regs[inst.rs] + inst.imm) & MASK64
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = mem.get(address, 0) & MASK64
    return ft, False, address, None


def _store(regs, mem, undo, inst, ft):
    address = (regs[inst.rs] + inst.imm) & MASK64
    existed = address in mem
    undo.append(("m", address, mem[address] if existed else 0, existed))
    mem[address] = regs[inst.rt] & MASK64
    return ft, False, address, None


def _load_mp(regs, load, undo, inst, ft):
    address = (regs[inst.rs] + inst.imm) & MASK64
    rd = inst.rd
    if rd:
        undo.append(("r", rd, regs[rd]))
        regs[rd] = load(address) & MASK64
    return ft, False, address, None


def _store_mp(regs, load, undo, inst, ft):
    return (ft, False, (regs[inst.rs] + inst.imm) & MASK64,
            regs[inst.rt] & MASK64)


def _beqz(regs, mem, undo, inst, ft):
    if regs[inst.rs] == 0:
        return inst.target, True, None, None
    return ft, False, None, None


def _bnez(regs, mem, undo, inst, ft):
    if regs[inst.rs] != 0:
        return inst.target, True, None, None
    return ft, False, None, None


def _bltz(regs, mem, undo, inst, ft):
    if to_signed(regs[inst.rs]) < 0:
        return inst.target, True, None, None
    return ft, False, None, None


def _bgez(regs, mem, undo, inst, ft):
    if to_signed(regs[inst.rs]) >= 0:
        return inst.target, True, None, None
    return ft, False, None, None


def _j(regs, mem, undo, inst, ft):
    return inst.target, True, None, None


def _jal(regs, mem, undo, inst, ft):
    undo.append(("r", REG_RA, regs[REG_RA]))
    regs[REG_RA] = ft & MASK64
    return inst.target, True, None, None


def _jr(regs, mem, undo, inst, ft):
    return regs[inst.rs], True, None, None


def _jalr(regs, mem, undo, inst, ft):
    computed = regs[inst.rs]
    undo.append(("r", REG_RA, regs[REG_RA]))
    regs[REG_RA] = ft & MASK64
    return computed, True, None, None


def _ret(regs, mem, undo, inst, ft):
    return regs[REG_RA], True, None, None


def _next(regs, mem, undo, inst, ft):
    """NOP / HALT: no architectural effect beyond the PC."""
    return ft, False, None, None


#: Single-path semantics, one function per opcode.
EXEC: Dict[Opcode, ExecFn] = {
    Opcode.ADD: _add, Opcode.SUB: _sub, Opcode.AND: _and, Opcode.OR: _or,
    Opcode.XOR: _xor, Opcode.SLL: _sll, Opcode.SRL: _srl, Opcode.SLT: _slt,
    Opcode.MUL: _mul, Opcode.ADDI: _addi, Opcode.ANDI: _andi,
    Opcode.XORI: _xori, Opcode.SLLI: _slli, Opcode.SRLI: _srli,
    Opcode.LI: _li, Opcode.LOAD: _load, Opcode.STORE: _store,
    Opcode.BEQZ: _beqz, Opcode.BNEZ: _bnez, Opcode.BLTZ: _bltz,
    Opcode.BGEZ: _bgez, Opcode.J: _j, Opcode.JAL: _jal, Opcode.JR: _jr,
    Opcode.JALR: _jalr, Opcode.RET: _ret, Opcode.NOP: _next,
    Opcode.HALT: _next,
}

#: Multipath semantics: loads forwarded, stores captured, the rest shared.
EXEC_MP: Dict[Opcode, ExecFn] = {
    **EXEC, Opcode.LOAD: _load_mp, Opcode.STORE: _store_mp}

#: Opcodes by number. A build maps each instruction to its opcode number
#: once, then indexes the per-opcode tables below with it: an Opcode key
#: would run the enum's Python-level ``__hash__`` on every lookup.
_OPCODES = tuple(Opcode)
_NUMBER = {op: number for number, op in enumerate(_OPCODES)}
_EXEC_BY_NUMBER = tuple(EXEC[op] for op in _OPCODES)
_EXEC_MP_BY_NUMBER = tuple(EXEC_MP[op] for op in _OPCODES)


def _fact_row(op: Opcode) -> Tuple[int, ...]:
    """``(control, is_memory, is_load, is_store, is_mul, is_halt,
    latency)`` of ``op``: the facts that do not depend on operands."""
    inst = Instruction(op)
    return (CONTROL_CODE[inst.control], op in (Opcode.LOAD, Opcode.STORE),
            op is Opcode.LOAD, op is Opcode.STORE, op is Opcode.MUL,
            op is Opcode.HALT, exec_latency(inst))


#: One ``bytes.translate`` table per fact: opcode number -> fact.
_FACT_TABLES = [bytes(column).ljust(256, b"\0")
                for column in zip(*map(_fact_row, _OPCODES))]


# ----------------------------------------------------------------------
# The table.

class DecodeTable:
    """Index-parallel static columns for one program.

    Column ``i`` describes the instruction at byte address
    ``i * WORD_SIZE``. ``control`` holds :data:`CONTROL_CODE` values
    (0: not a control transfer); ``dest``, ``src1`` and ``src2`` hold
    register numbers, ``-1`` for "absent".
    """

    __slots__ = (
        "program", "size", "text_limit",
        "control", "is_memory", "is_load", "is_store", "is_mul",
        "is_halt", "latency", "dest", "src1", "src2",
        "exec_fns", "exec_fns_mp",
    )

    def __init__(self, program: Program) -> None:
        self.program = program
        text = program.text
        self.size = len(text)
        self.text_limit = len(text) * WORD_SIZE
        numbers = bytes(map(_NUMBER.__getitem__,
                            map(attrgetter("opcode"), text)))
        (self.control, self.is_memory, self.is_load, self.is_store,
         self.is_mul, self.is_halt, self.latency) = [
            numbers.translate(table) for table in _FACT_TABLES]
        self.exec_fns: List[ExecFn] = list(
            map(_EXEC_BY_NUMBER.__getitem__, numbers))
        self.exec_fns_mp: List[ExecFn] = list(
            map(_EXEC_MP_BY_NUMBER.__getitem__, numbers))
        # Register operands: a program repeats few (opcode, rd, rs, rt)
        # combinations (~1,100 of gcc's 10,665 instructions at scale
        # 0.05), so each is resolved once per build.
        resolved: Dict[Tuple[int, int, int, int], Tuple[int, int, int]] = {}
        dest, src1, src2 = array("b"), array("b"), array("b")
        for inst, number in zip(text, numbers):
            key = (number, inst.rd, inst.rs, inst.rt)
            row = resolved.get(key)
            if row is None:
                reg = dest_reg(inst)
                sources = source_regs(inst) + (-1, -1)
                row = resolved[key] = (-1 if reg is None else reg,
                                       sources[0], sources[1])
            dest.append(row[0])
            src1.append(row[1])
            src2.append(row[2])
        self.dest, self.src1, self.src2 = dest, src1, src2


@functools.lru_cache(maxsize=1)
def decode_table(program: Program) -> DecodeTable:
    """The static decode table for ``program``, memoised for the most
    recent program only (see the module docstring's memory contract)."""
    return DecodeTable(program)
