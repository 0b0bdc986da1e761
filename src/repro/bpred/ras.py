"""The return-address stack and its repair mechanisms.

This module is the paper's primary contribution surface and the only
home of each stack organisation's semantics: every engine drives a
stack through the :class:`BaseRas` port. Three are provided:

* :class:`CircularRas` — the conventional circular buffer (Alpha
  21164/21264 style). Pushes advance the top-of-stack (TOS) pointer and
  overwrite; pops retreat it. Overflow and underflow silently wrap. The
  repair mechanism decides what :meth:`~CircularRas.checkpoint` saves at
  each predicted branch and what :meth:`~CircularRas.restore` puts back
  on misprediction recovery:

  ========================  =============================================
  NONE                      nothing — wrong-path pushes/pops persist
  TOS_POINTER               the TOS pointer (Cyrix-patent style)
  TOS_POINTER_AND_CONTENTS  pointer + the top entry's contents (the
                            paper's proposal: also repairs the common
                            wrong-path pop-then-push overwrite)
  FULL_STACK                the whole stack (upper bound)
  VALID_BITS                pointer, plus Pentium-style valid bits:
                            entries written by squashed wrong-path
                            pushes are detectable and a pop of an
                            invalid entry yields *no* prediction
  ========================  =============================================

* :class:`LinkedRas` — Jourdan-style self-checkpointing: every push
  allocates a fresh physical entry from a circular pool and links it to
  the previous top, so pops never destroy contents and a pointer-only
  checkpoint restores the full logical stack — until the pool recycles
  a still-referenced entry, which is why this scheme needs more physical
  entries than logical depth (the paper's observation).

* :class:`ChampSimRas` — a port of ChampSim's ``return_stack``, the
  cross-validation target of :mod:`repro.corpus.diffcheck`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.config.options import RepairMechanism
from repro.errors import ConfigError
from repro.isa.opcodes import WORD_SIZE
from repro.stats import StatGroup

#: Opaque checkpoint token; layout is private to each implementation.
Checkpoint = Tuple


class BaseRas:
    """The port every stack organisation implements.

    Speculative engines predict with :meth:`pop` and repair with
    :meth:`checkpoint`/:meth:`restore`; committed-trace replay retires
    each return through :meth:`retire_return` and may hand whole blocks
    to :meth:`replay_committed`.
    """

    #: Does every pop yield a prediction? A stack that always predicts
    #: never falls back to the BTB, so trace replay builds none for it.
    always_predicts = False

    def __init__(self, name: str) -> None:
        self.stats = StatGroup(name)
        self._pushes = self.stats.counter("pushes")
        self._pops = self.stats.counter("pops")
        self._overflows = self.stats.counter("overflows")
        self._underflows = self.stats.counter("underflows")

    # -- interface -----------------------------------------------------
    def push(self, address: int) -> None:
        raise NotImplementedError

    def pop(self) -> Optional[int]:
        raise NotImplementedError

    def top(self) -> Optional[int]:
        raise NotImplementedError

    def retire_return(self, target: int) -> Optional[int]:
        """A return on the committed path, resolved to ``target``: its
        prediction, or ``None`` when the stack makes none."""
        return self.pop()

    def replay_committed(self, classes: Sequence[int], pcs: Sequence[int],
                         next_pcs: Sequence[int], return_idx: int
                         ) -> Optional[Tuple[int, int]]:
        """Block kernel for committed replay: ``(returns, hits)`` over
        parallel call/return columns (class ``return_idx`` is a return,
        any other a call of ``pc``), leaving the state and counters of
        per-operation :meth:`retire_return` / ``push(pc + WORD_SIZE)``.
        ``None`` (the default) means no kernel: step per operation. Only
        a stack that :attr:`always_predicts` may have one (no BTB)."""
        return None

    def checkpoint(self) -> Optional[Checkpoint]:
        raise NotImplementedError

    def restore(self, token: Optional[Checkpoint]) -> None:
        raise NotImplementedError

    def clone(self):
        """Deep-copy this stack (per-path copies under multipath)."""
        raise NotImplementedError

    def logical_entries(self) -> List[int]:
        """Top-first logical contents (tests and diagnostics only)."""
        raise NotImplementedError


class CircularRas(BaseRas):
    """Circular-buffer RAS with a configurable repair mechanism."""

    def __init__(
        self,
        entries: int,
        repair: RepairMechanism = RepairMechanism.TOS_POINTER_AND_CONTENTS,
        contents_depth: int = 1,
    ) -> None:
        """``contents_depth`` generalises TOS_POINTER_AND_CONTENTS to
        checkpoint the top *k* entries — the paper notes "one can, of
        course, save an arbitrary number of return-address-stack entries
        this way; the extreme would be to checkpoint the entire stack".
        ``contents_depth=1`` is the paper's proposal; ``entries`` is the
        full-checkpoint extreme.
        """
        if repair is RepairMechanism.SELF_CHECKPOINT:
            raise ConfigError("SELF_CHECKPOINT requires LinkedRas; use make_ras()")
        if repair is RepairMechanism.CHAMPSIM:
            raise ConfigError("CHAMPSIM requires ChampSimRas; use make_ras()")
        if entries < 1:
            raise ConfigError("RAS needs at least one entry")
        if not 1 <= contents_depth <= entries:
            raise ConfigError("contents_depth must be in [1, entries]")
        super().__init__(f"ras[{repair}]")
        self.entries = entries
        self.repair = repair
        self.always_predicts = repair is not RepairMechanism.VALID_BITS
        self.contents_depth = contents_depth
        self._stack: List[int] = [0] * entries
        self._tos = 0
        #: Occupancy in [0, entries]; stats-only, not hardware state.
        self._depth = 0
        # Valid-bit machinery (only consulted under VALID_BITS).
        self._valid: List[bool] = [False] * entries
        self._writer: List[int] = [0] * entries
        self._push_counter = 0

    # -- stack operations ----------------------------------------------
    def push(self, address: int) -> None:
        self._pushes.value += 1
        self._push_counter += 1
        tos = (self._tos + 1) % self.entries
        self._tos = tos
        self._stack[tos] = address
        self._valid[tos] = True
        self._writer[tos] = self._push_counter
        if self._depth == self.entries:
            self._overflows.value += 1
        else:
            self._depth += 1

    def pop(self) -> Optional[int]:
        self._pops.value += 1
        tos = self._tos
        value: Optional[int] = self._stack[tos]
        if self.repair is RepairMechanism.VALID_BITS and not self._valid[tos]:
            value = None
        self._tos = (tos - 1) % self.entries
        if self._depth == 0:
            self._underflows.value += 1
        else:
            self._depth -= 1
        return value

    def top(self) -> Optional[int]:
        if self.repair is RepairMechanism.VALID_BITS and not self._valid[self._tos]:
            return None
        return self._stack[self._tos]

    def replay_committed(self, classes: Sequence[int], pcs: Sequence[int],
                         next_pcs: Sequence[int], return_idx: int
                         ) -> Optional[Tuple[int, int]]:
        # With no wrong paths every repair but VALID_BITS replays the
        # same: a pop always yields the slot, so this is pop()/push()
        # inlined as local integer ops, counters bumped once per block.
        # The valid bits are not maintained, so VALID_BITS steps per op.
        if not self.always_predicts:
            return None
        stack = self._stack
        entries = self.entries
        word = WORD_SIZE
        tos = self._tos
        depth = self._depth
        returns = hits = overflows = underflows = 0
        for cls, pc, next_pc in zip(classes, pcs, next_pcs):
            if cls == return_idx:
                returns += 1
                if stack[tos] == next_pc:
                    hits += 1
                tos = (tos - 1) % entries
                if depth:
                    depth -= 1
                else:
                    underflows += 1
            else:
                tos = (tos + 1) % entries
                stack[tos] = pc + word
                if depth == entries:
                    overflows += 1
                else:
                    depth += 1
        self._tos = tos
        self._depth = depth
        self._pops.value += returns
        self._pushes.value += len(classes) - returns
        self._overflows.value += overflows
        self._underflows.value += underflows
        return returns, hits

    # -- repair ----------------------------------------------------------
    def checkpoint(self) -> Optional[Checkpoint]:
        repair = self.repair
        if repair is RepairMechanism.NONE:
            return None
        if repair is RepairMechanism.TOS_POINTER:
            return (self._tos, self._depth)
        if repair is RepairMechanism.TOS_POINTER_AND_CONTENTS:
            if self.contents_depth == 1:
                return (self._tos, self._depth, self._stack[self._tos])
            saved = tuple(
                self._stack[(self._tos - offset) % self.entries]
                for offset in range(self.contents_depth)
            )
            return (self._tos, self._depth, saved)
        if repair is RepairMechanism.FULL_STACK:
            return (self._tos, self._depth, tuple(self._stack), tuple(self._valid))
        # VALID_BITS: pointer plus the push horizon for invalidation.
        return (self._tos, self._depth, self._push_counter)

    def restore(self, token: Optional[Checkpoint]) -> None:
        if token is None:
            return
        repair = self.repair
        self._tos = token[0]
        self._depth = token[1]
        if repair is RepairMechanism.TOS_POINTER_AND_CONTENTS:
            if self.contents_depth == 1:
                self._stack[self._tos] = token[2]
                self._valid[self._tos] = True
            else:
                for offset, value in enumerate(token[2]):
                    index = (self._tos - offset) % self.entries
                    self._stack[index] = value
                    self._valid[index] = True
        elif repair is RepairMechanism.FULL_STACK:
            self._stack = list(token[2])
            self._valid = list(token[3])
        elif repair is RepairMechanism.VALID_BITS:
            horizon = token[2]
            for index in range(self.entries):
                if self._writer[index] > horizon:
                    self._valid[index] = False

    # -- misc --------------------------------------------------------------
    def clone(self) -> "CircularRas":
        twin = CircularRas(self.entries, self.repair, self.contents_depth)
        twin._stack = list(self._stack)
        twin._tos = self._tos
        twin._depth = self._depth
        twin._valid = list(self._valid)
        twin._writer = list(self._writer)
        twin._push_counter = self._push_counter
        return twin

    def logical_entries(self) -> List[int]:
        result = []
        index = self._tos
        for _ in range(self._depth):
            result.append(self._stack[index])
            index = (index - 1) % self.entries
        return result

    @property
    def depth(self) -> int:
        return self._depth


class LinkedRas(BaseRas):
    """Jourdan-style self-checkpointing RAS (linked entries in a pool)."""

    def __init__(self, logical_entries: int, overprovision: int = 4) -> None:
        if logical_entries < 1 or overprovision < 1:
            raise ConfigError("LinkedRas needs positive sizes")
        super().__init__("ras[self-checkpoint]")
        self.logical_size = logical_entries
        self.pool_size = logical_entries * overprovision
        self._address: List[int] = [0] * self.pool_size
        self._next: List[int] = [-1] * self.pool_size
        self._tos = -1  # -1 = empty stack
        self._alloc = 0

    def push(self, address: int) -> None:
        self._pushes.value += 1
        slot = self._alloc
        self._alloc = (self._alloc + 1) % self.pool_size
        if slot == self._tos or self._is_live(slot):
            self._overflows.value += 1
        self._address[slot] = address
        self._next[slot] = self._tos
        self._tos = slot

    def _is_live(self, slot: int) -> bool:
        """Is ``slot`` reachable from the current TOS? (stats only)

        Bounded walk: the chain cannot meaningfully exceed the pool.
        """
        index = self._tos
        for _ in range(self.pool_size):
            if index == -1:
                return False
            if index == slot:
                return True
            index = self._next[index]
        return False

    def pop(self) -> Optional[int]:
        self._pops.value += 1
        if self._tos == -1:
            self._underflows.value += 1
            return None
        value = self._address[self._tos]
        self._tos = self._next[self._tos]
        return value

    def top(self) -> Optional[int]:
        if self._tos == -1:
            return None
        return self._address[self._tos]

    def checkpoint(self) -> Optional[Checkpoint]:
        # Self-checkpointing: the pointer alone preserves contents,
        # because pops never destroy entries and pushes never overwrite
        # (until pool recycling — the cost the paper points out).
        return (self._tos,)

    def restore(self, token: Optional[Checkpoint]) -> None:
        if token is None:
            return
        self._tos = token[0]

    def clone(self) -> "LinkedRas":
        twin = LinkedRas(self.logical_size, self.pool_size // self.logical_size)
        twin._address = list(self._address)
        twin._next = list(self._next)
        twin._tos = self._tos
        twin._alloc = self._alloc
        return twin

    def logical_entries(self) -> List[int]:
        result = []
        index = self._tos
        for _ in range(self.pool_size):
            if index == -1:
                break
            result.append(self._address[index])
            index = self._next[index]
        return result


class ChampSimRas(BaseRas):
    """Port of ChampSim's ``return_stack`` (``btb/basic_btb``).

    Cross-validation target: `repro.corpus.diffcheck` replays traces
    through this class and an independent straight-line transliteration
    of the C++ side by side. Three behaviours distinguish it from
    :class:`CircularRas`:

    * **bounded deque** — a push beyond capacity drops the *oldest*
      entry (``pop_front``) instead of wrapping over the newest;
    * **call sites, not return addresses** — the stack stores the call
      instruction's address, and a prediction adds the learned call
      instruction size;
    * **call-size trackers** — a direct-mapped table (indexed by the
      call site's low bits) learns each call's instruction size at
      return time, but only when the apparent size is plausible
      (``<= 10`` bytes, the largest x86 call encoding ChampSim
      accepts). Returns *below* their call site are counted (and, in
      ChampSim, warned about) as ``backwards_returns``.

    There is no repair state: like ``NONE``, wrong-path pushes and pops
    persist, so :meth:`checkpoint`/:meth:`restore` are no-ops. The
    native API (:meth:`push_call` / :meth:`prediction` /
    :meth:`calibrate_call_size`) mirrors the C++ exactly; the generic
    :class:`BaseRas` methods adapt it to engines that push return
    addresses and pop predictions.
    """

    #: ChampSim's ``num_call_size_trackers`` (a power of two).
    NUM_CALL_SIZE_TRACKERS = 1024
    #: Initial tracker value — ChampSim's x86 default call size, which
    #: is also this ISA's fixed instruction width.
    DEFAULT_CALL_SIZE = 4
    #: Largest apparent call size the calibration accepts, in bytes.
    MAX_CALL_SIZE = 10

    def __init__(self, entries: int,
                 num_call_size_trackers: int = NUM_CALL_SIZE_TRACKERS) -> None:
        if entries < 1:
            raise ConfigError("RAS needs at least one entry")
        if num_call_size_trackers < 1 or \
                num_call_size_trackers & (num_call_size_trackers - 1):
            raise ConfigError("num_call_size_trackers must be a power of two")
        super().__init__("ras[champsim]")
        self.entries = entries
        self._stack: List[int] = []
        self._trackers: List[int] = (
            [self.DEFAULT_CALL_SIZE] * num_call_size_trackers)
        self._mask = num_call_size_trackers - 1
        self._backwards = self.stats.counter("backwards_returns")

    # -- native ChampSim API ---------------------------------------------
    def prediction(self) -> Optional[int]:
        """Predicted return target: top call site + its learned size.

        ``None`` when the stack is empty (the C++ returns the null
        address, which likewise never matches a real target).
        """
        if not self._stack:
            return None
        target = self._stack[-1]
        return target + self._trackers[target & self._mask]

    def push_call(self, ip: int) -> None:
        """Record a call instruction's address (C++ ``push``)."""
        self._pushes.value += 1
        self._stack.append(ip)
        if len(self._stack) > self.entries:
            del self._stack[0]  # deque pop_front: drop the oldest
            self._overflows.value += 1

    def calibrate_call_size(self, branch_target: int) -> None:
        """Consume the top call at return time and learn its size.

        Mirrors the C++ exactly: an empty stack does nothing (counted
        here as an underflow for diagnostics); a return landing below
        its call site bumps the backwards counter; the absolute
        call-to-target distance updates the tracker only when it fits a
        plausible call encoding (``<= MAX_CALL_SIZE``).
        """
        if not self._stack:
            self._underflows.value += 1
            return
        self._pops.value += 1
        call_ip = self._stack.pop()
        if call_ip > branch_target:
            self._backwards.value += 1
            size = call_ip - branch_target
        else:
            size = branch_target - call_ip
        if size <= self.MAX_CALL_SIZE:
            self._trackers[call_ip & self._mask] = size

    # -- BaseRas interface -----------------------------------------------
    def push(self, address: int) -> None:
        # Generic engines push the fall-through return address
        # (call + WORD_SIZE); recover the call site it implies.
        self.push_call(address - WORD_SIZE)

    def pop(self) -> Optional[int]:
        # Predict-time pop: the resolved target is not known yet, so no
        # calibration happens (retire_return does calibrate).
        self._pops.value += 1
        if not self._stack:
            self._underflows.value += 1
            return None
        value = self.prediction()
        self._stack.pop()
        return value

    def retire_return(self, target: int) -> Optional[int]:
        # ChampSim at commit: predict, then learn the call size from the
        # resolved target (which also consumes the top call site).
        predicted = self.prediction()
        self.calibrate_call_size(target)
        return predicted

    def top(self) -> Optional[int]:
        return self.prediction()

    def checkpoint(self) -> Optional[Checkpoint]:
        return None  # no repair: nothing to save, like NONE

    def restore(self, token: Optional[Checkpoint]) -> None:
        if token is None:
            return

    def clone(self) -> "ChampSimRas":
        twin = ChampSimRas(self.entries, self._mask + 1)
        twin._stack = list(self._stack)
        twin._trackers = list(self._trackers)
        return twin

    def logical_entries(self) -> List[int]:
        # Top-first *predicted return addresses*, the closest analogue
        # of what the other organisations report.
        mask = self._mask
        trackers = self._trackers
        return [ip + trackers[ip & mask] for ip in reversed(self._stack)]

    @property
    def depth(self) -> int:
        return len(self._stack)

    @property
    def call_size_trackers(self) -> List[int]:
        """The tracker table (tests and diagnostics only)."""
        return list(self._trackers)

    @property
    def backwards_returns(self) -> int:
        return self._backwards.value


def make_ras(entries: int, repair: RepairMechanism,
             self_checkpoint_overprovision: int = 4,
             contents_depth: int = 1) -> BaseRas:
    """Build the stack organisation implied by ``repair``."""
    if repair is RepairMechanism.SELF_CHECKPOINT:
        return LinkedRas(entries, self_checkpoint_overprovision)
    if repair is RepairMechanism.CHAMPSIM:
        return ChampSimRas(entries)
    return CircularRas(entries, repair, contents_depth)
