"""Path contexts: the per-path state a multipath processor must keep.

The paper lists exactly this inventory — PC, shadow register state,
and (its proposal) a return-address stack — noting that the stack is
"merely an additional element in the path context".
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.bpred.ras import BaseRas


class PathContext:
    """One concurrently executing path."""

    __slots__ = (
        "path_id", "parent", "origin_seq", "alive", "lost", "dead",
        "regs", "fetch_pc", "fetch_halted", "fetch_stalled_until",
        "last_fetch_line", "ifq", "ras", "last_writer",
        "dispatch_enabled", "alternate_target",
    )

    def __init__(
        self,
        path_id: int,
        fetch_pc: int,
        regs: Optional[List[int]],
        parent: Optional["PathContext"] = None,
        ras: Optional[BaseRas] = None,
    ) -> None:
        self.path_id = path_id
        self.parent = parent
        #: Sequence number of the branch this path was forked at
        #: (-1 for the root). Set when that branch dispatches.
        self.origin_seq = -1
        self.alive = True
        #: True once this path lost its fork (zombie: in-flight entries
        #: may remain and its *continuation subtree* may still be alive,
        #: but the path itself neither fetches nor dispatches).
        self.lost = False
        #: True once the whole subtree is squashed. A dead path is gone
        #: for good; a merely `lost` one still anchors live descendants.
        self.dead = False
        #: Per-path architectural register file. None until the forking
        #: branch dispatches (the snapshot point).
        self.regs = regs
        self.fetch_pc = fetch_pc
        self.fetch_halted = False
        self.fetch_stalled_until = 0
        self.last_fetch_line: Optional[int] = None
        self.ifq: Deque = deque()
        #: This path's return-address stack (None when the organisation
        #: is unified — paths then share the organizer's single stack).
        self.ras = ras
        #: reg -> youngest in-flight producer visible to this path.
        self.last_writer: Dict[int, object] = {}
        #: A forked child may fetch immediately but cannot dispatch
        #: until its register snapshot exists.
        self.dispatch_enabled = regs is not None
        #: The non-predicted target this path is exploring (fork child
        #: book-keeping; None for the root and for primary-side paths).
        self.alternate_target: Optional[int] = None

    # ------------------------------------------------------------------

    def can_see(self, other_path: "PathContext", seq: int) -> bool:
        """Is an instruction (on ``other_path``, at ``seq``) a program-
        order predecessor of this path's next instruction?

        Everything on the path itself is visible. On an ancestor A, an
        instruction is visible iff its seq is strictly below A's
        horizon: the smallest fork seq on the chain from this path up
        to (but excluding) A.
        """
        if other_path is self:
            return True
        horizon = self.origin_seq
        path = self.parent
        while path is not None:
            if path is other_path:
                return seq < horizon
            if path.origin_seq < horizon:
                horizon = path.origin_seq
            path = path.parent
        return False

    def is_descendant_of(self, other: "PathContext") -> bool:
        path: Optional[PathContext] = self
        while path is not None:
            if path is other:
                return True
            path = path.parent
        return False

    def __repr__(self) -> str:
        status = "alive" if self.alive else ("lost" if self.lost else "dead")
        return f"Path({self.path_id}, pc={self.fetch_pc}, {status})"
