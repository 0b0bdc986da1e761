"""The Table 1 baseline configuration and its printable form."""

from __future__ import annotations

from typing import List, Tuple

from repro.config.machine import MachineConfig

_BASELINE = MachineConfig()


def baseline_config() -> MachineConfig:
    """Return the paper's Table 1 baseline machine.

    4-wide out-of-order core loosely modelled on an Alpha 21264: 64-entry
    RUU, 32-entry LSQ, McFarling hybrid direction predictor (4K GAg + 1K
    by 10-bit PAg + 4K selector), decoupled 512x4 BTB, 32-entry RAS, and
    a two-level cache hierarchy.

    Every call returns the same instance. The config and its parts are
    frozen, and their fingerprint memos sit outside the fields, so the
    sharing is invisible except that configs derived from it reuse its
    sub-configs' encodings (:meth:`MachineConfig.fingerprint`).
    """
    return _BASELINE


def table1_rows(config: MachineConfig) -> List[Tuple[str, str]]:
    """Render ``config`` as the (parameter, value) rows of Table 1."""
    core = config.core
    pred = config.predictor
    mem = config.memory
    rows = [
        ("fetch/decode/issue/commit width",
         f"{core.fetch_width}/{core.decode_width}/{core.issue_width}/{core.commit_width}"),
        ("instruction fetch queue", f"{core.ifq_size} entries"),
        ("register update unit (RUU)", f"{core.ruu_size} entries"),
        ("load-store queue", f"{core.lsq_size} entries"),
        ("integer ALUs / multipliers", f"{core.int_alus} / {core.int_multipliers}"),
        ("memory ports", str(core.memory_ports)),
        ("front-end depth past fetch", f"{core.frontend_depth} stages"),
        ("direction predictor",
         f"hybrid: {pred.gag_entries}-entry GAg + "
         f"{pred.pag_history_entries}x{pred.pag_history_bits} PAg, "
         f"{pred.selector_entries}-entry selector"),
        ("BTB", f"{pred.btb_sets} sets x {pred.btb_assoc}-way, decoupled (taken only)"),
        ("return-address stack",
         f"{pred.ras_entries} entries, repair={pred.ras_repair}"
         if pred.ras_enabled else "disabled (BTB-only returns)"),
        ("L1 I-cache",
         f"{mem.l1i.size_bytes // 1024}KB {mem.l1i.assoc}-way, "
         f"{mem.l1i.line_bytes}B lines, {mem.l1i.hit_latency}-cycle"),
        ("L1 D-cache",
         f"{mem.l1d.size_bytes // 1024}KB {mem.l1d.assoc}-way, "
         f"{mem.l1d.line_bytes}B lines, {mem.l1d.hit_latency}-cycle"),
        ("L2 cache",
         f"{mem.l2.size_bytes // 1024}KB {mem.l2.assoc}-way, "
         f"{mem.l2.line_bytes}B lines, {mem.l2.hit_latency}-cycle"),
        ("memory latency", f"{mem.memory_latency} cycles"),
    ]
    if config.multipath.max_paths > 1:
        rows.append(
            ("multipath",
             f"{config.multipath.max_paths} paths, "
             f"stacks={config.multipath.stack_organization}")
        )
    return rows
