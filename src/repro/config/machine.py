"""Dataclasses describing the simulated machine.

Sizes and widths default to the paper's Table 1 baseline (see
:func:`repro.config.defaults.baseline_config`). Every config validates
itself on construction so misconfigured experiments fail fast.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional

from repro.config.options import RepairMechanism, StackOrganization
from repro.errors import ConfigError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _plain(value: object) -> object:
    """JSON-ready view of a config value, without copying leaves:
    dataclasses become dicts of their fields, enums their ``.value``."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    return value


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical_json(config: object) -> str:
    """Canonical JSON of one frozen sub-config, kept in its ``__dict__``
    (per instance, like :meth:`MachineConfig.fingerprint`'s digest)."""
    text = config.__dict__.get("_canonical_json")
    if text is None:
        text = _CANONICAL.encode(_plain(config))
        object.__setattr__(config, "_canonical_json", text)
    return text


@dataclass(frozen=True)
class BranchPredictorConfig:
    """McFarling hybrid + decoupled BTB + return-address stack.

    The hybrid combines a GAg global-history component with a PAg
    local-history component; a selector of 2-bit counters indexed by
    global history chooses between them, as in the paper's Section 3.
    """

    #: Direction-predictor family: "hybrid" (the paper's baseline),
    #: "gshare", "bimodal", "gag" or "pag". Non-hybrid kinds exist for
    #: the corruption-pressure ablation (A7).
    direction_kind: str = "hybrid"
    #: Entries in the GAg global-history pattern table (4K in the paper).
    #: Also the table size for the single-component alternatives.
    gag_entries: int = 4096
    #: Rows in the PAg per-branch history table (1K in the paper).
    pag_history_entries: int = 1024
    #: Local history bits per PAg row (10 in the paper).
    pag_history_bits: int = 10
    #: Entries in the selector's 2-bit-counter table (4K in the paper).
    selector_entries: int = 4096
    #: BTB geometry: sets x associativity (decoupled, taken-branches only).
    btb_sets: int = 512
    btb_assoc: int = 4
    #: Return-address-stack depth (32 in the 21264-like baseline).
    ras_entries: int = 32
    #: Repair mechanism under evaluation.
    ras_repair: RepairMechanism = RepairMechanism.TOS_POINTER_AND_CONTENTS
    #: For TOS_POINTER_AND_CONTENTS: how many top entries to save per
    #: checkpoint (1 = the paper's proposal; ras_entries = equivalent
    #: to full-stack checkpointing).
    repair_contents_depth: int = 1
    #: Whether the RAS exists at all; False gives the BTB-only baseline
    #: of the paper's Table 4.
    ras_enabled: bool = True
    #: Maximum number of in-flight checkpoints (shadow-state slots).
    #: ``None`` models unlimited slots; the R10000 provides 4, the 21264
    #: about 20. When slots run out, further branches carry no checkpoint
    #: (so mispredictions on them cannot repair the stack).
    shadow_checkpoint_slots: Optional[int] = None
    #: Extra physical entries for the self-checkpointing variant; the
    #: Jourdan-style scheme needs more entries than logical depth because
    #: it preserves popped entries. Multiplier over ``ras_entries``.
    self_checkpoint_overprovision: int = 4

    def __post_init__(self) -> None:
        _require(
            self.direction_kind in ("hybrid", "gshare", "bimodal", "gag", "pag"),
            f"unknown direction_kind {self.direction_kind!r}",
        )
        _require(_is_power_of_two(self.gag_entries), "gag_entries must be a power of two")
        _require(
            _is_power_of_two(self.pag_history_entries),
            "pag_history_entries must be a power of two",
        )
        _require(
            0 < self.pag_history_bits <= 16,
            "pag_history_bits must be in (0, 16]",
        )
        _require(
            _is_power_of_two(self.selector_entries),
            "selector_entries must be a power of two",
        )
        _require(_is_power_of_two(self.btb_sets), "btb_sets must be a power of two")
        _require(self.btb_assoc >= 1, "btb_assoc must be >= 1")
        _require(self.ras_entries >= 1, "ras_entries must be >= 1")
        _require(
            1 <= self.repair_contents_depth <= self.ras_entries,
            "repair_contents_depth must be in [1, ras_entries]",
        )
        if self.shadow_checkpoint_slots is not None:
            _require(
                self.shadow_checkpoint_slots >= 0,
                "shadow_checkpoint_slots must be >= 0",
            )
        _require(
            self.self_checkpoint_overprovision >= 1,
            "self_checkpoint_overprovision must be >= 1",
        )


@dataclass(frozen=True)
class CacheConfig:
    """One set-associative cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int

    def __post_init__(self) -> None:
        _require(_is_power_of_two(self.line_bytes), "line_bytes must be a power of two")
        _require(self.assoc >= 1, "assoc must be >= 1")
        _require(self.size_bytes % (self.line_bytes * self.assoc) == 0,
                 f"{self.name}: size must be a multiple of line_bytes * assoc")
        _require(_is_power_of_two(self.num_sets), f"{self.name}: set count must be a power of two")
        _require(self.hit_latency >= 1, "hit_latency must be >= 1")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)


@dataclass(frozen=True)
class MemoryHierarchyConfig:
    """Two-level cache hierarchy plus main memory."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("l1i", 64 * 1024, 2, 64, 1)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("l1d", 64 * 1024, 2, 64, 3)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("l2", 2 * 1024 * 1024, 4, 64, 12)
    )
    memory_latency: int = 80

    def __post_init__(self) -> None:
        _require(self.memory_latency >= 1, "memory_latency must be >= 1")


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core geometry (RUU/LSQ model, Section 3 of the paper)."""

    fetch_width: int = 4
    decode_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    #: Fetch-to-decode instruction queue depth.
    ifq_size: int = 16
    #: Register update unit (unified active list / issue queue / rename).
    ruu_size: int = 64
    #: Load-store queue.
    lsq_size: int = 32
    int_alus: int = 4
    int_multipliers: int = 1
    memory_ports: int = 2
    #: Extra front-end pipeline stages between fetch redirect and the
    #: first useful fetch (models decode/rename depth of the real
    #: machine; contributes to the misprediction penalty).
    frontend_depth: int = 3

    def __post_init__(self) -> None:
        for name in ("fetch_width", "decode_width", "issue_width", "commit_width"):
            _require(getattr(self, name) >= 1, f"{name} must be >= 1")
        _require(self.ifq_size >= self.fetch_width, "ifq_size must be >= fetch_width")
        _require(self.ruu_size >= 2, "ruu_size must be >= 2")
        _require(self.lsq_size >= 1, "lsq_size must be >= 1")
        _require(self.int_alus >= 1, "int_alus must be >= 1")
        _require(self.int_multipliers >= 1, "int_multipliers must be >= 1")
        _require(self.memory_ports >= 1, "memory_ports must be >= 1")
        _require(self.frontend_depth >= 0, "frontend_depth must be >= 0")


@dataclass(frozen=True)
class MultipathConfig:
    """Multipath-execution parameters (Section 5 of the paper)."""

    #: Maximum simultaneous path contexts (1 = conventional single path).
    max_paths: int = 1
    #: Stack organisation shared/per-path choice.
    stack_organization: StackOrganization = StackOrganization.PER_PATH
    #: JRS confidence-estimator table entries.
    confidence_entries: int = 1024
    #: A conditional branch forks when its confidence counter is below
    #: this threshold (low confidence => likely misprediction => fork).
    confidence_threshold: int = 4
    #: Saturating ceiling of the confidence (miss distance) counters.
    confidence_max: int = 15

    def __post_init__(self) -> None:
        _require(self.max_paths >= 1, "max_paths must be >= 1")
        _require(
            _is_power_of_two(self.confidence_entries),
            "confidence_entries must be a power of two",
        )
        _require(
            0 <= self.confidence_threshold <= self.confidence_max,
            "confidence_threshold must be within [0, confidence_max]",
        )


@dataclass(frozen=True)
class MachineConfig:
    """Complete simulated-machine description."""

    core: CoreConfig = field(default_factory=CoreConfig)
    predictor: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    memory: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)
    multipath: MultipathConfig = field(default_factory=MultipathConfig)

    def fingerprint(self) -> str:
        """Stable content hash of the complete configuration.

        The digest is a SHA-256 over the canonical JSON encoding of every
        field (across core, predictor, memory, and multipath), so it
        depends on field values, not on how the config was constructed;
        enums are reduced to their stable ``.value`` strings, never to
        ``repr`` or identity. Because the encoding is JSON, values that
        compare equal can still fingerprint differently: ``4`` and
        ``4.0``, or ``True`` and ``1``. The experiment result cache and
        the run ledger key on this digest.

        The config is frozen, so the digest is computed once per
        instance and kept in the instance's ``__dict__``, outside the
        dataclass fields, where ``==``, ``hash``, ``repr`` and ``asdict``
        never see it. The payload is assembled from one canonical-JSON
        fragment per sub-config, each kept on its sub-config the same
        way, so a ``with_*`` copy encodes only the part it replaced. No
        memo is keyed on a config's value: two equal configs may hold
        different digests, and a value memo would hand each the digest
        of whichever was fingerprinted first.
        """
        digest = self.__dict__.get("_fingerprint")
        if digest is None:
            # the bytes of json.dumps(_plain(self), sort_keys=True,
            # separators=(",", ":")), one memoised fragment per field
            payload = "{" + ",".join(
                f'"{name}":{_canonical_json(getattr(self, name))}'
                for name in _MACHINE_FIELDS) + "}"
            digest = hashlib.sha256(payload.encode()).hexdigest()
            object.__setattr__(self, "_fingerprint", digest)
        return digest

    def with_repair(self, mechanism: RepairMechanism) -> "MachineConfig":
        """Return a copy of this config using ``mechanism`` for RAS repair."""
        return replace(self, predictor=replace(self.predictor, ras_repair=mechanism))

    def with_ras_entries(self, entries: int) -> "MachineConfig":
        """Return a copy of this config with a ``entries``-deep RAS."""
        return replace(self, predictor=replace(self.predictor, ras_entries=entries))

    def with_contents_depth(self, depth: int) -> "MachineConfig":
        """Return a pointer+contents config saving the top ``depth``
        entries per checkpoint (the paper's 'arbitrary number' remark)."""
        return replace(
            self,
            predictor=replace(
                self.predictor,
                ras_repair=RepairMechanism.TOS_POINTER_AND_CONTENTS,
                repair_contents_depth=depth,
            ),
        )

    def without_ras(self) -> "MachineConfig":
        """Return the BTB-only baseline (Table 4)."""
        return replace(self, predictor=replace(self.predictor, ras_enabled=False))

    def with_multipath(
        self,
        max_paths: int,
        stack_organization: StackOrganization,
    ) -> "MachineConfig":
        """Return a copy configured for multipath execution."""
        return replace(
            self,
            multipath=replace(
                self.multipath,
                max_paths=max_paths,
                stack_organization=stack_organization,
            ),
        )


#: ``MachineConfig``'s field names in the order ``sort_keys`` puts them.
_MACHINE_FIELDS = tuple(sorted(f.name for f in fields(MachineConfig)))
