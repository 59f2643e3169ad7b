"""Message envelope carried by overlay channels."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(slots=True)
class Message:
    """One unit of overlay traffic.

    ``kind`` is a short string discriminator (``"request"``, ``"control"``,
    ``"confirm"``, ``"start"``, ``"packet"``, …); the traffic statistics are
    broken down by it.  ``body`` is an arbitrary payload object (a control
    packet dataclass or a media packet).
    """

    src: str
    dst: str
    kind: str
    body: Any = None
    size_bytes: int = 64
    #: set by the reliable control plane: receivers ack this id, and
    #: retransmitted copies reuse it so duplicates can be suppressed
    msg_id: Optional[int] = None
    #: overlay-stamped wire id, unique per physical send; link-level
    #: duplicates share it, so receivers can deduplicate unreliable
    #: control traffic (``msg_id`` stays None without a control plane)
    uid: Optional[int] = field(default=None, compare=False)
    #: stamped on a media batch as it leaves (its packets' offsets count
    #: from here)
    sent_at: float = field(default=-1.0, compare=False)
    #: coordination context tag (the leaf id of the session this message
    #: belongs to).  Swarm runs share one physical node per contents peer
    #: across many leaf sessions; the hub routes deliveries to the right
    #: per-leaf agent by this tag.  None outside swarm mode.
    ctx: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        if not self.kind:
            raise ValueError("kind must be non-empty")
