"""Single-source streaming — the traditional model §2 argues against.

One contents peer serves the entire content at the content rate.  The peer
is a single point of failure and a bandwidth bottleneck; the fault-
tolerance ablation bench crashes it mid-stream to quantify exactly that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.base import CoordinationProtocol, divide_evenly

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession


class SingleSourceStreaming(CoordinationProtocol):
    """One peer, the whole content, no parity, no coordination.

    ``server_id`` pins the serving peer (a real content provider is a fixed
    host — every leaf hits the same server, which is exactly the §2
    bottleneck argument the multi-leaf ablation measures); ``None`` lets
    the leaf pick a random peer.
    """

    name = "SingleSource"

    def __init__(self, server_id: str | None = None) -> None:
        self.server_id = server_id

    def first_wave(self, session: "StreamingSession"):
        server = (
            self.server_id
            if self.server_id is not None
            else session.leaf_select(1)[0]
        )
        if server not in session.peers:
            raise ValueError(f"unknown server {server!r}")
        session.expected_active = {server}
        whole = divide_evenly(
            session.content.packet_sequence(), session.config.tau, 1, 0
        )
        return [server], whole.assignments, frozenset((server,))
