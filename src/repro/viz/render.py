"""ASCII rendering of a session's transmission tree (the paper's Fig. 9)."""

from __future__ import annotations

import io
from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession


def _children_map(session: "StreamingSession") -> Dict[str, List[str]]:
    """parent id → sorted child ids, from the agents' parent pointers.

    TCoP sets ``parent`` explicitly.  For protocols that do not (DCoP,
    baselines), a peer's parent is inferred as the sender of the control
    packet that first activated it when that is recorded; peers with no
    parent information hang directly under the leaf.
    """
    leaf_id = session.leaf.peer_id
    children: Dict[str, List[str]] = defaultdict(list)
    for pid in session.peer_ids:
        agent = session.peers[pid]
        if not agent.active:
            continue
        parent = agent.parent if agent.parent is not None else leaf_id
        children[parent].append(pid)
    for kids in children.values():
        kids.sort(key=lambda p: (session.peers[p].activated_at or 0.0, p))
    return children


def render_transmission_tree(
    session: "StreamingSession", max_depth: Optional[int] = None
) -> str:
    """Figure 9: the transmission tree rooted at the leaf peer.

    Each node shows the peer id, its activation round, and how many
    packets it transmitted.  Cycles cannot occur (parents activate before
    children), but the renderer guards against them anyway.
    """
    children = _children_map(session)
    leaf_id = session.leaf.peer_id
    out = io.StringIO()
    out.write(f"{leaf_id} (root)\n")
    seen: set[str] = set()

    def walk(pid: str, prefix: str, depth: int) -> None:
        kids = children.get(pid, [])
        for i, kid in enumerate(kids):
            if kid in seen:  # pragma: no cover - defensive
                continue
            seen.add(kid)
            agent = session.peers[kid]
            sent = sum(st.sent_count for st in agent.streams)
            last = i == len(kids) - 1
            branch = "`-- " if last else "|-- "
            out.write(
                f"{prefix}{branch}{kid} "
                f"[round {agent.activation_hops}, sent {sent}]\n"
            )
            if max_depth is None or depth + 1 < max_depth:
                walk(kid, prefix + ("    " if last else "|   "), depth + 1)

    walk(leaf_id, "", 0)
    dormant = [p for p in session.peer_ids if not session.peers[p].active]
    if dormant:
        out.write(f"(dormant: {', '.join(dormant)})\n")
    return out.getvalue()
