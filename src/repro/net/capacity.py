"""Per-peer upload capacity: finite budgets, backpressure, and shedding.

The seed model let every contents peer transmit at whatever rate its
assignments asked for — an infinite-uplink assumption that holds for the
paper's single-leaf runs but collapses under a flash crowd of leaves
served from one shared pool.  This module replaces it with an explicit
**upload budget** per physical peer:

* a :class:`CapacityPolicy` grants each peer ``packets_per_delta`` media
  sends per δ-window (or its own rate from ``per_peer``), shared across
  *all* sessions the peer serves — the one statement of a peer's uplink,
  which a weighted division (:mod:`repro.core.base`) reads as well;
* an :class:`UploadBudget` enforces it with a windowed ledger — a send
  that does not fit the current window is **queued** (backpressure: the
  transmit loop sleeps until the first window with a free slot) and a
  send whose queue would grow past ``queue_limit`` packets is **shed**;
* shedding is priority-aware: parity packets shed first (at
  :data:`PARITY_QUEUE_FRACTION` of the limit), data packets only when the
  queue is truly full — the graceful-degradation order (§4's fault
  margins exist precisely so parity can be sacrificed).

The ledger admits at most ``per_window`` sends into any aligned window:
``packets_per_delta × window_deltas`` rounded to a whole number of at
least one, which is exactly the invariant the ``capacity`` auditor
(:mod:`repro.obs.audit`) checks from ``media.tx`` timestamps.  Everything
here is deterministic (no RNG draws) and publishes ``capacity.*`` trace
events through the environment's zero-overhead tracer hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

#: guards window arithmetic against float round-off at window boundaries
#: (a queued send scheduled *at* a boundary must land in that window);
#: applied to the window quotient, so it scales with the window width.
#: The capacity auditor uses the same epsilon when re-deriving windows
#: from ``media.tx`` timestamps.
WINDOW_EPS = 1e-6
#: fraction of ``queue_limit`` beyond which parity packets shed
PARITY_QUEUE_FRACTION = 0.5


@dataclass(frozen=True)
class CapacityPolicy:
    """Finite upload budgets for the contents peers (picklable knobs).

    ``packets_per_delta`` is a peer's media-send budget per δ accounting
    window, and ``per_peer`` states a different one for the peers it
    names; ``queue_limit`` bounds the backpressure queue in packets
    before data sheds; parity sheds earlier, at
    :data:`PARITY_QUEUE_FRACTION` of the limit, so margin packets absorb the
    first wave of contention and data survives longest.
    """

    packets_per_delta: float
    queue_limit: int = 64
    #: accounting window in δ units (1.0 = the paper's slot width)
    window_deltas: float = 1.0
    #: peer id -> its packets per δ, in place of ``packets_per_delta``
    per_peer: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_peer", dict(self.per_peer))
        if self.packets_per_delta <= 0 or any(
            rate <= 0 for rate in self.per_peer.values()
        ):
            raise ValueError("packets_per_delta must be positive")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.window_deltas <= 0:
            raise ValueError("window_deltas must be positive")

    def budgets(
        self, peer_ids: Sequence[str], delta: float, env: "Environment"
    ) -> dict[str, "UploadBudget"]:
        """One budget per physical peer of a run over ``peer_ids``; a
        ``per_peer`` entry the run has no peer for is refused."""
        unknown = sorted(set(self.per_peer) - set(peer_ids))
        if unknown:
            raise ValueError(
                f"upload capacity names unknown peer {unknown[0]!r} "
                f"(run has {len(peer_ids)} peers: CP1..CP{len(peer_ids)})"
            )
        return {pid: UploadBudget(pid, self, delta, env) for pid in peer_ids}


class UploadBudget:
    """Windowed upload ledger for one physical peer.

    The ledger tracks the *landing window* of the next send: reserving a
    slot books the earliest aligned window with spare budget.  A send
    landing in the current window goes out immediately; one landing in a
    future window waits (``reserve`` returns the sleep), and one whose
    backlog exceeds the policy's queue limit is shed (``reserve``
    returns ``None``).  The budget is shared by every transmit loop of
    the peer — across streams *and* across leaf sessions in a swarm —
    so aggregate uplink never exceeds ``per_window`` per window.
    """

    def __init__(
        self,
        peer_id: str,
        policy: CapacityPolicy,
        delta: float,
        env: "Environment",
    ) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.peer_id = peer_id
        self.policy = policy
        self.env = env
        #: window width in ms
        self.window_ms = policy.window_deltas * delta
        rate = policy.per_peer.get(peer_id, policy.packets_per_delta)
        #: integral per-window send budget (at least one packet fits)
        self.per_window = max(1, int(round(rate * policy.window_deltas)))
        #: equivalent sustained rate, packets/ms (admission accounting and
        #: the weights of a weighted division)
        self.rate_per_ms = self.per_window / self.window_ms
        # ledger: slots used in the landing window ``_win``
        self._win = 0
        self._used = 0
        # counters
        self.sends = 0
        self.queued_sends = 0
        self.shed_data = 0
        self.shed_parity = 0
        self.peak_backlog = 0
        tracer = env.hooks.tracer
        if tracer is not None:
            tracer.emit(
                "capacity.budget",
                peer_id,
                per_window=self.per_window,
                window_ms=self.window_ms,
                queue_limit=policy.queue_limit,
            )

    # ------------------------------------------------------------------
    def _window_of(self, now: float) -> int:
        return int(now / self.window_ms + WINDOW_EPS)

    def _sync(self, now: float) -> int:
        """Advance the ledger to ``now``; returns the current window."""
        cur = self._window_of(now)
        if self._win < cur:
            self._win = cur
            self._used = 0
        return cur

    def backlog(self, now: float) -> int:
        """Packets booked into windows after the current one.

        The health monitor consults this: a peer starving the leaf
        *because its uplink queue is full* is backpressured, not gray —
        quarantining it would punish the overload victim.
        """
        cur = self._window_of(now)
        if self._win <= cur:
            return 0
        return (self._win - cur - 1) * self.per_window + self._used

    # ------------------------------------------------------------------
    # per-packet path (unbatched transmit loops)
    # ------------------------------------------------------------------
    def reserve(self, now: float, parity: bool = False) -> Optional[float]:
        """Book one send slot; returns the wait in ms, or None = shed.

        A zero wait means the current window still has budget — send
        now.  A positive wait is backpressure: the caller sleeps until
        the landing window opens.  ``None`` means the queue limit (or
        the parity fraction of it) was exceeded and the packet must be
        dropped at the uplink; the shed is counted and traced, and the
        ledger is left untouched.
        """
        cur = self._sync(now)
        land_win, land_used = self._win, self._used
        if land_used >= self.per_window:
            land_win += 1
            land_used = 0
        if land_win == cur:
            self._used = land_used + 1
            self.sends += 1
            return 0.0
        queued = (land_win - cur - 1) * self.per_window + land_used + 1
        limit = self.policy.queue_limit
        if parity:
            limit = max(1, int(limit * PARITY_QUEUE_FRACTION))
        if queued > limit:
            if parity:
                self.shed_parity += 1
            else:
                self.shed_data += 1
            tracer = self.env.hooks.tracer
            if tracer is not None:
                tracer.emit(
                    "capacity.shed",
                    self.peer_id,
                    parity=parity,
                    queued=queued,
                    limit=limit,
                )
            return None
        self._win, self._used = land_win, land_used + 1
        self.sends += 1
        self.queued_sends += 1
        if queued > self.peak_backlog:
            self.peak_backlog = queued
        wait = land_win * self.window_ms - now
        tracer = self.env.hooks.tracer
        if tracer is not None:
            tracer.emit(
                "capacity.queue",
                self.peer_id,
                depth=queued,
                wait=wait,
                parity=parity,
            )
        return max(0.0, wait)

    # ------------------------------------------------------------------
    # batch path (batched transmit loops)
    # ------------------------------------------------------------------
    def take(self, now: float, k: int) -> int:
        """Claim up to ``k`` slots in the *current* window; returns the
        claim (possibly 0).  The batched media plane never queues into
        future windows — it shrinks the batch to the window's remaining
        budget and sleeps to the next window when none remains, which is
        pure backpressure with no shedding."""
        if k <= 0:
            return 0
        cur = self._sync(now)
        if self._win > cur:
            return 0
        allowed = min(k, self.per_window - self._used)
        if allowed <= 0:
            return 0
        self._used += allowed
        self.sends += allowed
        return allowed

    def next_window_wait(self, now: float) -> float:
        """Time until the next aligned window opens (batch backpressure)."""
        cur = self._window_of(now)
        return max(0.0, (cur + 1) * self.window_ms - now)

    def __repr__(self) -> str:
        return (
            f"<UploadBudget {self.peer_id} {self.per_window}/window "
            f"sends={self.sends} queued={self.queued_sends} "
            f"shed={self.shed_data + self.shed_parity}>"
        )
