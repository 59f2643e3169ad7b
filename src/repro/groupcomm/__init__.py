"""Group communication substrate — causally ordered broadcast (ref [10]).

The paper's §1 situates DCoP/TCoP against the *asynchronous multi-source
streaming* (AMS) models, in which "every contents peer is, possibly
periodically exchanging state information … with all the other contents
peers by using a simple type of group communication protocol [Nakamura &
Takizawa, ICDCS-14]".  This package provides that substrate:

* :class:`VectorClock` — per-member logical clocks (tick, merge), over a
  group fixed when the clock is made.
* :class:`CausalBroadcaster` — broadcast over the overlay with
  causal-order delivery (messages are buffered until every causal
  predecessor has been delivered), as jittered channels reorder freely.

:class:`repro.core.ams.AMSCoordination` builds the AMS baseline on top,
exhibiting the quadratic state-exchange traffic the paper's protocols
were designed to avoid.  The observers do not use the package: the
causal auditor (:mod:`repro.obs.audit`) checks send/receive pairing by
counting, and no vector clock is rebuilt from a trace.
"""

from repro.groupcomm.vector_clock import VectorClock
from repro.groupcomm.causal import CausalBroadcaster, CausalMessage

__all__ = [
    "CausalBroadcaster",
    "CausalMessage",
    "VectorClock",
]
