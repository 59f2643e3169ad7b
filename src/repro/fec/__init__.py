"""XOR-parity forward error correction (§3.2).

The paper's reliability mechanism: a packet sequence is cut into *recovery
segments* of ``h`` packets (``h`` = *parity interval*); one XOR parity
packet per segment is inserted at a rotating offset, producing the
*enhanced* sequence ``[pkt]^h`` with ``(h+1)/h`` packets per original
packet.  The enhanced sequence is divided round-robin over ``H``
subsequences, one per transmitting contents peer, so the loss of any one
packet per segment — including an entire faulty peer when ``H`` and the
offsets disperse each segment over distinct peers — is recoverable at the
leaf.

Functions map one-to-one onto the paper's procedures:

* :func:`enhance` — ``Esq(pkt, h)``; :func:`shared_enhance` is the same
  value computed once per basis object, read by the parent and every
  child of a handoff;
* :func:`divide` — ``Div(pkt, H, i)``;
* :class:`ParityDecoder` — leaf-side recovery by XOR constraint propagation.

Note on insertion offsets: the paper's formal rule says the parity of the
``(d+1)``-th segment goes at offset ``d mod h``, but its own worked example
(Fig. 6, ``h = 2``) places parities at offsets 0, 1, 2, … — i.e.
``d mod (h+1)``.  We follow the worked example, which is also what makes the
round-robin division spread each segment's packets over distinct peers.
"""

from repro.fec.xor import xor_payloads
from repro.fec.enhance import enhance, recovery_segments, shared_enhance
from repro.fec.divide import divide
from repro.fec.decoder import ParityDecoder

__all__ = [
    "ParityDecoder",
    "divide",
    "enhance",
    "recovery_segments",
    "shared_enhance",
    "xor_payloads",
]
