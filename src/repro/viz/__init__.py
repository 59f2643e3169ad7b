"""Plain-text visualization of coordination runs.

* :func:`render_transmission_tree` — the paper's Figure 9: the tree of
  parent→child adoptions rooted at the leaf peer (exact for TCoP, where
  every peer has at most one parent; for DCoP the first-activating parent
  is shown).

A run's activation waves are :func:`repro.obs.wave_timeline` of its
trace, and its traffic by kind is ``SessionResult.messages_by_kind``.
"""

from repro.viz.render import render_transmission_tree

__all__ = ["render_transmission_tree"]
