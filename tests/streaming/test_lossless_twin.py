"""Control loss alone costs a bounded factor of receipt.

Every ``gauntlet/*`` artefact cell is run twice, observers off: as
pinned, and as its lossless twin with ``control_loss`` removed.  Losing
control messages may make a protocol re-send data, but never more than
``BOUND`` times what the same run receives without that loss, and it
never changes what is delivered.
"""

import pytest

from tests.obs.test_artefact_pins import CELLS

#: the closest cell today is gauntlet/tcop at 1.42
BOUND = 1.5

GAUNTLET = [cell for cell in sorted(CELLS) if cell.startswith("gauntlet/")]


@pytest.mark.parametrize("cell", GAUNTLET)
def test_control_loss_costs_a_bounded_factor(cell):
    spec = CELLS[cell]().replace(trace=None, audit=None, spans=None)
    lossy = spec.run()
    lossless = spec.replace(control_loss=None).run()
    assert lossy.delivery_ratio == lossless.delivery_ratio
    assert lossy.receipt_rate <= BOUND * lossless.receipt_rate
