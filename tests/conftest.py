import math
import os
from pathlib import Path

import pytest

from lacg.instances import Instance
from lacg.neighbors import build_la_neighbors, augment_ng

# pytest's `pythonpath` setting reaches this process only; tests that start
# `python -m lacg` in a child process find the checkout through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


@pytest.fixture
def clock():
    """Twelve unit-demand customers at the positions of an analog clock,
    depot at the center.  With k=4 the la neighbors of u are the +-1 and +-2
    positions around the dial."""
    coords = {-1: (0.0, 0.0), -2: (0.0, 0.0)}
    for k in range(1, 13):
        ang = math.pi / 2 - k * math.pi / 6
        coords[k] = (100.0 * math.cos(ang), 100.0 * math.sin(ang))
    inst = Instance(
        name="clock", coords=coords, demand={u: 1 for u in range(1, 13)},
        capacity=12, fleet=12,
    )
    return inst


@pytest.fixture
def clock_sets(clock):
    """Clock neighbor sets with ng == la == the +-2 ring."""
    sets = build_la_neighbors(clock, 4)
    for u in clock.customers:
        for v in sets.la(u):
            augment_ng(sets, u, v)
    return sets
