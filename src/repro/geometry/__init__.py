"""Geometry substrate: the 2-D free space hosts roam in.

* :mod:`repro.geometry.space` — bounded region with clamp/reflect/torus
  boundary policies,
* :mod:`repro.geometry.points` — vectorized placement and displacement.

Unit-disk neighbour search lives in :mod:`repro.graphs.unitdisk`
(:func:`~repro.graphs.unitdisk.unit_disk_edge_lists`).
"""

from repro.geometry.space import BoundaryPolicy, Region2D
from repro.geometry.points import (
    compass_unit_vectors,
    displace,
    random_points,
)

__all__ = [
    "BoundaryPolicy",
    "Region2D",
    "compass_unit_vectors",
    "displace",
    "random_points",
]
