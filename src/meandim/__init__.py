"""Minimal subshift construction lab over lattice-group tilings.

Builds nested single-shape tiling schedules, runs a hierarchical word
construction with exact star-density control, evaluates the limit
configuration lazily on arbitrary windows, and verifies every finitely
checkable property (partition, density sandwiches, free-set nesting,
dimension-bound brackets, recurrence).

The package re-exports the engine, which the ``meandim`` command runs; the
test oracles live in ``meandim.oracles``, which no engine module imports.
"""

from .construction import (
    BuildParams,
    Construction,
    HASH,
    STAR,
    render_value,
)
from .cube import Net, Polyhedron, make_net, net_schedule
from .errors import (
    CapacityError,
    ConfigError,
    DecodeError,
    DepthError,
    GroupMismatchError,
    MeandimError,
    NotRealizedError,
    OutOfSupportError,
    ScheduleError,
    SizeGuardError,
)
from .groups import Box, FiniteSubset, GROUPS, Z, Z2
from .schedules import AxisRule, TilingSchedule
from .tilings import (
    CheckResult,
    ExplicitTiling,
    GridTiling,
    read_tiling,
    verify_partition,
    write_tiling,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
