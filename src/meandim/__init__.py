"""Minimal subshift construction lab over lattice-group tilings.

Builds nested single-shape tiling schedules, runs a hierarchical word
construction with exact star-density control, evaluates the limit
configuration lazily on arbitrary windows, and verifies every finitely
checkable property (partition, congruence, density sandwiches, free-set
nesting, dimension-bound brackets, recurrence).
"""

from .construction import (
    BuildParams,
    Construction,
    HASH,
    MaterializedWords,
    STAR,
    render_value,
)
from .cube import Net, Polyhedron, make_net, net_schedule, verify_dense
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
from .groups import Box, FiniteSubset, GROUPS, Z, Z2, boundary, covers_window, is_invariant
from .schedules import AxisRule, TilingSchedule, generate_interval_schedule
from .tilings import (
    CheckResult,
    ExplicitTiling,
    GridTiling,
    check_irreducibility_witness,
    factor_window,
    read_tiling,
    tiling_configuration,
    verify_congruent,
    verify_partition,
    verify_primely_congruent,
    verify_syndetic_centers,
    write_tiling,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
