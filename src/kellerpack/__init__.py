"""Keller packings of boxes: partition systems, the c-statistic,
multipiles, the hat embedding, and exhaustive cube-tiling censuses of
discrete tori."""

from .boxes import (
    BlockRef,
    Box,
    BoxFamily,
    CStats,
    PartitionStatus,
    PointSet,
    TheoremBReport,
    c_stats,
    classify_partition,
    elementary_aggregate,
    is_keller_family,
    is_pile,
    keller_pair,
    line_partition_check,
    pile_rewrite,
    realize,
    realize_box,
    restrict,
    restrict_to_partition,
    theorem_b_report,
)
from .census import (
    ALL_SYMMETRIES,
    CensusRow,
    canonical_form,
    census,
    enumerate_all_tilings,
    enumerate_tilings,
    orbit,
)
from .hats import (
    BoxCountReport,
    hat_measure,
    hats_disjoint,
    suit_swap_check,
    suits_equivalent,
    verify_box_count,
)
from .multipiles import (
    Leaf,
    MultipileResult,
    MultipileTree,
    Node,
    build_multipile,
    extremal_p_value,
    is_multipile,
)
from .partitions import (
    Partition,
    PartitionSystem,
    arc_system,
    arc_system_mixed,
    binary_system,
    check_c_forte,
    independent,
    join,
    make_partition,
    trivial_partition,
)
from .torus import (
    PParams,
    TheoremCReport,
    TorusSpec,
    TorusTiling,
    cube_cells,
    extremal_recipe,
    find_defect,
    require_valid,
    laminated_construction,
    p_params,
    theorem_c_report,
    tiling_system,
    to_box_family,
    validate_tiling,
)

__version__ = "0.1.0"
