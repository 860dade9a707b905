"""Central composite designs: estimation/prediction criteria and their
degradation under missing observations."""

from .design import (
    Design,
    PointClass,
    canonical_probe_points,
    design_to_csv,
    gen_ccd,
)
from .model import model_matrix, num_params
from .linalg import SingularMatrixError
from .criteria import (
    CriteriaReport,
    Region,
    RegionShape,
    a_trace,
    criteria_report,
    g_max,
    region_moments,
    rotatability_index,
    v_avg,
)
from .missing import (
    LossReport,
    delete_rows,
    increase_in_variance,
    loss_precision,
    relative_g_efficiency,
    relative_v_efficiency,
    scenario_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Design", "PointClass", "gen_ccd",
    "canonical_probe_points", "design_to_csv",
    "model_matrix", "num_params",
    "SingularMatrixError",
    "CriteriaReport", "Region", "RegionShape", "a_trace", "criteria_report",
    "g_max", "region_moments", "rotatability_index", "v_avg",
    "LossReport", "delete_rows", "increase_in_variance",
    "loss_precision", "relative_g_efficiency", "relative_v_efficiency",
    "scenario_sweep",
]
