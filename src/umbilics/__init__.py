"""Umbilic points, curvature fields, and lines of curvature on two convex
surface families (even-power superquadrics and quartically perturbed
ellipsoids of revolution), with a verification CLI."""

from .surface import (
    ChartId,
    ChartPoint,
    SurfaceSpec,
    chart_atlas,
    chart_to_ambient,
    implicit_gradient,
    implicit_value,
    load_spec,
)
from .forms import (
    CurvatureSummary,
    FundamentalForms,
    convexity_scan,
    curvature_summary,
    forms_closed,
    forms_numeric,
    principal_directions,
)
from .umbilic import (
    ThresholdReport,
    UmbilicRecord,
    closed_form_umbilics,
    critical_epsilon,
    find_umbilics,
    umbilic_residual,
)
from .flowlines import (
    CurveTrace,
    residual_log,
    trace_line,
)
from .index import (
    WindingResult,
    attach_indices,
    conjecture_sweep,
    poincare_hopf_check,
    umbilic_index,
)

__version__ = "0.1.0"
