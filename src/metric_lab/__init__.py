"""metric-lab: a desk-scale laboratory for finite metric geometry.

Finite metric spaces as distance matrices, exact and bounded
Gromov-Hausdorff distances, generators for slit carpets, snowflake curves,
distorted lines and model tangent spaces, free-group boundary dynamics, and
empirical quasisymmetric distortion.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AlphabetError, ConstructionError, DegenerateEnvelopeError, DomainError,
    InsufficientDepthError, MalformedMatrixError, MetricLabError, ResolutionError,
    ScheduleError,
)
from .metric_core import (
    TOL, AxiomViolation, FiniteMetricSpace, PointedWindow,
    epsilon_net, rescale,
    space_from_json, space_to_json, validate_metric, write_space,
)
from .gh_solver import (
    Correspondence, GhResult, correspondence_from_map, distortion_of_correspondence,
    gh_bounds, gh_distance, gh_exact_small, map_distortion, pointed_gh_bounds,
)
from .fractal_gen import (
    MODEL_KINDS, FlatSnowflakeGenerator, SlitCarpetGenerator, SlitPlanePoint,
    SlitSchedule, WuSchedule, default_wu_schedule, make_generator,
    model_tangent_space, phi_half_disk_sample, pillow_carpet_space,
    product_rug_space, slit_carpet_graph, slit_carpet_space, slit_plane_distance,
    snowflake_polyline, square_map_phi, unit_square_generator, wu_L, wu_line_metric,
)
from .boundary_free_group import (
    BoundaryPoint, Cylinder, ExpansionStats, ReducedWord, boundary_point,
    cylinder_ball, enumerate_words, expanding_cover, expansion_factor_probe,
    gromov_product_prefix, reduce_word, translate_boundary,
    visual_distance,
)
from .qs_analysis import (
    DistortionEnvelope, SampledMap,
    distortion_envelope, envelope_from_samples, envelope_invert,
)
from .tangent_lab import (
    ScanConfig, ScanReport, Verdict, classify_tangent,
    extract_window, nearest_position_seed, tangent_scan,
)

__version__ = "0.1.0"

# Every name imported above; the submodules those imports bind are not exports.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
