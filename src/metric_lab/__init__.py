"""metric-lab: a desk-scale laboratory for finite metric geometry.

Finite metric spaces as distance matrices, exact and bounded
Gromov-Hausdorff distances, generators for slit carpets, snowflake curves,
distorted lines and model tangent spaces, free-group boundary dynamics, and
empirical quasisymmetric distortion.

The package namespace is lazy (PEP 562): `metric_lab.X` and
`from metric_lab import X` import X's module on first use, so importing the
package, or a command that never needs scipy, does not load scipy.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "errors": (
        "AlphabetError", "ConstructionError", "DegenerateEnvelopeError",
        "DomainError", "InsufficientDepthError", "MalformedMatrixError",
        "MetricLabError", "ResolutionError", "ScheduleError",
    ),
    "metric_core": (
        "TOL", "AxiomViolation", "FiniteMetricSpace", "GeometryStats",
        "PointedWindow", "epsilon_net", "geometry_stats", "read_space", "rescale",
        "restrict_ball", "space_from_json", "space_to_json", "validate_metric",
        "write_space",
    ),
    "gh_solver": (
        "Correspondence", "GhResult", "correspondence_from_map",
        "distortion_of_correspondence", "gh_bounds", "gh_distance",
        "gh_exact_small", "map_distortion", "pointed_gh_bounds",
    ),
    "fractal_gen": (
        "MODEL_KINDS", "FlatSnowflakeGenerator", "SlitCarpetGenerator",
        "SlitPlanePoint", "SlitSchedule", "WuSchedule", "default_wu_schedule",
        "make_generator", "model_tangent_space", "phi_half_disk_sample",
        "pillow_carpet_space", "product_rug_space", "slit_carpet_graph",
        "slit_carpet_space", "slit_plane_distance", "snowflake_polyline",
        "square_map_phi", "unit_square_generator", "wu_L", "wu_line_metric",
    ),
    "boundary_free_group": (
        "BoundaryPoint", "Cylinder", "ExpansionStats", "ReducedWord",
        "boundary_point", "cylinder_ball", "enumerate_words", "expanding_cover",
        "expansion_factor_probe", "gromov_product_prefix", "is_saturated",
        "reduce_word", "translate_boundary", "visual_distance",
    ),
    "qs_analysis": (
        "DistortionEnvelope", "SampledMap", "check_eta", "diam_ratio_check",
        "distortion_envelope", "envelope_compose", "envelope_from_samples",
        "envelope_invert", "qc_constant_probe",
    ),
    "tangent_lab": (
        "ScaledGenerator", "ScanConfig", "ScanReport", "Verdict",
        "classify_tangent", "extract_window", "nearest_position_seed",
        "tangent_scan",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# The submodules an eager import used to bind as attributes of the package.
_SUBMODULES = frozenset(_EXPORTS) | {"grids"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
