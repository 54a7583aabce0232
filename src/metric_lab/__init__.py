"""metric-lab: a desk-scale laboratory for finite metric geometry.

Finite metric spaces as distance matrices, exact and bounded
Gromov-Hausdorff distances, generators for slit carpets, snowflake curves,
distorted lines and model tangent spaces, free-group boundary dynamics, and
empirical quasisymmetric distortion.  Each name is imported from the module
that defines it; the package itself exports only __version__.
"""

__version__ = "0.1.0"
