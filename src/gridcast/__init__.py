"""gridcast: physics-informed dual-branch load forecasting at desk scale.

Subpackages and modules:

- ingest       CSV parsing, hourly alignment, imputation, calendar encoding,
               standardization, windowing, chronological splits
- physics      parabolic temperature-demand envelope, tolerance band, and
               the band/ramp penalties with analytic gradients
- nn           numpy layers with manual backprop, Adam, checkpoints
- synthetic    envelope-driven synthetic dataset generator
"""

__version__ = "0.1.0"
