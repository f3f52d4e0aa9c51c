"""gridcast: numpy building blocks for physics-informed next-hour grid load
forecasting at desk scale.

Subpackages and modules:

- ingest       CSV parsing, hourly alignment, imputation, calendar encoding,
               standardization, windowing, chronological splits
- physics      parabolic temperature-demand envelope, tolerance band, and
               the band/ramp penalties with analytic gradients
- nn           numpy layers with manual backprop, Adam, checkpoints
- synthetic    envelope-driven synthetic dataset generator
- errors       the GridcastError hierarchy and the shared checks of settings
- seeding      per-purpose random streams derived from one seed
"""

__version__ = "0.1.0"
