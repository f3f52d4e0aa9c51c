"""Settings shared by every test module, so a single-file run behaves as the
full run does.

perfbench/ goes on the import path: `workloads` there is the one definition
of the forecaster's spine (the calibration recipe, the branches at the
benchmark's sizes, the ramp-pair rule, the composite-loss step and its batch
schedule), and the tests call it rather than keep copies."""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

settings.register_profile("gridcast", max_examples=60, deadline=None)
settings.load_profile("gridcast")
