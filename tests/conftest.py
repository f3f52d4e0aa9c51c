"""Settings shared by every test module, so a single-file run behaves as the
full run does."""

from hypothesis import settings

settings.register_profile("gridcast", max_examples=60, deadline=None)
settings.load_profile("gridcast")
