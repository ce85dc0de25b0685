"""Suite-wide settings: property tests draw the same examples on every run,
keep no example database, and cache what they read from the sources in a
temporary directory removed at exit, so the suite stays deterministic and
writes no ``.hypothesis/`` directory into the checkout."""

import os
import tempfile

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")


def pytest_configure(config):
    os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)


def pytest_unconfigure(config):
    _storage.cleanup()
