import importlib.util
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "symns", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("symns")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def load_script():
    """load_script(name) imports scripts/<name>.py as a module."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def load(name):
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(root, "scripts", f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load
