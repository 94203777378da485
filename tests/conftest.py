import pytest
from hypothesis import settings

from privtest import demo_model, source_laws

# Every property test is deterministic: no deadline, derandomized draws and
# no example database; a test sets only its own max_examples.
settings.register_profile("privtest", deadline=None, derandomize=True, database=None)
settings.load_profile("privtest")


@pytest.fixture(scope="session")
def model():
    return demo_model()


@pytest.fixture(scope="session")
def identity_laws(model):
    """Per-slot laws of the unmanaged source (identity policy, k=1)."""
    return source_laws(model, k=1)
