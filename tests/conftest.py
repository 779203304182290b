import hypothesis
import pytest

# Solver-backed properties can exceed hypothesis' default 200 ms deadline on
# slow machines; determinism matters more here than wall-time policing.
hypothesis.settings.register_profile(
    "qfront", deadline=None, derandomize=True, max_examples=50
)
hypothesis.settings.load_profile("qfront")


def pytest_collection_modifyitems(items):
    # tests/test_bits.py goes last: its interpreters start with the session
    # and run alongside the other tests.
    items.sort(key=lambda item: item.path.name == "test_bits.py")


@pytest.fixture(scope="session", autouse=True)
def bit_contract(request, tmp_path_factory):
    for item in request.session.items:
        if item.path.name == "test_bits.py" and hasattr(item, "callspec"):
            item.module.start(item.callspec.params["config"], tmp_path_factory)
