import hypothesis
import pytest

# Solver-backed properties can exceed hypothesis' default 200 ms deadline on
# slow machines; determinism matters more here than wall-time policing.
hypothesis.settings.register_profile(
    "qfront", deadline=None, derandomize=True, max_examples=50
)
hypothesis.settings.load_profile("qfront")


# Their fresh interpreters start with the session and run alongside the
# other tests, which go first; each parametrized test names one by its parameter.
BACKGROUND = {"test_bits.py", "test_resources.py"}


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.path.name in BACKGROUND)


@pytest.fixture(scope="session", autouse=True)
def background_interpreters(request, tmp_path_factory):
    for item in request.session.items:
        if item.path.name in BACKGROUND and hasattr(item, "callspec"):
            item.module.start(*item.callspec.params.values(), tmp_path_factory)
