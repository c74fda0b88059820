from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def pytest_configure(config):
    # A RuntimeWarning fails a test here unless the test's own mark lets it pass.
    # It is set for this directory only: perfbench/test_gate.py probes the
    # sparse-alpha defect in-process and expects a ConsistencyFailure, which an
    # error raised on numpy's warning would replace.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
