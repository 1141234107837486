"""Suite-wide pytest configuration."""


def pytest_configure(config):
    # Registered so ``--strict-markers`` (the CI tier-1 run) accepts it.
    config.addinivalue_line("markers", "slow: long-running test")
