from setuptools import setup

setup(
    extras_require={
        # Per-test default timeouts (conftest.py) are enforced by
        # pytest-timeout when available; a SIGALRM fallback covers
        # environments that only have the base toolchain.  The repo-root
        # conftest's hook wrappers use pluggy's ``wrapper=True`` protocol,
        # which pytest 8 brings.
        "test": [
            "pytest>=8",
            "pytest-benchmark",
            "pytest-timeout>=2.1",
        ],
    }
)
