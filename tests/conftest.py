"""Fixtures every test runs under."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_hard_exit(monkeypatch):
    """``os._exit`` fails the test instead of ending pytest.

    ``cli.main`` ends its process with ``os._exit``; called inside the test
    process it would stop the whole run with no summary and status 0.
    """

    def hard_exit(code):
        pytest.fail(f"os._exit({code!r}) inside a test would end the test run")

    monkeypatch.setattr(os, "_exit", hard_exit)
