"""Tests for the bootstrap service."""

import pytest

from repro.core.bootstrap import BootstrapServer
from repro.util.validation import ValidationError


class TestBootstrapServer:
    def test_register_and_members(self):
        server = BootstrapServer()
        server.register(3)
        server.register(5)
        assert server.members == {3, 5}
        assert len(server) == 2

    def test_register_idempotent(self):
        server = BootstrapServer()
        server.register(1)
        server.register(1)
        assert len(server) == 1

    def test_deregister(self):
        server = BootstrapServer()
        server.register(1)
        server.deregister(1)
        server.deregister(99)  # no-op
        assert len(server) == 0

    def test_negative_id_rejected(self):
        with pytest.raises(ValidationError):
            BootstrapServer().register(-1)
