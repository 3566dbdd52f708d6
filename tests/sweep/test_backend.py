"""Tests for the pluggable store backends (local / shared-fs)."""

from __future__ import annotations

import os

import pytest

from repro.sweep import SweepStore
from repro.sweep.dist import (
    BACKENDS,
    LocalBackend,
    SharedFSBackend,
    parse_backend,
)
from repro.util.validation import ValidationError


class TestParseBackend:
    def test_bare_path_is_local(self, tmp_path):
        backend = parse_backend(str(tmp_path))
        assert isinstance(backend, LocalBackend)
        assert backend.root == str(tmp_path)
        assert backend.describe() == f"local:{tmp_path}"

    def test_prefixed_specs_select_backends(self, tmp_path):
        local = parse_backend(f"local:{tmp_path}")
        shared = parse_backend(f"shared-fs:{tmp_path}")
        assert isinstance(local, LocalBackend)
        assert isinstance(shared, SharedFSBackend)
        assert shared.root == str(tmp_path)
        # describe() round-trips through parse_backend.
        assert type(parse_backend(shared.describe())) is SharedFSBackend

    def test_relative_path_without_colon_is_local(self):
        assert isinstance(parse_backend("sweep-store/fig_all"), LocalBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="unknown store backend"):
            parse_backend("s3:/bucket/sweeps")

    def test_missing_path_rejected(self):
        with pytest.raises(ValidationError, match="missing a path"):
            parse_backend("shared-fs:")

    def test_registry_names_match_class_names(self):
        assert BACKENDS["local"] is LocalBackend
        assert BACKENDS["shared-fs"] is SharedFSBackend


@pytest.mark.parametrize("backend_cls", [LocalBackend, SharedFSBackend])
class TestBackendPrimitives:
    def test_atomic_write_and_read(self, tmp_path, backend_cls):
        backend = backend_cls(str(tmp_path))
        backend.write_atomic("cell.json", '{"x": 1}', ".cell.host.1.tmp")
        assert backend.read_text("cell.json") == '{"x": 1}'
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_read_missing_is_none(self, tmp_path, backend_cls):
        assert backend_cls(str(tmp_path)).read_text("nope.json") is None

    def test_create_exclusive_single_winner(self, tmp_path, backend_cls):
        backend = backend_cls(str(tmp_path))
        assert backend.create_exclusive("claims/a.claim", "first") is True
        assert backend.create_exclusive("claims/a.claim", "second") is False
        assert backend.read_text("claims/a.claim") == "first"

    def test_rename_missing_is_false(self, tmp_path, backend_cls):
        backend = backend_cls(str(tmp_path))
        assert backend.rename("gone.claim", "taken.claim") is False
        backend.create_exclusive("here.claim", "x")
        assert backend.rename("here.claim", "taken.claim") is True
        assert backend.read_text("taken.claim") == "x"
        assert backend.read_text("here.claim") is None

    def test_unlink_missing_is_false(self, tmp_path, backend_cls):
        backend = backend_cls(str(tmp_path))
        assert backend.unlink("gone") is False
        backend.create_exclusive("there", "x")
        assert backend.unlink("there") is True

    def test_listdir_missing_dir_is_empty(self, tmp_path, backend_cls):
        backend = backend_cls(str(tmp_path / "never"))
        assert backend.listdir() == []
        assert backend.listdir("claims") == []

    def test_store_runs_on_backend(self, tmp_path, backend_cls):
        """SweepStore accepts an explicit backend and a spec string."""
        key = "a" * 32
        via_backend = SweepStore(str(tmp_path), backend=backend_cls(str(tmp_path)))
        via_backend.put(key, {"s": 1}, {"r": 2})
        assert via_backend.get(key)["result"] == {"r": 2}
        spec = f"{backend_cls.name}:{tmp_path}"
        assert SweepStore(spec).get(key)["result"] == {"r": 2}
        assert SweepStore(spec).backend.name == backend_cls.name
