"""The wire-schema snapshot tool and the committed artifact.

``ci/wire-schema.json`` is the codec's contract on disk; these tests
pin three things: the committed snapshot matches the live codec, the
``--check`` gate fails loudly (with bump guidance) when they diverge,
and ``--write`` refuses to paper over a registry change that was not
accompanied by a ``WIRE_VERSION`` bump.
"""

import copy
import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SNAPSHOT = REPO / "ci" / "wire-schema.json"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "wire_schema_tool", REPO / "tools" / "wire_schema.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ws = _load_tool()


class TestCommittedSnapshot:
    def test_snapshot_matches_live_codec(self):
        committed = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
        assert committed == ws.build_snapshot()

    def test_source_schema_matches_the_imported_codec(self):
        # The snapshot is read from the codec's source; the classes the
        # running codec really uses must give the same schema.
        import dataclasses

        from repro.live import wire
        imported = {
            "wire_version": wire.WIRE_VERSION,
            "max_frame": wire.MAX_FRAME,
            "envelope_kinds": list(wire.ENVELOPE_KINDS),
            "envelope_fields": list(wire.ENVELOPE_FIELDS),
            "special_forms": list(wire.WIRE_SPECIAL_FORMS),
            "dataclasses": {
                name: [field.name for field in dataclasses.fields(cls)]
                for name, cls in wire._DATACLASSES.items()},
            "errors": {
                name: {"class": cls.__name__, "attrs": list(attrs)}
                for name, (cls, attrs) in wire._ERRORS.items()},
        }
        assert ws.build_snapshot() == imported

    def test_check_mode_passes_on_the_committed_file(self, capsys):
        assert ws.main(["--check"]) == 0
        assert "matches" in capsys.readouterr().out

    def test_snapshot_is_canonical_json(self):
        # Byte-stable rendering: regenerating without a codec change
        # must be a no-op diff.
        committed = SNAPSHOT.read_text(encoding="utf-8")
        assert committed == ws.render(json.loads(committed))


class TestDriftDetection:
    def test_removed_error_is_reported(self):
        current = ws.build_snapshot()
        committed = copy.deepcopy(current)
        del committed["errors"]["LeaseBackoff"]
        problems = ws.diff_problems(current, committed)
        assert problems == ["error LeaseBackoff is new"]

    def test_changed_attrs_are_reported(self):
        current = ws.build_snapshot()
        committed = copy.deepcopy(current)
        committed["errors"]["HostUnreachable"]["attrs"] = ["host"]
        problems = ws.diff_problems(current, committed)
        assert len(problems) == 1
        assert "HostUnreachable changed" in problems[0]

    def test_check_demands_version_bump_on_unbumped_drift(
            self, tmp_path, capsys):
        stale = copy.deepcopy(ws.build_snapshot())
        del stale["errors"]["LeaseBackoff"]
        snapshot = tmp_path / "wire-schema.json"
        snapshot.write_text(ws.render(stale), encoding="utf-8")
        assert ws.main(["--check", "--snapshot", str(snapshot)]) == 1
        out = capsys.readouterr().out
        assert "LeaseBackoff is new" in out
        assert "WIRE_VERSION was not bumped" in out

    def test_check_flags_version_only_mismatch(self, tmp_path, capsys):
        stale = copy.deepcopy(ws.build_snapshot())
        stale["wire_version"] += 1
        snapshot = tmp_path / "wire-schema.json"
        snapshot.write_text(ws.render(stale), encoding="utf-8")
        assert ws.main(["--check", "--snapshot", str(snapshot)]) == 1
        assert "regenerate" in capsys.readouterr().out

    def test_check_fails_without_a_snapshot(self, tmp_path, capsys):
        missing = tmp_path / "wire-schema.json"
        assert ws.main(["--check", "--snapshot", str(missing)]) == 1
        assert "--write" in capsys.readouterr().out


class TestWriteGuard:
    def test_write_refuses_unbumped_registry_change(self, tmp_path, capsys):
        stale = copy.deepcopy(ws.build_snapshot())
        del stale["errors"]["LeaseBackoff"]
        snapshot = tmp_path / "wire-schema.json"
        before = ws.render(stale)
        snapshot.write_text(before, encoding="utf-8")
        assert ws.main(["--write", "--snapshot", str(snapshot)]) == 1
        assert "refusing" in capsys.readouterr().out
        assert snapshot.read_text(encoding="utf-8") == before

    def test_force_overrides_the_guard(self, tmp_path):
        stale = copy.deepcopy(ws.build_snapshot())
        del stale["errors"]["LeaseBackoff"]
        snapshot = tmp_path / "wire-schema.json"
        snapshot.write_text(ws.render(stale), encoding="utf-8")
        assert ws.main(
            ["--write", "--force", "--snapshot", str(snapshot)]) == 0
        assert json.loads(
            snapshot.read_text(encoding="utf-8")) == ws.build_snapshot()

    def test_write_seeds_a_fresh_snapshot(self, tmp_path):
        snapshot = tmp_path / "nested" / "wire-schema.json"
        assert ws.main(["--write", "--snapshot", str(snapshot)]) == 0
        assert json.loads(
            snapshot.read_text(encoding="utf-8")) == ws.build_snapshot()

    def test_version_bump_alone_is_writable(self, tmp_path):
        # A bumped version with identical registries is the normal
        # regeneration path and must not be refused.
        stale = copy.deepcopy(ws.build_snapshot())
        stale["wire_version"] -= 1
        snapshot = tmp_path / "wire-schema.json"
        snapshot.write_text(ws.render(stale), encoding="utf-8")
        assert ws.main(["--write", "--snapshot", str(snapshot)]) == 0
