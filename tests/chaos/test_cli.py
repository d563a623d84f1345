"""Tests for the ``python -m repro.chaos`` command-line interface."""

import json

from repro.chaos.cli import load_replay, main, save_replay
from repro.chaos.nemesis import NemesisAction, TrialSpec
from repro.chaos.runner import run_trial


class TestArgHandling:
    def test_no_mode_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "required" in capsys.readouterr().err

    def test_list_mutants(self, capsys):
        assert main(["--list-mutants"]) == 0
        out = capsys.readouterr().out
        assert "fresh-marker" in out
        assert "red-always-grant" in out


class TestReplayFile:
    def _failing(self, tmp_path):
        spec = TrialSpec(seed=0, records=60, threads=2, duration=8.0,
                         actions=[NemesisAction("crash", 2.0, 1.5, "cache-0")])
        result = run_trial(spec, mutant="fresh-marker")
        assert not result.ok
        path = tmp_path / "repro.json"
        save_replay(str(path), spec, result, mutant="fresh-marker")
        return path, spec, result

    def test_roundtrip(self, tmp_path):
        path, spec, result = self._failing(tmp_path)
        payload = load_replay(str(path))
        assert payload["mutant"] == "fresh-marker"
        assert payload["fingerprint"] == result.fingerprint()
        assert TrialSpec.from_dict(payload["spec"]) == spec

    def test_replay_reproduces(self, tmp_path, capsys):
        path, _, _ = self._failing(tmp_path)
        # Mutant comes from the file — no --mutant flag needed.
        assert main(["--replay", str(path)]) == 1
        assert "fingerprint matches replay file" in capsys.readouterr().out

    def test_mismatch_names_the_differing_violations(self, tmp_path,
                                                     capsys):
        path, _, _ = self._failing(tmp_path)
        payload = json.loads(path.read_text())
        original = payload["violations"][0]
        payload["violations"][0] = "[edited] a violation this run lacks"
        payload["fingerprint"] = "0" * 16
        path.write_text(json.dumps(payload))
        assert main(["--replay", str(path)]) == 1
        out = capsys.readouterr().out
        assert "fingerprint MISMATCH" in out
        assert ("  only in replay file: [edited] a violation this run lacks"
                in out.splitlines())
        assert f"  only in this run:    {original}" in out.splitlines()
        # Violations both runs reported are not repeated as differences.
        for shared in payload["violations"][1:]:
            if shared != original:
                assert f"only in this run:    {shared}" not in out

    def test_replay_seed_mismatch_is_usage_error(self, tmp_path, capsys):
        path, _, _ = self._failing(tmp_path)
        assert main(["--replay", str(path), "--seed", "999"]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "spec": {}}))
        try:
            load_replay(str(path))
        except ValueError as err:
            assert "version" in str(err)
        else:  # pragma: no cover
            raise AssertionError("bad version accepted")


class TestSweep:
    def test_clean_seed_exits_zero(self, capsys):
        assert main(["--seed", "0"]) == 0
        assert "invariant-clean" in capsys.readouterr().out

    def test_mutant_sweep_fails_shrinks_and_writes_replay(
            self, tmp_path, capsys):
        out = tmp_path / "repro.json"
        code = main(["--seeds", "5", "--mutant", "fresh-marker",
                     "--out", str(out), "--shrink-budget", "8"])
        assert code == 1
        printed = capsys.readouterr().out
        assert "INVARIANT VIOLATION" in printed
        assert "shrunk:" in printed
        assert "reproduce with:" in printed
        payload = load_replay(str(out))
        assert payload["mutant"] == "fresh-marker"
        assert payload["violations"]
