"""The provenance header: shape, and injection into every written artifact."""

import json
import os
import re
import subprocess

import repro.bench.__main__ as cli
from repro.bench import provenance
from repro.bench.provenance import SCHEMA_VERSION, git_sha, provenance_header


class TestHeaderShape:
    def test_required_fields(self):
        header = provenance_header("trace", quick=True, jobs=2, seed=0)
        assert header["schema_version"] == SCHEMA_VERSION
        assert header["artifact"] == "trace"
        assert header["generated_by"] == "repro.bench"
        assert re.fullmatch(r"[0-9a-f]{40}|unknown", header["git_sha"])
        assert re.fullmatch(r"\d+\.\d+\.\d+.*", header["python"])
        assert header["config"] == {"quick": True, "jobs": 2, "seed": 0}

    def test_json_safe(self):
        json.dumps(provenance_header("fig4", quick=False), allow_nan=False)

    def test_git_sha_is_what_git_prints_where_the_package_lives(self):
        """In a clone, the HEAD commit; where ``git rev-parse HEAD`` fails
        in ``repro/bench``'s directory (a ``git archive`` copy, no git),
        ``"unknown"``."""
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10,
                                  cwd=os.path.dirname(provenance.__file__))
        except (OSError, subprocess.SubprocessError):
            proc = None
        if proc is None or proc.returncode != 0:
            assert git_sha() == "unknown"
        else:
            assert re.fullmatch(r"[0-9a-f]{40}", git_sha())
            assert git_sha() == proc.stdout.strip()


class TestHeaderInjection:
    def test_every_written_file_gets_the_header(self, tmp_path, monkeypatch):
        """Run the CLI against a fake artifact — no simulation — and check
        the header lands in the main payload AND every extra file."""

        def fake(quick, jobs=None):
            return cli.Rendered("text report", {"figure": "fake", "value": 7},
                                {"extra.json": {"traceEvents": []}})

        monkeypatch.setitem(cli.ARTIFACTS, "fake",
                            cli.Artifact(fake, has_json=True))
        cli.main(["fake", "--json", str(tmp_path)])

        main_payload = json.loads((tmp_path / "fake.json").read_text())
        extra_payload = json.loads((tmp_path / "extra.json").read_text())
        for payload in (main_payload, extra_payload):
            header = payload["provenance"]
            assert header["artifact"] == "fake"
            assert header["schema_version"] == SCHEMA_VERSION
        # The artifact's own keys survive the injection.
        assert main_payload["figure"] == "fake"
        assert main_payload["value"] == 7
        assert extra_payload["traceEvents"] == []

    def test_artifacts_without_extra_files_also_get_the_header(
            self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli.ARTIFACTS, "fake2", cli.Artifact(
            lambda quick, jobs=None: cli.Rendered("t", {"figure": "f2"}),
            has_json=True))
        cli.main(["fake2", "--json", str(tmp_path)])
        payload = json.loads((tmp_path / "fake2.json").read_text())
        assert payload["provenance"]["artifact"] == "fake2"
        assert payload["figure"] == "f2"
