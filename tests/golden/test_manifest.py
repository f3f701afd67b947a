"""Every command in the golden manifest still prints what it printed when the
manifest was written: the same exit code, stderr and stdout bytes.
regen.py in this directory rewrites the manifest and says why."""
import json

from regen import MANIFEST, record


def test_cli_matches_golden_manifest(monkeypatch):
    monkeypatch.delenv("TRIPHOTON_WORKERS", raising=False)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert len(manifest) >= 200
    changed = [e["argv"] for e in manifest if record(e["argv"]) != e]
    assert changed == []
