"""The same-bytes check of ``scripts/same_bytes.py``, run once against the
committed manifest with one digest altered: on 1 CPU and on 2 that digest,
and only that one, differs, so the check fails and every other file of the
pipeline has the manifest's bytes."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_bytes.py"
_spec = importlib.util.spec_from_file_location("same_bytes", SCRIPT)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


@pytest.mark.slow
def test_pipeline_writes_the_manifest_bytes_but_the_altered_one(tmp_path, capsys,
                                                                 monkeypatch):
    manifest = json.loads(same_bytes.MANIFEST.read_text(encoding="utf-8"))
    reason = same_bytes.skip_reason(manifest)
    if reason is not None:
        pytest.skip(reason)
    name = "at/sweep/sweep.csv"
    digest = manifest["files"][name]
    manifest["files"][name] = "0" * 64
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(manifest), encoding="utf-8")
    monkeypatch.setattr(same_bytes, "MANIFEST", altered)
    code = same_bytes.main([])
    lines = capsys.readouterr().out.splitlines()
    count = len(manifest["files"])
    assert lines == [line for cpus in same_bytes.CPU_COUNTS for line in (
        f"on {cpus} CPUs: {count} digests, 1 differ from the manifest",
        f"  {name}: manifest {'0' * 64}, run {digest}")] + ["FAIL"]
    assert code == same_bytes.EXIT_FAIL


def test_mismatches_name_each_differing_or_one_sided_file():
    assert same_bytes.mismatches({"a": "1", "b": "2"}, {"a": "1", "b": "2"}) == []
    assert same_bytes.mismatches({"a": "1", "b": "2"}, {"a": "1", "b": "3", "c": "4"}) == [
        "b: manifest 2, run 3", "c: manifest None, run 4"]
