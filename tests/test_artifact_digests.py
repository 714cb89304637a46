"""scripts/artifact_digests.py records a work directory and compares it with a record."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digests.py"


def _digests(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)], capture_output=True, text=True
    )


def test_against_passes_unchanged_and_names_a_one_byte_edit(tmp_path):
    workdir = tmp_path / "work"
    workdir.mkdir()
    (workdir / "triggers.tsv").write_text('#! {"stage": "triggers"}\nb1\t2013-06-01\t1\n\nb2\tx\n')
    (workdir / "model_rrt.bin").write_bytes(bytes(range(16)))
    record = tmp_path / "before.json"
    recorded = _digests(workdir)
    assert recorded.returncode == 0
    record.write_text(recorded.stdout)
    assert '"rows": 2' in recorded.stdout and '"rows": null' in recorded.stdout

    same = _digests(workdir, "--against", record)
    assert (same.returncode, same.stdout) == (0, "2 artifacts identical\n")

    data = bytearray((workdir / "model_rrt.bin").read_bytes())
    data[7] ^= 1
    (workdir / "model_rrt.bin").write_bytes(bytes(data))
    changed = _digests(workdir, "--against", record)
    assert changed.returncode == 1
    assert changed.stdout.startswith("model_rrt.bin: ") and "triggers.tsv" not in changed.stdout
