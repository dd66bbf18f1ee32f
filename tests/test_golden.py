"""Run outputs stay byte-identical: a short fixed-seed pipeline against the
committed digests in golden.json (rewritten only by make_golden.py)."""

import json

from make_golden import GOLDEN, environment, pipeline


def test_pipeline_matches_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    recorded, now = golden["environment"], environment()
    assert recorded == now, "golden.json was written under another environment: " + \
        "; ".join(f"{k} recorded {recorded.get(k)!r}, now {now.get(k)!r}"
                  for k in sorted(recorded.keys() | now.keys())
                  if recorded.get(k) != now.get(k))
    digests = pipeline(tmp_path)
    moved = sorted(name for name in golden["digests"].keys() | digests.keys()
                   if golden["digests"].get(name) != digests.get(name))
    assert not moved, f"{len(moved)} outputs differ from golden.json: {moved}"
