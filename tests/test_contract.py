"""Every command of the report contract (tests/contract.py) against the
fingerprints in tests/contract.json: same exit code, and the same stdout
and stderr once elapsed times and the data directory are masked."""

import json

from contract import PATH, fingerprint, runs


def test_reports_match_the_recorded_fingerprints(tmp_path):
    want = json.loads(PATH.read_text())
    got = {}
    for name, command, argv in runs(tmp_path):
        got["%s | %s" % (name, command)] = fingerprint(argv, tmp_path)
    changed = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    assert not changed, "changed fingerprints:\n" + "\n".join(changed)
    assert sorted(want.keys() - got.keys()) == [], "pairs no longer run"
    assert sorted(got.keys() - want.keys()) == [], "pairs not recorded"
