"""Golden outputs: the sha256 of the stdout and of every CSV of a few CLI runs.

The CLI promises byte-identical output for identical invocations, and a
change that only simplifies code or makes it faster must keep every output.
These runs pin that: each calls ``cli.main`` in-process and compares the
digests of what it printed and wrote with the recorded ones.  Output paths
are printed as ``<out>``, so the digests do not depend on the temporary
directory.

A change that alters one of these outputs on purpose updates its digest
here and restates the determinism contract (what changed, and why the new
output is the right one) in the same commit.
"""

import hashlib

import pytest

from softlev import cli

_OUT = "<out>"

# argv (with _OUT where an output path goes) -> {"stdout" or a CSV suffix: sha256}
_GOLDEN = {
    ("optimize", "demo-softmax", "--objective", "hellinger"): {
        "stdout": "3575187db15dab26e9a92eb2dec02567c2a34d56f1f464de09c6895d0b1d00d9",
    },
    ("optimize", "demo-softmax", "--objective", "variance"): {
        "stdout": "713c2ef51a980cda016ecc6ee40073846a8144cee1ae613bd2fded79bf55f79b",
    },
    ("optimize", "demo-leverage", "--objective", "hellinger"): {
        "stdout": "5d3b1ca24ffe2e2e351c613f997a9f9f25ddb55c2e7bd9cee5fa9ba4023d244c",
    },
    ("optimize", "demo-leverage", "--objective", "variance"): {
        "stdout": "5bc17f75520d76418cf4458216d5ec32edce018afc87658ca75334d684fcaf8e",
    },
    ("sweep", "demo-softmax", "--trials", "100", "--out", "<out>"): {
        "stdout": "170e6177059de70aaa0b35f3a3ca3b77142a383e01b98fb077ade6285b264a4f",
        "csv": "2e8d93e6fb908b6ce9ab4a272da7a80b6e3784617cae3e6198b78050e8240795",
    },
    ("sweep", "demo-leverage", "--trials", "100", "--out", "<out>"): {
        "stdout": "f6e14c1d8a07527c166b2adbf1ac6eb588ab7b3a7ed2fcf97b5da1962ca02c08",
        "csv": "2ee2324fbdf692a60412a2fc62a0e5158db4d77313869d27bd653ca692247a3e",
    },
    ("test", "demo-leverage", "--m", "20"): {
        "stdout": "80762e7f5d68e7db644ed4ba29f808be305c4a03de91385aa571605d9c52ac4e",
    },
    # verify's randomized instances: instance k of a family (attempt a of
    # leverage-envelope pair k) fills a fixed-width row of uniforms and then
    # one of normals from the stream keyed (label, k) (or (k, a)), and its
    # shape, fields and branches are decoded from those rows.  Each instance
    # still replays alone from its own stream, and each family keeps its law;
    # metric_identity counts instances whose d(P, P) passes the slack.
    ("verify", "--instances", "200", "--seed", "0", "--out", "<out>"): {
        "stdout": "991f679aeb0c101313665ea013cd1892c33e895e16fada6f25252012f831e2b6",
        "-bounds.csv": "8a2f4ef1718f58f38e0c6f04751627901f56e95505dcae248f9b34f4153e1324",
        "-invariances.csv": "e6c8f035c61691cf0b019789a1c5f84d294abcc697df5ea897f6e394a6ff112d",
        "-taylor-leverage.csv": "bbed8789b5fc445fdb8ecabb5b21c7924949786ce6809b8a6715d794db22cabb",
        "-taylor-softmax.csv": "ba70c4ca9231db2402988357ca5f12228fe40504cbb440987b56533b90051cb6",
    },
    # Two 1,024-instance blocks, so the second block's keys and groups are pinned too.
    ("verify", "--instances", "1100", "--seed", "1", "--out", "<out>"): {
        "stdout": "a1c36a0d575f879d615988d1f7eaafb7bff99b66c00e5ce7c43cf90940507922",
        "-bounds.csv": "e687c8fbd4b34c031b4bfad19cd1d01517e7ad20a46221c2d5a5ac56fbe3477a",
        "-invariances.csv": "4da9ec6d0301799d0a78e8a074f267d94dd2d7c293962d6f33c28e1d60dd74fb",
        "-taylor-leverage.csv": "65a153c6bf0c0893d0deb9ebc7b359335fa71df792055db377984f12945497f9",
        "-taylor-softmax.csv": "32e1873ff5724787309e2d0b299a38fc7b39b7239643bb1265a5e6de3acb952c",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, tmp_path, capsys):
    """Exit code, stdout digest and the digest of each file written under
    the output path, keyed by the suffix after it."""
    out = tmp_path / "run"
    code = cli.main([str(out) if a == _OUT else a for a in argv])
    printed = capsys.readouterr()
    assert printed.err == ""
    digests = {"stdout": _digest(printed.out.replace(str(out), _OUT).encode())}
    for path in sorted(tmp_path.iterdir()):
        digests[path.name[len(out.name) :] or "csv"] = _digest(path.read_bytes())
    return code, digests


@pytest.mark.parametrize("argv", list(_GOLDEN), ids=" ".join)
def test_golden_output(argv, tmp_path, capsys):
    code, digests = _run(argv, tmp_path, capsys)
    assert code == 0
    assert digests == _GOLDEN[argv]
