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
    ("pmf", "demo-softmax", "--query", "0.5,-0.25,0.5"): {
        "stdout": "b576e6f0ab09f05a37c43f6ed89224087c9887680a281b06ab37c2084a8be06d",
    },
    ("pmf", "demo-leverage", "--query", "1,1.25,0.75,1.375,0.875,1.125"): {
        "stdout": "d75e9a0253479ce30e3d6fd95d78096dc66091b701951ee562d72c942ffc21a5",
    },
    ("distance", "demo-softmax", "--query", "0.5,-0.25,0.5"): {
        "stdout": "3f4563fdcc1fc1e6399f4a79aec4b2ff3cf7663b2c28c6d9c88c1457e6e62076",
    },
    ("distance", "--lemma-a1", "--eps", "1", "--n", "5", "--m", "2"): {
        "stdout": "43ac706965c7ab56b9ea31c5d1dee2c149bf9213b84abb6c73903efe97819b95",
    },
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
    # verify's randomized instances: a family is keyed once, by
    # derive_seed(seed, label), and instance k (attempt a of leverage-envelope
    # pair k) is the row of uniforms at Philox counter [k * stride, a, 0, 0]:
    # its uniforms first, then Box-Muller pairs for its normals.  Its shape,
    # fields and branches are decoded from that row, so each instance still
    # replays alone, in O(1), and each family keeps its law (Gaussian up to
    # Box-Muller's |z| <= 8.57).  metric_sandwich and metric_triangle report
    # the largest excess lhs - rhs of their own inequalities.
    ("verify", "--instances", "200", "--seed", "0", "--out", "<out>"): {
        "stdout": "e2187f4679abacba5d2008ae75d43379aa3ee6b5504a9d7d7eb344eb7bae5249",
        "-bounds.csv": "683adbac8c403f1936ed9f68b5fee9ae3c65dead42ae8d47357f548065f94d4c",
        "-invariances.csv": "67646a9e741a5c7ead2512f909ffec8177aed9bde31865e21dc7518bc714e99f",
        "-taylor-leverage.csv": "bbed8789b5fc445fdb8ecabb5b21c7924949786ce6809b8a6715d794db22cabb",
        "-taylor-softmax.csv": "ba70c4ca9231db2402988357ca5f12228fe40504cbb440987b56533b90051cb6",
    },
    # Two 1,024-instance blocks, so the second block's keys and groups are pinned too.
    ("verify", "--instances", "1100", "--seed", "1", "--out", "<out>"): {
        "stdout": "5e7e3fc195d9c44f2e97ed244e12851b444efe5b9ed04873c6d0d2adc7a42db5",
        "-bounds.csv": "ebaa2972a2833564c0f8426d19265cc727ff76544376e80321cecc316ec08a28",
        "-invariances.csv": "7aacc2219287dd17aa4a7d231a43dd313ff287ecb336067d78bee22b7880f279",
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
