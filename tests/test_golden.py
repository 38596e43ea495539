"""Golden artifacts: the byte-exact output of one pinned end-to-end run.

A change that claims to keep behaviour must keep these 24 files, per
variant the report, trajectory, model, manifest and the explain JSON and
DOT, byte for byte.  The recipe: with BLAS at one thread, write the seed-7
MUTAG-like set with ``bench/synth.py``, then for each variant run
``train --epochs 3 --seed 0 --variant V`` and ``explain 5`` through
``subsketch.cli``.  Floating-point results depend on the numpy build, so
the hashes hold only under the numpy version they were recorded with.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
NUMPY_VERSION = "2.4.6"
FILES = (
    "report.json", "trajectory.csv", "model.bin", "model.manifest.json",
    "graph_5.json", "graph_5.dot",
)
# sha256 of FILES, per variant.
GOLDEN = {
    "full": (
        "07d5079d38cddb11ca25d316da2378cd1ed2d5a9f83c20bbb4b514791449158c",
        "ace73af2e657b57b41b29d02ce4f0913c54b48c1db6a8db808c2717551f62e3c",
        "9dd1f72f5a01f8d30c0a542a2ab603864af742b6bc2f65d732407c4d3d26d1a9",
        "30f5dca06c2b48eb90c2e85ea55bde18319006965a5db2d4e1701667ceebc9f0",
        "fbc3f862911f828d86b494b3396a8d6f29f3cea1cab32a251cd0c5811cf992ea",
        "7074a53648c07ab158e004cf6de76bb512dbb1f314739b2313e8c07d0211c599",
    ),
    "fixed_k": (
        "bdcd0e33cba10fa894c2d268683a54654aefe8edf9b8111d54becf39097d5f3b",
        "58ec78042601cdf258d73b962220326cab779265cc0046dee2384ba1b5ef590a",
        "205ac3fc71d2325e177e69e1fd1aac6f32a294a69961f7576e81d7ae12d9c6a7",
        "d0339d6e17483b49f674464bfd7a8e230d0c30ca319ae9b02f81aab3f549ee52",
        "8f9c9bd3d4435212b7cb86f2089d942f4e0ed5298f455a2c4640557556ea6fde",
        "66a443d824de684ba63d4005a65ba34fc969d481f738b6813ad91bdef3482c3d",
    ),
    "no_mi": (
        "7aa7804cb1a6bcf998fcb29eb67d4f10fa4fe8ae37f6de75ec3fada284a3cce6",
        "3435ce94491c6aa9332b4bf651cae1e8888ae890e2050015081d51875921bc6a",
        "3032c8094433abe2bab390c5c276a53adebde836efcc0dd80cff0a9dd21fd778",
        "78e585738e40e6aefddde262cf1dc58442f8aad21a83fd37ddcf9913b1aa9f34",
        "0778e1ca7f23ce1db24631980e22d86601716f4599d4c03eb29993ad274d30a6",
        "7074a53648c07ab158e004cf6de76bb512dbb1f314739b2313e8c07d0211c599",
    ),
    "mi_corrupt": (
        "14fc284597790c7817626d35e9de0e4a0634eda9e09ea6601c61551cda5fc567",
        "e58860c496862c957f654cf3690cff5e2ecb793286041f25a6379acf534a5f0b",
        "4fcbd0c3b6416dcb4c6f2533384e6ab5a49d11c6281ed93372952bef04c74bf1",
        "320100d85f466980f210f03a69392e2078ceb310aa9eb1df25e5f7a4fc0e9455",
        "c5001737c2c1e4511325142f4c01b9d3eaab71e69104e9a7621a5621ac068ce1",
        "ec79601e0d68af60ccf2cedb6deb6d74a4d4bf6ec8bf21129369b386c6ea7986",
    ),
}


def _run(args, env):
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"golden hashes hold for numpy {NUMPY_VERSION}, not {np.__version__}",
)
def test_golden_artifacts_are_byte_identical(tmp_path):
    src = os.path.join(ROOT, "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    data = tmp_path / "data"
    _run(
        [
            os.path.join(ROOT, "bench", "synth.py"), "--src", src,
            "--scale", "MUTAG", "--seed", "7", "--data-dir", str(data / "MUTAG"),
        ],
        env,
    )
    got = {}
    for variant in GOLDEN:
        out = tmp_path / variant
        common = ["--dataset", "MUTAG", "--data-dir", str(data), "--out-dir", str(out)]
        _run(
            ["-m", "subsketch.cli", "train", *common,
             "--epochs", "3", "--seed", "0", "--variant", variant],
            env,
        )
        _run(["-m", "subsketch.cli", "explain", *common, "5"], env)
        got[variant] = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES
        )
    assert got == GOLDEN
