"""The byte-identity gate: `--deterministic` output pinned by sha256.

A refactor must leave the records, the tables, the printed verdicts and
reports, and the exit codes byte for byte as they were. The digests below
pin `corpus` on the bundled corpus, and `analyze` on each bundled scenario
and on two generated programs (literal seeds, so `OA_SEED` does not move
them) under each mode, with and without `--out`, and the records of
`corpus` on the three benchmark workloads at seed 101, built by
`bench/workloads.py`. A change that moves records on purpose updates them
and says which units moved and why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from oadetect.cli import main
from oadetect.frontend import pretty_print
from oadetect.harness import bundled_corpus_dir
from oadetect.randprog import generate_program

MODES = ("nopa", "pa", "hybrid")
TABLES = ("records.jsonl", "confusion.csv", "metrics.csv", "transitions.csv", "histogram.csv", "timing.csv")

CORPUS_DIGESTS = {
    "records.jsonl": "739ece80efe935fe2504c9650a16f54445bd3f92b2b6dcf158e70f4989ecd8fb",
    "confusion.csv": "24be81bc799c308686e7ca23943ad9760236dd927862d905b676bd959ee3a00a",
    "metrics.csv": "c4b00e1188cda577fd3510c3537256ee32ab72ccb5f38c3d387d5ecf5999f96b",
    "transitions.csv": "ff644fdd899ad28fcc4e563d9d4e75b42ccbb7c38193281a85277cdc3bfb2193",
    "histogram.csv": "5993349aed68c22971be928595fc9c061c5becfab4e1f911386a94c58c837d03",
    "timing.csv": "d58762141b9a5d029c8d2fd41afaefd2869ac7de92b5c39652e0e4913854eca5",
    "stdout": "e3c907d4999520d45bbfa85f0e1aa1cfa4f7ac43be6b719f3f2b9fe8cec10a80",
}

# (exit code, stdout sha256, sha256 of the records `--out` writes) per
# scenario and mode; stderr is empty throughout.
ANALYZE_DIGESTS = {
    ("fig1_simple", "nopa"): (
        1, "050affd9b5648d22c5a6193d1689ab3f57153c4da32ef7e6606caefcad8ddc77",
        "bd78a9103dc0181c66ae98aaa7d4935dc95526c1ea09ffb41a67f5289abc27f0"),
    ("fig1_simple", "pa"): (
        1, "2039697173e06df3ecc11f97bd89ac96ccfbc05d8ef15ab35d9f7bffed4f72a7",
        "e13470f8de90aefedc786ebad4bb7e3368b695263b624aeb06c8d3a09c2fb74e"),
    ("fig1_simple", "hybrid"): (
        1, "8447865e2ce1374262a41a6af8daab281bdbeb17badba52c65422ad980b00033",
        "83ec19f9caac2289e6a7aeeb0d652152bd6e36d4ef395226c67390f073500466"),
    ("fig1_advanced", "nopa"): (
        1, "050affd9b5648d22c5a6193d1689ab3f57153c4da32ef7e6606caefcad8ddc77",
        "a2a151e36d1683f6c10d26e6e594b84b87fe99262ed29e831214377064284ef0"),
    ("fig1_advanced", "pa"): (
        0, "d6c1e49efff815368e86d6f256aea114715e5bbb108075a4669c9e248b56e875",
        "bd5b585307d74a508837091b953ca3010f59cfe6715c6ec91b0a92b95813d427"),
    ("fig1_advanced", "hybrid"): (
        0, "4977c71493aeaa1471b944c0e5891adbb679f437c32e7d688e75376527e81079",
        "e415c8cb1a9c6e1b63249c4a163849003b88c75ff29b8201d2734bcae849c0c8"),
    ("mkref", "nopa"): (
        1, "ed34ae0271046edb2e4745f21a2dc60d902558da72bf84f25700b5b75992605d",
        "aaab35cffa72aef18d7ae0b08eb73aefc59869e136bde415af2bb873da06f032"),
    ("mkref", "pa"): (
        0, "0f1693a4e38885399dc1f69f2c0cf749e6e84af1f9a564713ee874e4ade0fffa",
        "52791d6be2a10262828efee3f293d10efb163c5d2bb3234208ca2d94ab791a9f"),
    ("mkref", "hybrid"): (
        1, "ed2f28954383f6fc26ceef0319ca38389cb9fc60af5a2aa89b31676a181348a6",
        "5cb60a0c4be108ca9f0841caa8c8cec0f1b81f75c9fdc9268c9518a6be3def38"),
    ("deep_hierarchy", "nopa"): (
        2, "1beb0695a3c935afbcacf8dd4ca64227487ce1481ff5757099760288371a84a3",
        "f74bd76f83c9763c48231b1ec8c51780351eb93ef793e3915a38bf1e6db8c453"),
    ("deep_hierarchy", "pa"): (
        0, "0246d6f54245d0a5c2001292df18d08a7dd0d521ed83262f65a0dd0667686e8d",
        "b5f157e11ce0955b972d901f22939bc11b1b51f447bba59b337e5e452b28947c"),
    ("deep_hierarchy", "hybrid"): (
        0, "97f22349156d8d2b2c9d66548a912e7cd302774f6b4410a6cab0c3dcce904117",
        "73481e763477285074b01b7aa07e71744d289e304ba0869864c1fa70c771e204"),
    ("gen-4769", "nopa"): (
        1, "642792f3f7aa8c85c3a3ad3d2e8ae1f495fe6b2fbc0f823999bff741414fd8eb",
        "1399463eebbec4ccb4ba72e06415331e649a61f9c1cf328ba3e9891f0d705164"),
    ("gen-4769", "pa"): (
        0, "5d3269ce56a0715524d518a78c3dc8891da51b95cdee5b9c1ecec68ffffd8172",
        "3eac10022e1749b3d0fa565e02c4a914c2cd6d588c47710fa65c01b592a5d0c7"),
    ("gen-4769", "hybrid"): (
        1, "c275f78f9cb668470c4e50dfa2ac488d1088df97a90b39d0145aa560fb2545be",
        "7f46c22d605159db2be1b4251e005118800f35e0f2a21e570d21849fd1ce98d3"),
    ("gen-4793", "nopa"): (
        1, "8a781e1fcbaa0d6ee7b943017cac79fd28b03f45a9279394a19c263d4472308b",
        "c05eb45b5faa1fb5eb43c0038fb50b9a827ff6450c7b3c2c558a12a7729aeddf"),
    ("gen-4793", "pa"): (
        0, "fb792ba849de7e968db958d91e7205bc859722b2465b275d4e8704d546b0cb69",
        "1b14c95c530969085a08749844bdb832240c0e9e13a590406159a925cf44ed5e"),
    ("gen-4793", "hybrid"): (
        1, "174fa8e583aafe451b9ad7ae091215930fef49d09a2ea2f085970e666f22abbc",
        "7d3413b00879d51bf58cb1a8181f39cf989d7b7fed60b3cfd15811e2734d00d8"),
}

# Random programs (seed, mkref) with constructors that take arguments and
# allocate: 4769 conflicts under `nopa` and `hybrid`, and 4793 also logs
# miss-references under `pa` and `hybrid`.
GENERATED = {"gen-4769": (4769, False), "gen-4793": (4793, True)}

# sha256 of `corpus`'s records.jsonl on each benchmark workload at seed 101,
# the digests the benchmark prints.
WORKLOAD_SEED = 101
WORKLOAD_DIGESTS = {
    "gate-bundled": "a39eb26fc11c2bab6d393f96789b51ed09fcdd1a80feb9aa60b1ab586ad38800",
    "scan-random": "bc10183c70897c053ed2e3fb85a8a627bdf11e2df3b8d47faf49495c54471719",
    "wide-hierarchy": "518f24ba3394490a2c0ff080d180fd8906987e822e62bb87fa51b72e0d7bf252",
}
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def test_corpus_output_is_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["corpus", "--root", str(bundled_corpus_dir()), "--deterministic", "--reps", "1",
                 "--modes", ",".join(MODES), "--out", "out"])
    printed = capsys.readouterr()
    got = {name: _sha((tmp_path / "out" / name).read_text()) for name in TABLES}
    got["stdout"] = _sha(printed.out)
    assert (code, printed.err) == (1, "")
    assert got == CORPUS_DIGESTS


def _analyze_argv(name: str, tmp_path: Path) -> list[str]:
    if name not in GENERATED:
        return [str(bundled_corpus_dir() / name)]
    seed, mkref = GENERATED[name]
    gen = generate_program(seed, mkref=mkref, mark_changes=True)
    src = tmp_path / f"{name}.mir"
    src.write_text(pretty_print(gen.program))
    return ["--entry", gen.entry.id, str(src)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["fig1_simple", "fig1_advanced", "mkref", "deep_hierarchy", *GENERATED])
def test_analyze_output_is_byte_identical(name, mode, tmp_path, capsys):
    argv = ["analyze", "--deterministic", "--mode", mode, *_analyze_argv(name, tmp_path)]
    code = main(argv)
    printed = capsys.readouterr()
    out_dir = tmp_path / "rec"
    assert main(argv + ["--out", str(out_dir)]) == code
    assert capsys.readouterr() == printed
    assert printed.err == ""
    got = (code, _sha(printed.out), _sha((out_dir / "records.jsonl").read_text()))
    assert got == ANALYZE_DIGESTS[name, mode]


def _bench_workloads():
    """`bench/workloads.py`, loaded under a name of its own."""
    name = "_bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("workload", sorted(WORKLOAD_DIGESTS))
def test_bench_workload_records_are_byte_identical(workload, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("OA_SEED", raising=False)  # scan-random draws its programs from it
    wl = _bench_workloads().build_workload(workload, tmp_path / "in", WORKLOAD_SEED)
    code = main(["corpus", "--deterministic", "--reps", "1", "--modes", ",".join(MODES),
                 *wl.budget_flags(), "--root", str(wl.root), "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (1, "")
    assert _sha((tmp_path / "out" / "records.jsonl").read_text()) == WORKLOAD_DIGESTS[workload]
