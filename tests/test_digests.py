"""Byte identity: the SHA-256 of every artifact of a small run, pinned.

A 96x96 pipeline with all 9 rules runs with shared and with class looks.
Its image is then read as f64 and as f32: ``evolve --image`` runs on each,
and a pipeline with ``image:`` and ``roi:`` on the f32 one; then, with one
pixel made non positive definite, ``classify`` (every rule) and ``render
--image`` run on each, and ``evolve`` refuses it.  The seconds cells of the
reports are left out of the digests; every other byte counts.
A change that moves output bytes on purpose re-records the digests it moves
(``tests/digests.json``) and says which and why.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from polsardr.classify import RULES
from polsardr.cli import main
from polsardr.errors import NonPositiveDefinitePixelWarning

import oracle

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _without_seconds(name: str, text: str) -> str:
    """A report with its seconds cells (and the stage seconds line) blanked."""
    lines = text.splitlines()
    if name == "report.csv":  # seconds is the last column
        return "\n".join(re.sub(r",[^,]*$", ",", line) for line in lines)
    # report.txt: a table whose last column is seconds, then the stage timings
    table = [re.sub(r"\s+\d+\.\d+$", "", line) for line in lines]
    return "\n".join(re.sub(r"\d+\.\d+ s\b", "_ s", line) for line in table)


def _digests(directory: Path, prefix: str) -> dict[str, str]:
    out = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name in ("report.csv", "report.txt"):
            data = _without_seconds(path.name, data.decode()).encode()
        out[f"{prefix}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return out


def artifact_digests(tmp_path: Path, capsys) -> dict[str, str]:
    """Run the pipelines and the read-image commands; the digest of each file."""
    digests = {}
    rules = ", ".join(RULES)
    for looks in ("shared", "class"):
        run = tmp_path / looks
        cfg = tmp_path / f"{looks}.cfg"
        cfg.write_text(f"width: 96\nheight: 96\nrules: {rules}\n"
                       f"use_class_looks: {str(looks == 'class').lower()}\noutdir: {run}\n")
        assert main(["pipeline", "--config", str(cfg)]) == 0
        digests |= _digests(run, looks)

    image = np.fromfile(tmp_path / "shared" / "image.dat", dtype="<f8").reshape(96, 96, 9)
    bad = image.copy()
    bad[40, 17] = oracle.pack(np.diag([1.0, -2.0, 1.0]))
    header = (tmp_path / "shared" / "image.hdr").read_text()
    model = str(tmp_path / "shared" / "model.txt")
    for dtype in ("f64", "f32"):
        out = tmp_path / f"read_{dtype}"
        out.mkdir()
        (out / "image.hdr").write_text(header.replace("dtype: f64", f"dtype: {dtype}"))
        values = "<f4" if dtype == "f32" else "<f8"
        image.astype(values).tofile(out / "image.dat")
        base = str(out / "image")
        assert main(["evolve", "--image", base, "--model", model,
                     "--metrics", str(out / "metrics.csv"), "--out", str(out / "evolved")]) == 0
        if dtype == "f32":
            run = tmp_path / "image_f32"
            cfg = tmp_path / "image_f32.cfg"
            cfg.write_text(f"image: {base}\nroi: {tmp_path / 'shared' / 'roi.txt'}\n"
                           f"outdir: {run}\n")
            assert main(["pipeline", "--config", str(cfg)]) == 0
            digests |= _digests(run, "image_f32")
        bad.astype(values).tofile(out / "image.dat")
        capsys.readouterr()
        assert main(["evolve", "--image", base, "--model", model,
                     "--out", str(tmp_path / "refused")]) == 1
        assert "initial field has non-positive-definite pixels" in capsys.readouterr().err
        with pytest.warns(NonPositiveDefinitePixelWarning, match="1 of 9216 pixels"):
            for rule in RULES:
                assert main(["classify", "--image", base, "--model", model, "--rule", rule,
                             "--out", str(out / f"map_{rule.replace('+', '_')}")]) == 0
            assert main(["render", "--image", base, "--model", model,
                         "--out", str(out / "image.ppm")]) == 0
        digests |= _digests(out, f"read_{dtype}")
    return digests


def test_every_artifact_keeps_its_bytes(tmp_path, capsys):
    want = json.loads(DIGESTS.read_text())
    got = artifact_digests(tmp_path, capsys)
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, (f"{len(moved)} artifacts changed bytes: {moved}.  The digests depend "
                       "on the BLAS build (the phantom sampler's GEMMs), as the phantom "
                       "digests do; on another build re-record them from a known-good commit")
