"""Regenerate the pinned CLI outputs in this directory.

Run from the repository root, against the code whose output is to be pinned:

    PYTHONPATH=src python tests/golden/generate.py

Each case runs ``chernflat.cli.main`` in-process and records its exit code,
stdout and stderr.  The models are the catalog names below and the model
files in ``models/`` (written by ``models/build.py``), named by their path
from the repository root.  ``cases.json`` lists every case; the stdout of
case NAME is in ``NAME.out``.  ``tests/test_cli.py`` compares the CLI
against them.
"""

import contextlib
import io
import json
import os
import pathlib
import re

from chernflat.cli import main

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

MODELS = [
    "complex_heisenberg_bicomplex",
    "dim4_model",
    "dim5_irreducible",
    "iwasawa_e_frame",
    "iwasawa_j3",
    "centro1_model(1)",
    "centro1_model(2)",
    "heisenberg3",
    "abelian(4)",
]

COMMANDS = {
    "verify": ["verify"],
    "verify-json": ["verify", "--format", "json"],
    "deform-json": ["deform", "--format", "json"],
    "normal-form-json": ["normal-form", "--trials", "3", "--seed", "11", "--format", "json"],
}


def cases():
    specs = [(model, "@" + model) for model in MODELS]
    specs += [(path.stem, path.relative_to(ROOT).as_posix()) for path in sorted((HERE / "models").glob("*.json"))]
    for model, spec in specs:
        slug = re.sub(r"[^A-Za-z0-9]+", "_", model).strip("_")
        for tag, head in COMMANDS.items():
            yield f"{slug}.{tag}", [head[0], spec, *head[1:]]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    os.chdir(ROOT)
    manifest = []
    for name, argv in cases():
        code, out, err = run(argv)
        (HERE / f"{name}.out").write_text(out, encoding="utf-8")
        manifest.append({"name": name, "argv": argv, "code": code, "stderr": err})
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
