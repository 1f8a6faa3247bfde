"""Standing mutation gate for the integer kernels.

Each entry of MUTANTS is a textual mutant: a file, a text that occurs in it
exactly once, its replacement, and the test modules that must each fail
on it.  The runner copies src/ and tests/ into a temporary directory and
checks that the unmutated copy passes every listed module.  It then
applies each mutant to a fresh copy, one at a time, and runs each of its
modules there with -x; src/ itself is never edited.  It exits 1 if the
unmutated copy fails or a mutant survives one of its modules.  A surviving
mutant calls for a stronger test, or, when it is equivalent, for simpler
code; it never goes on an allow-list.

Every listed module leads with deterministic tests that kill its mutants,
so -x stops before a hypothesis test spends minutes shrinking a failure.

Run from anywhere, with pytest and hypothesis installed:

    python3 tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CLOSURE = ("tests/test_sparse_brackets.py", "tests/test_deform_kernel.py")
JACOBI = ("tests/test_jacobi_kernel.py",)

MUTANTS = [
    # acs._closure_defect names the largest l of a failing sum
    ("src/chernflat/acs.py", "min(bad)", "max(bad)", CLOSURE),
    # acs._closure_defect drops the conjugate of c_ij
    ("src/chernflat/acs.py", "(r, x, -y)", "(r, x, y)", CLOSURE),
    # the packed Jacobi slots are two bits narrower than the bound needs
    ("src/chernflat/scalars.py", "bound.bit_length() + 1", "bound.bit_length() - 1", JACOBI),
    # the packed Jacobi sum drops the imaginary term y i[e_r, e_c]
    ("src/chernflat/lie.py", "acc += y * times_i[c][r]", "pass", JACOBI),
    # a negative balanced digit is read with the wrong sign
    ("src/chernflat/scalars.py", "d -= mask + 1", "d += mask + 1", JACOBI),
]


def _copy(dest: str) -> None:
    for name in ("src", "tests"):
        shutil.copytree(
            os.path.join(ROOT, name),
            os.path.join(dest, name),
            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
        )


def _passes(cwd: str, module: str) -> bool:
    env = dict(os.environ, PYTHONPATH="src")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", module]
    return subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    modules = sorted({m for *_, listed in MUTANTS for m in listed})
    with tempfile.TemporaryDirectory() as base:
        _copy(base)
        broken = [m for m in modules if not _passes(base, m)]
    if broken:
        print(f"the unmutated copy fails {', '.join(broken)}")
        return 1
    survived = 0
    for path, old, new, listed in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            _copy(tmp)
            target = os.path.join(tmp, path)
            with open(target, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(old) != 1:
                print(f"{path}: {old!r} must occur exactly once")
                return 1
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
            for module in listed:
                if _passes(tmp, module):
                    survived += 1
                    print(f"mutant {old!r} -> {new!r} in {path} survives {module}")
                else:
                    print(f"mutant {old!r} -> {new!r} in {path} fails {module}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
