"""Mutation check: every mutant below must make tier-1 fail.

Each entry of ``MUTANTS`` is (file under src/qsinglet, exact old text, new
text, why). For each one the script copies ``src/`` to a temporary
directory, replaces the old text, which must occur exactly once, and runs
tier-1 against that copy with ``-x -q -W error``. It first runs tier-1 on an
unchanged copy, since a suite that already fails would kill every mutant.
Mutants run one after another, as parallel tier-1 runs would only contend for
the CPUs. It prints "killed" with the first failing test, or "SURVIVED", and
exits 1 if any mutant survives or cannot be applied or run.

A threshold is moved where it is used, not where it is defined:
``tests/test_package.py`` pins every definition to the README, so a changed
definition would only show that the pin works.

    python tests/mutants.py

Pytest does not collect this file: its name does not start with ``test_``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900

MUTANTS = [
    ("protocols.py", "            k = named[m]\n", "            k = 1 - named[m]\n",
     "each labelled outcome names the other eigenvector for party 0"),
    ("protocols.py", "share = w[k] / (w[0] + w[1])", "share = w[1 - k] / (w[0] + w[1])",
     "labelled fidelities are the other arrangement's share"),
    ("protocols.py", "        if p > PROB_FLOOR:\n", "        if p >= PROB_FLOOR:\n",
     "_eigen_branches analyses an outcome at exactly the floor"),
    ("protocols.py", "x_profile(x)[0] * x_profile(2.0 * x)[0]",
     "x_profile(x)[0] * x_profile(2.0 * x)[1]",
     "_eta_profile reads the -x weight of its second factor"),
    ("protocols.py", "target) <= SPECTRUM_ATOL]", "target) <= 1e-7]",
     "eigenphases 1e-7 off the ones a labelled protocol needs are accepted"),
    ("phase_estimation.py", "(1.0 - RANK_SLACK)", "(1.0 - 0.0)",
     "no slack: a reading whose products round below the bound is lost"),
    ("phase_estimation.py", "(1.0 - RANK_SLACK)", "(1.0 - 1e-3)",
     "a wide slack evaluates readings far below the bound"),
    ("phase_estimation.py",
     "values = _weight(g1[z_a], g2[z_b]) + _weight(g1[z_b], g2[z_a])",
     "values = _weight(g1[z_a], g2[z_b]) + _weight(g1[z_a], g2[z_b])",
     "J ranks the candidates with S + S in place of S + S^T"),
    ("phase_estimation.py",
     "    g1, g2 = (g_amplitude(np.arange(size), grid) for grid in grids)\n",
     "    g1, g2 = (g_amplitude(np.arange(size), GridDecomposition(\n"
     "        grid.n, grid.x, grid.xbar, grid.delta * (1 + 2**-48))) for grid in grids)\n",
     "double-pe's profiles take g_amplitude at an offset 4 ulps too large"),
    ("register.py", "    keep = flat > PROB_FLOOR\n", "    keep = flat >= PROB_FLOOR\n",
     "top_set keeps an entry at exactly the floor"),
    ("register.py", "abs(norm - 1.0) > NORM_ATOL:", "abs(norm - 1.0) > 0.5 * NORM_ATOL:",
     "State's norm bound at half its value refuses valid states"),
    ("register.py", "abs(norm - 1.0) > NORM_ATOL:", "abs(norm - 1.0) > 2.0 * NORM_ATOL:",
     "State's norm bound at twice its value accepts unnormalised states"),
    ("register.py", "abs(a) > PHASE_FIX_ATOL:", "abs(a) > 1e-3:",
     "fix_phase skips components that set the global phase"),
    ("linalg.py", "out = np.where(out >= TWO_PI, 0.0, out)",
     "out = np.where(out > TWO_PI, 0.0, out)",
     "wrap_phase returns exactly 2 pi for a tiny negative angle"),
    ("linalg.py", "root = np.sqrt((a - d) * (a - d) + 4.0 * b * c + 0j)",
     "root = np.sqrt(trace * trace - 4.0 * (a * d - b * c) + 0j)",
     "the naive discriminant cancels when the eigenvalues nearly coincide"),
    ("linalg.py", "abs(lam1 - lam2) <= DEGENERACY_ATOL:", "abs(lam1 - lam2) <= 1e-6:",
     "gaps up to 1e-6 are refused as degenerate"),
    ("qudit.py", "> INVOLUTION_ATOL:", "> 1e-7:",
     "gates 1e-7 from an involution are accepted"),
]


def importing_from(src: Path) -> dict:
    """The environment in which ``import qsinglet`` loads ``src``'s copy."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_tier1(src: Path) -> tuple:
    """(pytest exit status, first failing test or '', seconds) of tier-1
    importing qsinglet from ``src``. Pytest runs in ``src``'s parent, so
    hypothesis keeps no examples from one run to the next."""
    env = importing_from(src)
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-W", "error",
               "-p", "no:cacheprovider", "--rootdir", str(ROOT),
               "-c", str(ROOT / "pyproject.toml"), str(ROOT / "tests")]
    start = time.monotonic()
    try:
        done = subprocess.run(command, cwd=src.parent, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s", time.monotonic() - start
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    # pytest names tests relative to its working directory
    first = failed[0].split(" - ")[0] if failed else done.stdout.strip()[-300:]
    first = first.replace(os.path.relpath(ROOT, src.parent) + os.sep, "")
    return done.returncode, first if done.returncode else "", time.monotonic() - start


def copy_src(workdir: Path) -> Path:
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def apply(src: Path, filename: str, old: str, new: str) -> None:
    path = src / "qsinglet" / filename
    text = path.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise ValueError(f"{filename}: the old text occurs {count} times, not once: {old!r}")
    path.write_text(text.replace(old, new), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        # an installed qsinglet found first would make every mutant survive
        where = subprocess.run([sys.executable, "-c", "import qsinglet; print(qsinglet.__file__)"],
                               env=importing_from(src), capture_output=True, text=True)
        if not where.stdout.startswith(str(src)):
            print(f"tier-1 would not import the copied source: {where.stdout}{where.stderr}")
            return 1
        status, first, seconds = run_tier1(src)
    if status != 0:
        print(f"tier-1 fails on the unchanged source ({first}); no mutant was run")
        return 1
    print(f"unchanged source: tier-1 passed in {seconds:.0f} s", flush=True)
    survivors = broken = 0
    total_start = time.monotonic()
    for number, (filename, old, new, why) in enumerate(MUTANTS, 1):
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(Path(tmp))
            try:
                apply(src, filename, old, new)
            except ValueError as exc:
                print(f"{number:2d} NOT APPLIED: {exc}", flush=True)
                broken += 1
                continue
            status, first, seconds = run_tier1(src)
        if status == 0:
            verdict = "SURVIVED"
            survivors += 1
        elif status == 1:
            verdict = f"killed: {first}"
        else:
            verdict = f"NOT RUN (pytest status {status}): {first}"
            broken += 1
        print(f"{number:2d} {filename}: {why}: {verdict} ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - survivors - broken} of {len(MUTANTS)} killed, {survivors} survived, "
          f"{broken} not run, in {time.monotonic() - total_start:.0f} s")
    return 1 if survivors or broken else 0


if __name__ == "__main__":
    sys.exit(main())
