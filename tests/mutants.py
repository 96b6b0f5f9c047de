"""Named mutations of the code, each with the test node that must kill it.

Run from anywhere: ``python tests/mutants.py``.  pytest does not collect this file.
Each entry of ``MUTANTS`` is (file, exact old text, new text, test node).  The named
nodes must first pass on the tree as it is.  Then, for each entry, the tree is copied
to a temporary directory, the old text is replaced there by the new one, and the node
is run on the copy; the entry is killed when the node fails.  A missing or repeated old
text stops the run, so a refactor that moves the code must restate its mutant.  Exit
status 0 means every mutant was killed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    # each bracket closes on the eigenvalue below its own, the lowest on the Gershgorin bound
    ("src/jchsim/linalg.py",
     "count[:, bracket] > np.arange(n)",
     "count[:, bracket] >= np.arange(n)",
     "tests/test_linalg.py::test_tridiagonal_eigh_multisects_the_uniform_chain_to_its_closed_form[-0.2-96]"),
    # the dense eigenvalues' Rayleigh quotients in double instead of long double
    ("src/jchsim/dynamics.py",
     "ul = u.astype(np.longdouble)",
     "ul = u.astype(float)",
     "tests/test_dynamics.py::test_dense_decides_c_3_4_where_analytic_strays_on_a_resonant_chain"),
    # the dense oracle's photon rows sum g y[i] first, out of ascending column order
    ("src/jchsim/dynamics.py",
     "        hu[1:n] += e[:, None] * x[:-1]\n"
     "        hu[:n] += d[:, None] * x\n"
     "        hu[:n - 1] += e[:, None] * x[1:]\n"
     "        hu[:n] += g * y\n",
     "        hu[:n] += g * y\n"
     "        hu[1:n] += e[:, None] * x[:-1]\n"
     "        hu[:n] += d[:, None] * x\n"
     "        hu[:n - 1] += e[:, None] * x[1:]\n",
     "tests/test_dynamics.py::test_dense_eigenvalues_are_long_double_rayleigh_quotients[odd-47]"),
    # Jacobi's Rayleigh quotients in double instead of long double
    ("src/jchsim/linalg.py",
     'vl = vecs.astype(np.longdouble, order="C")  # the sums round by layout\n'
     "            av = original.astype(np.longdouble) @ vl\n",
     'vl = vecs.astype(float, order="C")\n'
     "            av = original @ vl\n",
     "tests/test_linalg.py::test_jacobi_decomposes_the_wootters_real_forms"),
    # the pair rotation's overflow warning at vanishing g let through
    ("src/jchsim/dynamics.py",
     'with np.errstate(over="ignore"):',
     "if True:",
     "tests/test_dynamics.py::test_dense_oracle_turns_vanishing_couplings_without_warnings[5e-324]"),
    # the chunk engine leaves BLAS on however many threads it found
    ("src/jchsim/experiments.py",
     "    put(1)\n",
     "",
     "tests/test_experiments.py::test_evolve_runs_runs_blas_on_one_thread_and_restores_it[1]"),
    # `jchsim` exits 0 whatever cli_main returns
    ("src/jchsim/cli.py",
     "sys.exit(cli_main(sys.argv[1:]))",
     "cli_main(sys.argv[1:])",
     "tests/test_cli.py::test_python_m_jchsim_cli_exits_with_the_code_of_cli_main[jchsim]"),
    # argparse's own matcher takes -1e-5 and -inf for flags
    ("src/jchsim/cli.py",
     '        self._negative_number_matcher = re.compile(r"-(\\.?\\d|inf|nan)", re.IGNORECASE)\n',
     "",
     "tests/test_cli.py::test_main_exits_with_the_code_of_cli_main[fig4 --g-over -1e-5]"),
    # binary_entropy takes log2(0) at the endpoints
    ("src/jchsim/entanglement.py",
     "q = np.where(edge, 0.5, p)",
     "q = p",
     "tests/test_entanglement.py::test_binary_entropy_endpoints"),
    # the Wootters reference drops the smallest root of the spin-flipped spectrum
    ("tests/wootters_reference.py",
     "lam[0] - lam[1] - lam[2] - lam[3]",
     "lam[0] - lam[1] - lam[2]",
     "tests/test_entanglement.py::test_wootters_werner_states"),
]

# what building, testing and running leave in a tree: not copied
_LEFT_BEHIND = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                      "*.egg-info", "build", "out", "traces")


def run_nodes(tree: Path, nodes) -> subprocess.CompletedProcess:
    """pytest on ``nodes`` in ``tree``, importing that tree's ``src``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *nodes], cwd=tree, env=env, capture_output=True, text=True)


def mutate(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the old text occurs {text.count(old)} times, not once: {old!r}")
    path.write_text(text.replace(old, new), encoding="utf-8")


def main() -> int:
    start = time.perf_counter()
    nodes = list(dict.fromkeys(node for *_, node in MUTANTS))
    clean = run_nodes(ROOT, nodes)
    # every node must run and pass, not be skipped, or a mutant could survive unseen
    if clean.returncode != 0 or f"{len(nodes)} passed" not in clean.stdout.splitlines()[-1]:
        print(clean.stdout, clean.stderr, sep="\n")
        print("the named nodes do not all pass on the tree as it is")
        return 1
    survivors = 0
    for file, old, new, node in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "tree"
            shutil.copytree(ROOT, tree, ignore=_LEFT_BEHIND)
            mutate(tree, file, old, new)
            done = run_nodes(tree, [node])
        # exit status 1 is a failed test; a collection error or a missing node is not a kill
        killed = done.returncode == 1
        survivors += not killed
        print(f"{'killed' if killed else 'SURVIVED'}  {file}: {old.strip()!r} -> {new.strip()!r}"
              f"  by {node}")
        if not killed:
            print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed"
          f" in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
