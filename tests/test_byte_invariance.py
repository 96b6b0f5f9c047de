"""CI's byte loop in one process: no command's bytes depend on the worker or BLAS thread count.

Each command of ``COMMANDS`` runs through ``cli_main`` four times: with
``experiments.worker_count`` at 1 and at 2, each with numpy's OpenBLAS set to
1 and to 2 threads before the call (and restored after).  Every run must exit 0
and print, and write, the same bytes.  Each setting runs in a directory of its
own under the same relative ``--out``, so the ``wrote ...`` lines compare too.
CI's loop imports ``CONFIGS`` and ``COMMANDS`` from here and keeps the
subprocess half: the real ``OPENBLAS_NUM_THREADS`` at interpreter start and the
real CPU affinity under ``taskset``.
"""

from pathlib import Path

import pytest

from jchsim import experiments
from jchsim.cli import cli_main

CONFIGS = {
    "sweep.cfg": "n = 101\ng_list = 0.01,1,100\nsamples = 600\nt_max = 50\npairs = 45:57,50:52\n",
    "dense.cfg": "n = 48\ng = 2\nmethod = dense\nsamples = 600\nt_max = 30\npairs = 20:29,24:25\n",
    "dense96.cfg": "n = 96\ng = 1\nmethod = dense\nsamples = 600\nt_max = 30\npairs = 40:57,48:49\n",
    # an odd N gives the chain a mode at exactly its cavity frequency, 0 here
    "dense47.cfg": "n = 47\ng = 1.5\nmethod = dense\nsamples = 600\nt_max = 30\npairs = 20:28,23:25\n",
    # g far above J: each mode-atom rotation mixes a photon mode with its atom half and half
    "dense12.cfg": "n = 12\ng = 1.3e8\nmethod = dense\nsamples = 600\nt_max = 7e-3\n",
    # g so small that a mode-atom rotation angle's theta overflows to inf: the identity
    "dense-tiny.cfg": "n = 9\ng = 1e-310\nmethod = dense\nsamples = 600\nt_max = 30\n",
    # n = 3 at max|E| * t = 9.4e5, detuned: a chain mode at exactly omega_c and one 2-row chunk
    "dense3.cfg": ("n = 3\ng = 2406446.6493437905\nomega_c = 2.7820912213109334\n"
                   "omega_a = 1.8812031391982682\nx0 = 3\nsamples = 2\n"
                   "t_max = 0.39176063335315314\npairs = 2:3\n"),
    # the effective propagators and the mode table, detuned, at an odd N
    "detuned47.cfg": ("n = 47\ng = 1.5\nomega_a = 0.3\nsamples = 600\nt_max = 30\n"
                      "pairs = 20:28,23:25\n"),
    # the weak and strong tables at the models of the fig2 and fig3 presets
    "weak41.cfg": ("n = 41\ng = 0.001\nsamples = 2048\nt_max = 12566.370614359172\n"
                   "pairs = 21:33,31:33\n"),
    "strong101.cfg": ("n = 101\ng = 1000\nsamples = 600\nt_max = 31.41592653589793\n"
                      "pairs = 45:57,50:52\n"),
}

# fig4 at g/J = 97.3 maps N = 201 in eight chunks, the heaviest preset; the dense
# runs on dense3.cfg and detuned47.cfg are the loop's oracles with omega_a != omega_c
COMMANDS = [
    "sweep --config sweep.cfg", "fig2", "fig4 --g-over-j 10", "fig3", "fig4 --g-over-j 97.3",
    "evolve --config dense.cfg --method analytic", "evolve --config dense.cfg",
    "evolve --config dense96.cfg", "evolve --config dense47.cfg", "evolve --config dense12.cfg",
    "evolve --config dense-tiny.cfg", "evolve --config dense3.cfg --method dense",
    "evolve --config detuned47.cfg --method dense",
    "evolve --config detuned47.cfg --method weak", "evolve --config detuned47.cfg --method strong",
    "modes --config detuned47.cfg", "evolve --config weak41.cfg --method weak",
    "evolve --config strong101.cfg --method strong",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_command_bytes_depend_on_no_worker_or_blas_thread_count(tmp_path, monkeypatch, capsys,
                                                                  command):
    threads = experiments._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not its bundled scipy-openblas: no thread count to set")
    get, put = threads
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / word) if word in CONFIGS else word for word in command.split()]
    runs = {}
    for workers in (1, 2):
        for blas in (1, 2):
            monkeypatch.setattr(experiments, "worker_count", lambda: workers)
            run_dir = tmp_path / f"workers{workers}-blas{blas}"
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            old = get()
            put(blas)
            try:
                code = cli_main([*argv, "--out", "out"])
            finally:
                put(old)
            files = {str(path): path.read_bytes() for path in Path("out").rglob("*")}
            runs[workers, blas] = code, capsys.readouterr(), files
    _, printed, files = runs[1, 1]
    assert printed.out.count("wrote ") == len(files) > 0
    for setting, (code, got, got_files) in runs.items():
        changed = sorted(name for name in files.keys() | got_files.keys()
                         if got_files.get(name) != files.get(name))
        assert (code, got, changed) == (0, printed, []), f"workers, BLAS threads = {setting}"
