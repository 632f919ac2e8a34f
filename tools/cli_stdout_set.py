"""Run a fixed list of CLI commands in-process and print what each wrote.

Every command runs through ``schmidt_lab.cli.main`` with its standard output
captured. The script prints one JSON line per command,
``[argv, exit code, stdout]``, with the temporary directory that holds the
gate files written as ``$T``, so the output does not depend on where it ran.
Run it at two commits and compare the files to check that a change keeps
the CLI's stdout and exit codes byte-identical:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/cli_stdout_set.py > stdout_set.jsonl

Keep the BLAS thread count the same at both commits: the `detect --bcu`
projectors of the 8 x 8 gates move with it.

The list covers every subcommand and every protocol route: random-controlled
d x d gates (d = 2, 3, 4, 8, r = 1..min(3, d), seeds 0, 1, 5) and 3 x 5 of
rank 3, the named multipartite gates, a Haar 9 x 9 gate as 3 x 3, three
near misses of a rank-2 4 x 4 gate at 1e-7 and three within the verdict
tolerance at 3e-9, a Haar 4 x 4 gate, which its Schmidt tail refutes, a
rank-2 6 x 6 gate at 1e-4, whose tail past the control levels lies above
the near-miss ceiling but which has only two significant Schmidt factors,
the four fuzz suites, one construction, a rank-one
controlled run with ``--branches 0`` (refused like every form), a missing
file, an empty, an out-of-range and a full cut through every command that
reads one, and the 3 x 5 gate fed a state on dims [3, 5] and one on [5, 3]
(refused): 494 commands.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from schmidt_lab import cli, gates
from schmidt_lab import matrices as mx
from schmidt_lab.control import FUZZ_SUITES
from schmidt_lab.matrices import SystemLayout
from schmidt_lab.randomness import haar_unitary, make_rng, random_hermitian, random_state

RANDOM_CONTROLLED = [
    (d, d, r, seed) for d in (2, 3, 4, 8) for r in range(1, min(3, d) + 1) for seed in (0, 1, 5)
] + [(3, 5, 3, 1)]

NAMED = {
    "u3": gates.u3,
    "swap": gates.swap_gate,
    "four-qubit": gates.four_qubit_example,
    "even-qubit-rank3-6": lambda: gates.even_qubit_rank3(6),
    "haar-9-as-3x3": lambda: (haar_unitary(9, make_rng(9)), SystemLayout.of((3, 3))),
}

# exp(eps i H) times rc d x d r2, H = random_hermitian(d^2, make_rng(8)): for d = 4, near misses
# at 1e-7, and at 3e-9 gates the detector certifies with witnesses up to 1.2e-10 off unitary
NEAR_MISS_SEEDS = (0, 1, 2)



def _rc_name(d_c, d_t, r, seed):
    return f"rc-{d_c}x{d_t}-r{r}-s{seed}"


def _near_miss(seed, eps, d=4):
    u, layout = gates.random_controlled_unitary(d, d, 2, seed=seed)
    w, v = np.linalg.eigh(random_hermitian(d * d, make_rng(8)))
    return (v * np.exp(1j * eps * w)) @ v.conj().T @ u, tuple(layout.dims)


def gate_files() -> dict:
    """``{file name: (matrix, dims)}`` for every gate a command reads."""
    files = {}
    for d_c, d_t, r, seed in RANDOM_CONTROLLED:
        u, layout = gates.random_controlled_unitary(d_c, d_t, r, seed=seed)
        files[_rc_name(d_c, d_t, r, seed) + ".json"] = (u, tuple(layout.dims))
    for name, build in NAMED.items():
        u, layout = build()
        files[name + ".json"] = (u, tuple(layout.dims))
    for seed in NEAR_MISS_SEEDS:
        files[f"near-miss-s{seed}.json"] = _near_miss(seed, 1e-7)
        files[f"certified-near-miss-s{seed}.json"] = _near_miss(seed, 3e-9)
    files["haar-4x4.json"] = (haar_unitary(16, make_rng(4)), (4, 4))
    files["few-factors-far-6x6.json"] = _near_miss(0, 1e-4, d=6)
    return files


def state_files() -> dict:
    """``{file name: state JSON}``: one state of the 3 x 5 gate's total on its dims and on [5, 3]."""
    psi = random_state(15, make_rng(15))
    return {f"state-{a}x{b}.json": mx.state_to_json(psi, (a, b)) for a, b in ((3, 5), (5, 3))}


def commands() -> list:
    """Every argv of the set, with gate paths under ``$T``."""
    argvs = []
    for d_c, d_t, r, seed in RANDOM_CONTROLLED:
        path = f"$T/{_rc_name(d_c, d_t, r, seed)}.json"
        argvs += [
            ["detect", path, "--side", "A"],
            ["detect", path, "--side", "B"],
            ["detect", path, "--side", "A", "--bcu"],
            ["decompose", path, "--verbose"],
            ["protocol", path, "--route", "controlled", "--seed", "3", "--verbose"],
            ["protocol", path, "--route", "controlled", "--branches", "3", "--seed", "1"],
            ["schmidt-number", path, "--ancilla"],
            ["protocol", path, "--route", "teleport", "--verbose"],
            ["protocol", path, "--route", "teleport", "--branches", "4"],
            ["protocol", path, "--route", "cost"],
            ["protocol", path, "--route", "cost", "--terms", str(r)],
            ["schmidt-number", path, "--restarts", "4"],
        ]
    for name in NAMED:
        path = f"$T/{name}.json"
        argvs += [
            ["detect", path, "--side", "0"],
            ["detect", path, "--side", "0,1"],
            ["detect", path, "--side", "0", "--bcu"],
            ["decompose", path, "--verbose"],
            ["protocol", path, "--route", "teleport", "--verbose"],
            ["protocol", path, "--route", "controlled", "--side", "0", "--verbose"],
            ["protocol", path, "--route", "controlled", "--side", "0,1"],
            ["protocol", path, "--route", "cost"],
        ]
    for seed in NEAR_MISS_SEEDS:
        path = f"$T/near-miss-s{seed}.json"
        argvs += [
            ["detect", path, "--side", "A"],
            ["detect", path, "--side", "A", "--tol", "1e-5"],
            ["protocol", path, "--route", "controlled"],
        ]
        path = f"$T/certified-near-miss-s{seed}.json"
        argvs += [
            ["detect", path, "--side", "A"],
            ["protocol", path, "--route", "controlled"],
        ]
    argvs += [["detect", f"$T/{name}.json", "--side", "A"] for name in ("haar-4x4", "few-factors-far-6x6")]
    argvs += [["fuzz", "--theorem", suite, "--trials", "20", "--seed", "4"] for suite in FUZZ_SUITES]
    argvs += [
        ["construct", "--gate", "u3"],
        ["protocol", f"$T/{_rc_name(3, 3, 1, 0)}.json", "--route", "controlled", "--branches", "0"],
        ["decompose", "$T/missing.json"],
    ]
    for cut in ("", "3", "0,1,2"):
        argvs += [
            [*command, cut]
            for command in (
                ["decompose", "$T/u3.json", "--cut"],
                ["detect", "$T/u3.json", "--side"],
                ["detect", "$T/u3.json", "--bcu", "--side"],
                ["schmidt-number", "$T/u3.json", "--restarts", "1", "--cut"],
                ["schmidt-number", "$T/u3.json", "--ancilla", "--cut"],
                ["protocol", "$T/u3.json", "--route", "controlled", "--side"],
            )
        ]
    argvs += [
        ["protocol", f"$T/{_rc_name(3, 5, 3, 1)}.json", "--route", route, "--input", f"$T/{state}"]
        for state in state_files()
        for route in ("teleport", "controlled")
    ]
    return argvs


def run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, (u, dims) in gate_files().items():
            Path(tmp, name).write_text(json.dumps(mx.matrix_to_json(u, dims)))
        for name, state in state_files().items():
            Path(tmp, name).write_text(json.dumps(state))
        for argv in commands():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([arg.replace("$T", tmp) for arg in argv])
            sys.stdout.write(json.dumps([argv, code, stdout.getvalue().replace(tmp, "$T")]) + "\n")


if __name__ == "__main__":
    run()
