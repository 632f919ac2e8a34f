"""Run a fixed list of CLI commands in-process and print what each wrote.

Every command runs through ``schmidt_lab.cli.main`` with its standard output
captured. The script prints one JSON line per command,
``[argv, exit code, stdout]``, with the temporary directory that holds the
gate files written as ``$T``, so the output does not depend on where it ran.
Run it at two commits and compare the files to check that a change keeps
the CLI's stdout and exit codes byte-identical:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/cli_stdout_set.py > stdout_set.jsonl

Keep the BLAS thread count the same at both commits: the `detect --bcu`
projectors of the 8 x 8 gates move with it. Then

    python tools/cli_stdout_set.py --compare parent.jsonl change.jsonl

prints each command whose exit code or stdout differs, with the largest
absolute and the largest relative change of any number in its stdout and,
when both stdouts are JSON, the dotted paths of the values that differ
(``payload.blocks``), and exits 1 on any difference.

``tools/cli_stdout_set.golden`` holds one JSON line per command,
``[argv, exit code, sha256 of stdout]``, and the tests check the set against
it. A change that moves output on purpose rewrites it with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/cli_stdout_set.py --write-golden

``--compare`` takes a golden on either side; stdouts are then compared by
their sha256, and a moved one reads ``stdout differs``. Help text is wrapped
at 80 columns whatever the terminal.

The list covers every subcommand and every protocol route: random-controlled
d x d gates (d = 2, 3, 4, 8, r = 1..min(3, d), seeds 0, 1, 5) and 3 x 5 of
rank 3, the named multipartite gates, a Haar 9 x 9 gate as 3 x 3, three
near misses of a rank-2 4 x 4 gate at 1e-7 and three within the verdict
tolerance at 3e-9, a Haar 4 x 4 gate, which its Schmidt tail refutes, and a
rank-2 6 x 6 gate at 1e-4, whose tail past the control levels lies above
the near-miss ceiling but which has only two significant Schmidt factors
(both through ``detect`` and ``detect --bcu``; the 6 x 6 gate also through
``protocol --route teleport``, exhaustive and with ``--branches 4``),
the four fuzz suites, one construction of every registered gate with fixed
``--params`` (``u3`` also with ``--out``), six refused constructions (an
unknown gate, then ``u-odd-n`` with bad ``--params``), ``detect --side A`` and
``--side x`` on the three-qubit gate, a gate file of invalid JSON, a gate
file with a string real part, one with a ``true`` entry and a ``protocol
--input`` state with a string amplitude (all three refused), two usage
errors (``protocol`` with no ``--route``, ``decompose --warp``), a rank-one
controlled run with ``--branches 0`` (refused like every form), a missing
file, an empty, an out-of-range, a full, an unsorted (``1,0``) and a repeated
(``0,0``) cut through every command that reads one, ``detect --verbose`` on
``u3`` (refuted) and on a controlled 3 x 3 gate, ``detect --bcu`` on a 1e-7
near miss (inconclusive) and with ``--tol 1e-5 --verbose`` (its split passes),
an out-of-range cut with a bad ``--tol`` through ``decompose`` and
both ``schmidt-number`` modes (the tolerance is named), ``decompose
--verbose``, ``schmidt-number --ancilla`` and ``schmidt-number --restarts 2``
at ``--tol`` 1e-5 and 1e-3 on the 8 x 8 gates of rank 3 (seed 1) and rank 2
(seed 0), whose cuts are sketched, ``schmidt-number --ancilla --cut 0`` on
every named gate and ``--cut 0,1`` on the multipartite ones, ``decompose`` of
the four-qubit gate across ``0,1`` at 1e-5, the 3 x 5 gate fed a state on
dims [3, 5] and one on [5, 3] (refused), and ``detect --side`` on every singleton
and pair of ``u3``, the four-qubit gate, ``padded-2x2xn(3)`` and a permuted,
scrambled ``u3``, the subsets the multipartite sweep decides as stacks, and ``--help``
at the top level and on each subcommand: 592 commands.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
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
MULTIPARTITE = ("u3", "four-qubit", "even-qubit-rank3-6")
# gates whose every singleton and pair is detected on its own: each subset the multipartite
# sweep decides in a stack, decided alone
SWEPT = {
    "u3": gates.u3,
    "four-qubit": gates.four_qubit_example,
    "padded-2x2x3": lambda: gates.padded_2x2xn(3),
    "permuted-u3": lambda: _permuted_u3(11),
}

# exp(eps i H) times rc d x d r2, H = random_hermitian(d^2, make_rng(8)): for d = 4, near misses
# at 1e-7, and at 3e-9 gates the detector certifies with witnesses up to 1.2e-10 off unitary
NEAR_MISS_SEEDS = (0, 1, 2)

# one fixed parameter set per registered gate besides u3
CONSTRUCT_PARAMS = {
    "pauli": {"i": 2},
    "swap": {},
    "u-odd-n": {"n": 5},
    "four-qubit": {},
    "padded-2x2xn": {"n": 3},
    "even-qubit-rank3": {"n": 4},
    "random-controlled": {"d_ctrl": 3, "d_tgt": 2, "r": 2, "seed": 7},
    "random-unitary": {"dim": 4, "seed": 3},
}
# a file written next to the gates that does not parse
INVALID_JSON = "invalid.json"
GOLDEN = Path(__file__).with_suffix(".golden")


def _rc_name(d_c, d_t, r, seed):
    return f"rc-{d_c}x{d_t}-r{r}-s{seed}"


def _permuted_u3(seed):
    base, layout = gates.u3()
    u = gates.random_local_scramble(base, layout, seed=seed)
    perm = tuple(int(i) for i in make_rng(seed, stream=99).permutation(3))
    return mx.permute_systems(u, layout, perm), layout


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
    for name, build in {**NAMED, **SWEPT}.items():
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


def refused_entry_files() -> dict:
    """``{file name: JSON}``: two gates and a state, each with one value written as a string or a bool (refused)."""
    string_entry = mx.matrix_to_json(*gates.u3())
    string_entry["data"][0][0] = repr(string_entry["data"][0][0])
    true_entry = mx.matrix_to_json(*gates.swap_gate())
    true_entry["data"][0][0] = True  # in place of swap's leading 1
    string_amplitude = state_files()["state-3x5.json"]
    string_amplitude["amplitudes"][0][0] = repr(string_amplitude["amplitudes"][0][0])
    return {"string-entry.json": string_entry, "true-entry.json": true_entry, "string-amplitude.json": string_amplitude}


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
            ["schmidt-number", path, "--ancilla", "--cut", "0"],
        ]
        if name in MULTIPARTITE:
            argvs.append(["schmidt-number", path, "--ancilla", "--cut", "0,1"])
    for name, build in SWEPT.items():
        n = len(build()[1])
        sides = [str(i) for i in range(n)] + [f"{i},{j}" for i in range(n) for j in range(i + 1, n)]
        argvs += [["detect", f"$T/{name}.json", "--side", side] for side in sides if name not in NAMED or side not in ("0", "0,1")]
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
    argvs += [
        ["detect", f"$T/{name}.json", "--side", "A", *bcu]
        for name in ("haar-4x4", "few-factors-far-6x6")
        for bcu in ([], ["--bcu"])
    ]
    # a teleported side of 6, off the sizes the random-controlled gates give it
    argvs += [
        ["protocol", "$T/few-factors-far-6x6.json", "--route", "teleport", *branches]
        for branches in (["--verbose"], ["--branches", "4"])
    ]
    argvs += [["fuzz", "--theorem", suite, "--trials", "20", "--seed", "4"] for suite in FUZZ_SUITES]
    argvs += [["construct", "--gate", gate, "--params", json.dumps(params)] for gate, params in CONSTRUCT_PARAMS.items()]
    argvs += [["construct", "--gate", "perpetual-motion"], ["construct", "--gate", "u3", "--out", "$T/u3-out.json"]]
    argvs += [
        ["construct", "--gate", "u-odd-n", "--params", params]
        for params in ("not json", "[5]", '{"n": 5.0}', '{"m": 5}', '{"n": 4}')
    ]
    argvs += [["detect", "$T/u3.json", "--side", side] for side in ("A", "x")]
    argvs += [["detect", f"$T/{name}", "--side", "0"] for name in ("string-entry.json", "true-entry.json")]
    rc_3x5 = f"$T/{_rc_name(3, 5, 3, 1)}.json"
    argvs.append(["protocol", rc_3x5, "--route", "teleport", "--input", "$T/string-amplitude.json"])
    argvs += [
        ["detect", f"$T/{INVALID_JSON}", "--side", "0"],
        ["protocol", "$T/u3.json"],
        ["decompose", "$T/u3.json", "--warp"],
    ]
    argvs += [
        ["construct", "--gate", "u3"],
        ["protocol", f"$T/{_rc_name(3, 3, 1, 0)}.json", "--route", "controlled", "--branches", "0"],
        ["decompose", "$T/missing.json"],
        ["detect", "$T/u3.json", "--side", "0", "--verbose"],
        ["detect", f"$T/{_rc_name(3, 3, 2, 0)}.json", "--side", "A", "--verbose"],
        ["detect", "$T/near-miss-s0.json", "--side", "A", "--bcu"],
        ["detect", "$T/near-miss-s0.json", "--side", "A", "--bcu", "--tol", "1e-5", "--verbose"],
    ]
    for cut in ("", "3", "0,1,2", "1,0", "0,0"):
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
        [*command, "--tol", "2", "--cut", "5"]
        for command in (["decompose", "$T/u3.json"], ["schmidt-number", "$T/u3.json"], ["schmidt-number", "$T/u3.json", "--ancilla"])
    ]
    argvs += [
        [*command, "--tol", tol]
        for name in (_rc_name(8, 8, 3, 1), _rc_name(8, 8, 2, 0))
        for tol in ("1e-5", "1e-3")
        for command in (
            ["decompose", f"$T/{name}.json", "--verbose"],
            ["schmidt-number", f"$T/{name}.json", "--ancilla"],
            ["schmidt-number", f"$T/{name}.json", "--restarts", "2"],
        )
    ]
    argvs.append(["decompose", "$T/four-qubit.json", "--cut", "0,1", "--tol", "1e-5"])
    argvs += [
        ["protocol", f"$T/{_rc_name(3, 5, 3, 1)}.json", "--route", route, "--input", f"$T/{state}"]
        for state in state_files()
        for route in ("teleport", "controlled")
    ]
    subcommands = ("decompose", "detect", "construct", "protocol", "schmidt-number", "fuzz")
    argvs += [["--help"]] + [[command, "--help"] for command in subcommands]
    return argvs


def run():
    """Yield ``[argv, exit code, stdout]`` for every command of the set."""
    os.environ["COLUMNS"] = "80"  # argparse wraps help text at the terminal width
    with tempfile.TemporaryDirectory() as tmp:
        for name, (u, dims) in gate_files().items():
            Path(tmp, name).write_text(json.dumps(mx.matrix_to_json(u, dims)))
        for name, obj in {**state_files(), **refused_entry_files()}.items():
            Path(tmp, name).write_text(json.dumps(obj))
        Path(tmp, INVALID_JSON).write_text("{not json")
        for argv in commands():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([arg.replace("$T", tmp) for arg in argv])
            yield [argv, code, stdout.getvalue().replace(tmp, "$T")]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def largest_changes(a: str, b: str) -> tuple | None:
    """Largest ``|x - y|`` and largest ``|x - y| / max(|x|, |y|)`` over the numbers of two texts, paired in order.

    None when the texts differ anywhere but in their numbers.
    """
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    pairs = [(float(x), float(y)) for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))]
    moves = [(abs(x - y), abs(x - y) / max(abs(x), abs(y))) for x, y in pairs if x != y] or [(0.0, 0.0)]
    return tuple(map(max, zip(*moves)))


def moved_paths(a: str, b: str) -> list:
    """The dotted key paths at which two JSON texts differ, in first-seen order; a list or a scalar is one value.

    Empty when either text is not JSON.
    """
    try:
        a, b = json.loads(a), json.loads(b)
    except ValueError:
        return []
    paths = []

    def walk(x, y, path):
        if isinstance(x, dict) and isinstance(y, dict):
            for key in [*x, *(key for key in y if key not in x)]:
                walk(x.get(key), y.get(key), f"{path}.{key}" if path else key)
        elif x != y:
            paths.append(path or "(root)")

    walk(a, b, "")
    return paths


def _results(path, hashed: bool) -> dict:
    """``{argv: (exit code, stdout)}`` of a set, or of a golden; ``hashed`` puts each stdout's sha256 in its place."""
    with open(path) as f:
        rows = {tuple(argv): (code, stdout) for argv, code, stdout in map(json.loads, f)}
    if hashed and not str(path).endswith(".golden"):
        rows = {argv: (code, _sha256(stdout)) for argv, (code, stdout) in rows.items()}
    return rows


def compare(path_a, path_b) -> int:
    """Print every command whose exit code or stdout differs between two sets; 1 if any does."""
    hashed = any(str(path).endswith(".golden") for path in (path_a, path_b))
    a, b = _results(path_a, hashed), _results(path_b, hashed)
    differing = 0
    for argv in [*a, *(argv for argv in b if argv not in a)]:
        if a.get(argv) == b.get(argv):
            continue
        differing += 1
        if argv not in a or argv not in b:
            print(f"{' '.join(argv)}: only in {path_a if argv in a else path_b}")
            continue
        (code_a, out_a), (code_b, out_b) = a[argv], b[argv]
        notes = [f"exit {code_a} -> {code_b}"] if code_a != code_b else []
        if out_a != out_b and hashed:
            notes.append("stdout differs")
        elif out_a != out_b:
            changes = largest_changes(out_a, out_b)
            notes.append("text differs" if changes is None else "largest change {:.3e} absolute, {:.3e} relative".format(*changes))
            paths = moved_paths(out_a, out_b)
            if paths:
                notes.append(f"at {', '.join(paths)}")
        print(f"{' '.join(argv)}: {'; '.join(notes)}")
    print(f"{differing} of {len(a.keys() | b.keys())} commands differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the CLI stdout set, or compare two of its outputs.")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two JSONL outputs of this script, or a golden")
    parser.add_argument("--write-golden", action="store_true", help=f"write the exit codes and stdout digests to {GOLDEN.name}")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.write_golden:
        GOLDEN.write_text("".join(json.dumps([argv, code, _sha256(stdout)]) + "\n" for argv, code, stdout in run()))
        return 0
    for row in run():
        sys.stdout.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
