#!/usr/bin/env python3
"""Print the src statements that no driver other than the tests reaches.

Runs three drivers under one line tracer:

- the jobs and output checks of bench/workloads.py for the given seeds, at
  the reference scale, each seed from a cold flow memo;
- the CLI forms of README.md's CLI section, in order, then the sparsify and
  verify forms it leaves out, all in a temporary directory;
- the two experiment scripts with the arguments README.md gives them.

Then prints, per src file, each outermost statement none of them reached,
as its line range and first line.  `raise` statements are skipped: an
error path no driver takes is expected.  Nothing is written inside the
repository (no bytecode either).  Two seeds take a few minutes:

    python3 scripts/unreached_lines.py --seeds 1 2
"""

import argparse
import ast
import contextlib
import io
import os
import runpy
import shlex
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flowsparse"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

# The sparsify and verify forms README.md's CLI block leaves out, run after
# it has written g.json, sample.json, sp.json and tw.json.
METHOD_FORMS = [
    "verify --g g.json --gp sample.json --demands random:10:1 --claim 1.5 --out sample.rep.json",
    "gen --kind bounded-component --k 4 --n 40 --w 3 --seed 4 --out bc.json",
    "sparsify --method sample --w 3 --M 50 --seed 7 --graph bc.json --out grouped.json",
    "verify --g bc.json --gp grouped.json --demands random:10:1 --claim 1.5 --out grouped.rep.json",
    "sparsify --method sp --graph sp.json --out sp.h.json",
    "verify --g sp.json --gp sp.h.json --demands basis --claim 1 --cuts --out sp.rep.json",
    "sparsify --method treewidth --graph tw.json --tdec tw.td.json --leaf mimick --out tw.h.json",
    "verify --g tw.json --gp tw.h.json --demands basis --claim 1 --cuts --out tw.rep.json",
]

reached: set[tuple[str, int]] = set()


def _trace_lines(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(SRC)):
        return _trace_lines
    return None


def readme_blocks() -> list[str]:
    """The lines of README.md's ```bash blocks."""
    lines, inside = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            inside = line.strip() == "```bash"
        elif inside:
            lines.append(line)
    return lines


def run_bench(seeds) -> str:
    import workloads

    counts = Counter()
    for name, (make, check) in workloads.WORKLOADS.items():
        for seed in seeds:
            jobs = make(seed, workloads.REF_SECONDS)
            outputs = [job() for _, job in jobs]
            counts[name] += len(check(seed, jobs, outputs))
    return f"bench: seeds {list(seeds)}, check problems {dict(counts)}"


def run_cli() -> str:
    """Runs the forms in order; an `echo TEXT > FILE` line writes the file.
    Names each form that exits non-zero, with its first stderr line (its
    last stdout line when stderr is empty, as for a failed verdict)."""
    from flowsparse.cli import main

    forms = [shlex.split(line, comments=True) for line in readme_blocks()
             if line.startswith(("flowsparse ", "echo "))]
    forms += [["flowsparse", *shlex.split(form)] for form in METHOD_FORMS]
    codes, failed = Counter(), []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in forms:
                if argv[0] == "echo":
                    Path(argv[3]).write_text(argv[1])
                    continue
                with contextlib.redirect_stdout(io.StringIO()) as out, \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main(argv[1:])
                codes[code] += 1
                if code:
                    said = (err.getvalue().splitlines()[:1]
                            or out.getvalue().splitlines()[-1:] or [""])[0]
                    failed.append(f"  exit {code}: {shlex.join(argv)}: {said}")
        finally:
            os.chdir(cwd)
    return "\n".join([f"cli: {sum(codes.values())} forms, exit codes "
                      f"{dict(sorted(codes.items()))}", *failed])


def run_experiments() -> str:
    ran = []
    for line in readme_blocks():
        argv = shlex.split(line, comments=True) if line.startswith("python ") else []
        if argv[1:] and argv[1].endswith("_experiment.py"):
            saved = sys.argv
            sys.argv = argv[1:]
            try:
                runpy.run_path(str(ROOT / argv[1]), run_name="__main__")
            finally:
                sys.argv = saved
            ran.append(Path(argv[1]).name)
    return f"experiments: {ran}"


def unreached(path: Path) -> list[tuple[int, int, int]]:
    """(first line, last line, executable lines) of each outermost statement
    of the file with no reached line, `raise` statements left out."""
    text = path.read_text()
    executable = set()
    stack = [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        executable |= {line for _, _, line in code.co_lines() if line is not None}
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    hit = {line for name, line in reached if name == str(path)}
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                visit(child)
                continue
            first = min([child.lineno] + [d.lineno for d in
                                          getattr(child, "decorator_list", [])])
            span = set(range(first, child.end_lineno + 1))
            if span & hit:
                visit(child)
            elif span & executable and not isinstance(child, ast.Raise):
                out.append((first, child.end_lineno, len(span & executable)))
    visit(ast.parse(text))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args()
    summaries = []
    sys.settrace(_trace_calls)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            summaries.append(run_bench(args.seeds))
            summaries.append(run_cli())
            summaries.append(run_experiments())
    finally:
        sys.settrace(None)
    for line in summaries:
        print(line, file=sys.stderr)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        found = unreached(path)
        total += len(found)
        lines = path.read_text().splitlines()
        print(f"{path.relative_to(ROOT)}: {len(found)} statements, "
              f"{sum(n for _, _, n in found)} lines")
        for first, last, _ in found:
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {span}: {lines[first - 1].strip()}")
    print(f"total: {total} statements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
