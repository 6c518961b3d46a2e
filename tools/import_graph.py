"""What importing the package's entry points loads, in a fresh interpreter.

For each target it starts a new ``python -B -X importtime`` process, runs
the target's import statement and prints the ``repro`` modules loaded,
their lines of code (non-blank lines that are not comments or
docstrings, counted with :mod:`tokenize`),
the heavyweight standard-library modules among the rest, and the largest
self times that ``-X importtime`` reports::

    PYTHONPATH=src python tools/import_graph.py [--top N] [TARGET ...]

A TARGET is a module name, imported with its whole public surface
(``from TARGET import *``), or a full import statement.  The default
targets are ``repro.harness``, ``repro.cluster`` and ``repro.cli``.
:func:`probe` is the same measurement as a function; the import-graph
tests use it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEFAULT_TARGETS = ("repro.harness", "repro.cluster", "repro.cli")
#: standard-library modules that a single-process run has no use for
HEAVY_STDLIB = ("multiprocessing", "concurrent.futures", "socket",
                "subprocess", "logging", "queue", "selectors")

_REPORT = """
import json, sys, tokenize
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    # lines holding a token other than a comment or a docstring (a
    # string that is a whole statement)
    lines, before = set(), tokenize.NEWLINE
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    for i, tok in enumerate(tokens):
        after = tokens[i + 1].type if i + 1 < len(tokens) else None
        doc = (tok.type == tokenize.STRING and after == tokenize.NEWLINE
               and before in (tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENCODING))
        if tok.type not in SKIP and not doc:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        before = tok.type
    return len(lines)


mods = {}
for name, module in list(sys.modules.items()):
    if name == "repro" or name.startswith("repro."):
        mods[name] = code_lines(getattr(module, "__file__", None))
print(json.dumps({"repro": mods, "all": sorted(sys.modules)}))
"""


def statement(target: str) -> str:
    """The import statement a target stands for."""
    return target if " " in target else f"from {target} import *"


def probe(code: str, *, path: tuple[str, ...] = (SRC,)) -> dict:
    """Run ``code`` in a fresh interpreter and report what it loaded.

    Returns ``repro`` (module name -> lines of code), ``all`` (every
    module name in ``sys.modules``) and ``importtime`` (``(self_us,
    cumulative_us, module)`` per ``-X importtime`` line).  ``path`` is
    put first on ``PYTHONPATH``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [*path, env["PYTHONPATH"]] if env.get("PYTHONPATH") else path)
    proc = subprocess.run(
        [sys.executable, "-B", "-X", "importtime", "-c", code + _REPORT],
        capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    times = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, module = line[len("import time:"):].split("|")
        times.append((int(self_us), int(cumulative_us), module.strip()))
    report["importtime"] = times
    return report


def format_report(target: str, report: dict, top: int) -> str:
    repro = report["repro"]
    heavy = [m for m in HEAVY_STDLIB if m in report["all"]]
    slowest = sorted(report["importtime"], reverse=True)[:top]
    lines = [
        statement(target),
        f"  repro modules: {len(repro)} ({sum(repro.values()):,} lines of "
        f"code); all modules: {len(report['all'])}",
        f"  heavy stdlib: {', '.join(heavy) or 'none'}",
        "  top self times (-X importtime, ms): " + ", ".join(
            f"{module} {self_us / 1e3:.1f}"
            for self_us, _cum, module in slowest),
    ]
    listing = ", ".join(f"{m} {repro[m]}" for m in sorted(repro))
    lines.append(textwrap.fill(listing, width=79,
                               initial_indent="  loaded (lines): ",
                               subsequent_indent="    "))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="*", default=list(DEFAULT_TARGETS))
    parser.add_argument("--top", type=int, default=8,
                        help="self times to print per target")
    args = parser.parse_args(argv)
    for target in args.targets:
        print(format_report(target, probe(statement(target)), args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
