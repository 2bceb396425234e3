"""Run one ``cml3`` CLI command with spans recorded around each layer.

Usage: python3 perfbench/tracer.py SPAN_FILE -- ARG...

The command's stdout and exit code are those of ``python3 -m cml3.cli ARG...``;
the benchmark checks that the bytes are identical.  Spans are recorded from
outside the package: each public entry point is replaced, at the module
where callers look it up, by a wrapper that records a span (name, start, end,
parent) and the sizes of its input and output.  Spans stay in memory and are
written to SPAN_FILE when the command ends.  Jobs run with one thread, so a
single stack gives every span its parent.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# span columns; one entry per call, in the order the calls started
_name = array("i")
_parent = array("i")
_start = array("d")
_end = array("d")
_n_in = array("q")
_n_out = array("q")
_aux = array("q")
_stack: list[int] = []
NAMES: list[str] = []


def _len_in(args):
    return len(args[0])


def _pairs_in(args):
    return len(args[0]) * len(args[1])


def _len_out(result):
    return len(result)


def _nothing(_):
    return 0


def _wrap(name: str, fn, size_in=None, size_out=_nothing):
    name_id = len(NAMES)
    NAMES.append(name)

    def traced(*args, **kwargs):
        idx = len(_start)
        _name.append(name_id)
        _parent.append(_stack[-1] if _stack else -1)
        _n_in.append(size_in(args) if size_in else 0)
        _n_out.append(0)
        _aux.append(0)
        _end.append(0.0)
        _stack.append(idx)
        _start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            _end[idx] = perf_counter()
            _stack.pop()
        _n_out[idx] = size_out(result)
        return result

    return traced


def _wrap_gf3(name: str, fn, rank_of):
    """gf3 entry points: rows in, rank out, distinct columns in ``aux``.

    The rows are listed and their columns counted before the span starts,
    so the count is charged to the caller, not to the eliminator.
    """
    inner = _wrap(name, fn, size_out=rank_of)

    def traced(rows, *args, **kwargs):
        rows = list(rows)
        cols = set()
        for row in rows:
            cols.update(row.keys())
        idx = len(_start)
        result = inner(rows, *args, **kwargs)
        _n_in[idx] = len(rows)
        _aux[idx] = len(cols)
        return result

    return traced


def install():
    """Replace each traced name where the package looks it up."""
    from cml3 import _kernel, cli, gf3, grassmann, loop, twowords, words

    _kernel.assoc_step = _wrap(
        "kernel.assoc_step", _kernel.assoc_step, _len_in, _len_out)
    for op in ("cmul_terms", "wedge_terms"):
        setattr(_kernel, op, _wrap(
            f"kernel.{op}", getattr(_kernel, op), _pairs_in, _len_out))
    _kernel.derive_terms = _wrap(
        "kernel.derive_terms", _kernel.derive_terms, _len_in, _len_out)

    words.h_of_type = _wrap("words.h", words.h_of_type, size_out=int)
    for op in ("lmul", "linv", "lassoc"):
        setattr(loop, op, _wrap(f"loop.{op}", getattr(loop, op)))
    twowords.regular_words = _wrap("twowords", twowords.regular_words)
    grassmann.GElement.__add__ = _wrap(
        "grassmann.add", grassmann.GElement.__add__)

    # gf3 names are imported by name, so each importing module is patched
    def rank(res):
        return res.rank

    def rank_pair(res):
        return res[0]

    for module, site in ((gf3, "gf3"), (words, "words"), (cli, "cli")):
        module.rank_and_kernel = _wrap_gf3(
            f"gf3@{site}", module.rank_and_kernel, rank)
    for module, site in ((gf3, "gf3"), (twowords, "twowords")):
        module.rank_only = _wrap_gf3(f"gf3@{site}", module.rank_only, rank_pair)

    for command, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[command] = _wrap("cli.handler", handler)
    return _wrap("cli.main", cli.main)


def write_spans(path: str, import_s: float) -> None:
    header = {"names": NAMES, "count": len(_start), "import_s": import_s}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for column in (_name, _parent, _start, _end, _n_in, _n_out, _aux):
            column.tofile(fh)


def read_spans(path: str):
    """Header and columns of a span file, as written by ``write_spans``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        columns = []
        for code in ("i", "i", "d", "d", "q", "q", "q"):
            column = array(code)
            column.fromfile(fh, count)
            columns.append(column)
    return header, columns


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPAN_FILE -- ARG...", file=sys.stderr)
        return 2
    span_path, cli_args = argv[0], argv[2:]
    t0 = perf_counter()
    import cml3.cli  # noqa: F401  (timed: the import is part of set-up)

    import_s = perf_counter() - t0
    traced_main = install()
    try:
        code = traced_main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    write_spans(span_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
