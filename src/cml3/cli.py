"""Command-line front end.

Every computation is exposed as a subcommand with text, JSON or CSV output;
identical configuration (including seed) produces byte-identical output.
Progress goes to stderr only.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import sys
from dataclasses import dataclass
from typing import NoReturn, Optional

from . import gf3, loop, twowords, words
# rank_and_kernel stays importable here: perfbench/tracer.py wraps the gf3
# names at each module that imports them
from .gf3 import rank_and_kernel  # noqa: F401


@dataclass
class RunConfig:
    command: str
    n: Optional[int] = None
    type_vector: Optional[str] = None
    case: Optional[str] = None
    suite: Optional[str] = None
    mode: Optional[str] = None
    samples: int = 100
    seed: int = 0
    fmt: str = "text"
    out_path: Optional[str] = None
    expect: Optional[str] = None
    unsafe_n: bool = False
    list_words: bool = False
    cross_check: bool = False
    dump: bool = False

    def public(self) -> dict:
        # what the run computed: the command, its inputs and the seed;
        # output options stay out
        cfg = {"command": self.command, "samples": self.samples,
               "seed": self.seed}
        for key in ("n", "type_vector", "case", "suite", "mode"):
            value = getattr(self, key)
            if value is not None:
                cfg[key] = value
        return cfg


def _add_common(p, *, samples=False):
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--csv", action="store_true", help="CSV output")
    p.add_argument("--out", metavar="FILE", help="write output to FILE")
    p.add_argument("--expect", metavar="FILE",
                   help="diff output against FILE; exit 1 on mismatch")
    p.add_argument("--unsafe-n", action="store_true",
                   help="lift the n <= 7 cap (slow, unverified)")
    if samples:
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cml3",
        description="Exact computations in the exponent-3 commutative "
        "Moufang loop model over GF(3)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="dimension table by multidegree type")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("h", help="span dimension of one type")
    p.add_argument("--type", dest="type_vector", required=True)
    _add_common(p)

    p = sub.add_parser("cn", help="word count of one type over n generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--type", dest="type_vector", required=True)
    _add_common(p)

    p = sub.add_parser("types", help="types with nonzero span")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="identity suites")
    p.add_argument("--suite", choices=("cml3", "identities", "malbos"),
                   required=True)
    p.add_argument("--n", type=int, default=7)
    _add_common(p, samples=True)

    p = sub.add_parser("tah", help="the nonvanishing thrice-repeated associator")
    p.add_argument("--dump", action="store_true", help="print the element")
    _add_common(p)

    p = sub.add_parser("mainid", help="the six-factor decision identity")
    p.add_argument("--mode", choices=("algebra", "loop"), required=True)
    _add_common(p, samples=True)

    p = sub.add_parser("regular", help="regular 2-words of a case")
    p.add_argument("--case", choices=("5", "5,1", "7", "5,2"), required=True)
    p.add_argument("--list", dest="list_words", action="store_true")
    p.add_argument("--cross-check", dest="cross_check", action="store_true")
    _add_common(p)

    return parser


def _error_exit(message: str) -> NoReturn:
    """Usage or I/O error: one line on stderr, exit status 2."""
    print(f"cml3: {message}", file=sys.stderr)
    raise SystemExit(2)


def _config(args) -> RunConfig:
    fmt = "json" if args.json else ("csv" if args.csv else "text")
    if args.json and args.csv:
        _error_exit("--json and --csv are mutually exclusive")
    if getattr(args, "samples", 0) < 0:
        _error_exit(f"--samples must be >= 0, got {args.samples}")
    return RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        type_vector=getattr(args, "type_vector", None),
        case=getattr(args, "case", None),
        suite=getattr(args, "suite", None),
        mode=getattr(args, "mode", None),
        samples=getattr(args, "samples", 100),
        seed=getattr(args, "seed", 0),
        fmt=fmt,
        out_path=args.out,
        expect=args.expect,
        unsafe_n=args.unsafe_n,
        list_words=getattr(args, "list_words", False),
        cross_check=getattr(args, "cross_check", False),
        dump=getattr(args, "dump", False),
    )


# ---------------------------------------------------------------------------
# command handlers: each returns (results dict, pass flag, text lines, csv rows)
# ---------------------------------------------------------------------------

def _run_dim(cfg: RunConfig):
    report = words.dim_Cn(cfg.n, unsafe=cfg.unsafe_n)
    per_type = [
        {"type": str(tv), "h": h, "c": c} for tv, h, c in report.per_type
    ]
    results = {"n": report.n, "per_type": per_type, "total": report.total}
    lines = [f"type={row['type']} h={row['h']} c={row['c']}" for row in per_type]
    lines.append(f"total={report.total}")
    rows = [("type", "h", "c")]
    rows += [(row["type"], row["h"], row["c"]) for row in per_type]
    rows.append(("total", "", report.total))
    return results, True, lines, rows


def _check_type_range(tv: words.TypeVector, cfg: RunConfig) -> None:
    if cfg.unsafe_n:
        return
    if (tv.letters > words.MAX_SAFE_LETTERS
            or tv.weight > words.MAX_SAFE_WEIGHT):
        _error_exit(
            f"type {tv} exceeds the supported range "
            f"(letters <= {words.MAX_SAFE_LETTERS}, "
            f"weight <= {words.MAX_SAFE_WEIGHT}); pass --unsafe-n to force"
        )


def _run_h(cfg: RunConfig):
    tv = words.TypeVector.parse(cfg.type_vector)
    note = None
    if tv.weight % 2 == 0:
        h = 0
        note = "weight even; no words of this type"
    else:
        _check_type_range(tv, cfg)
        h = words.h_of_type(tv)
    results = {"type": str(tv), "h": h}
    line = f"type={tv} h={h}"
    if note:
        results["note"] = note
        line += f" note={note.split(';')[0].replace(' ', '-')}"
    rows = [("type", "h"), (str(tv), h)]
    return results, True, [line], rows


def _run_cn(cfg: RunConfig):
    tv = words.TypeVector.parse(cfg.type_vector)
    if tv.letters > cfg.n:
        c = 0
    else:
        _check_type_range(tv, cfg)
        c = words.c_n_of_type(cfg.n, tv)
    results = {"n": cfg.n, "type": str(tv), "c": c}
    return results, True, [f"type={tv} n={cfg.n} c={c}"], [
        ("type", "n", "c"), (str(tv), cfg.n, c)
    ]


def _run_types(cfg: RunConfig):
    tvs = words.enumerate_types(cfg.n, unsafe=cfg.unsafe_n)
    results = {"n": cfg.n, "types": [str(tv) for tv in tvs]}
    lines = [f"type={tv}" for tv in tvs]
    rows = [("type",)] + [(str(tv),) for tv in tvs]
    return results, True, lines, rows


def _run_verify(cfg: RunConfig):
    if cfg.n > words.MAX_SAFE_N and not cfg.unsafe_n:
        _error_exit(
            f"n={cfg.n} exceeds the supported range "
            f"(n <= {words.MAX_SAFE_N}); pass --unsafe-n to force"
        )
    if cfg.suite == "cml3":
        report = loop.verify_cml3(cfg.n, cfg.samples, cfg.seed)
    elif cfg.suite == "identities":
        report = loop.verify_identities(cfg.n, cfg.samples, cfg.seed)
    else:
        report = loop.malbos_verify(cfg.n, cfg.samples, cfg.seed)
    passed = loop.report_passed(report)
    results = {"suite": cfg.suite, "checks": report}
    lines = [
        f"identity={e['identity']} instantiations={e['instantiation'].split()[0]}"
        f" pass={str(e['pass']).lower()}"
        + (f" witness={e['witness']}" if not e["pass"] else "")
        for e in report
    ]
    lines.append(f"pass={str(passed).lower()}")
    rows = [("identity", "instantiations", "pass")]
    rows += [
        (e["identity"], e["instantiation"].split()[0], str(e["pass"]).lower())
        for e in report
    ]
    return results, passed, lines, rows


def _run_tah(cfg: RunConfig):
    witness = loop.tah_witness()
    passed = bool(witness)
    results = {"nonzero": passed, "terms": len(witness.raw())}
    lines = [f"nonzero={str(passed).lower()} terms={len(witness.raw())}"]
    if cfg.dump:
        results["element"] = str(witness)
        lines.append(f"element={witness}")
    rows = [("nonzero", "terms"), (str(passed).lower(), len(witness.raw()))]
    return results, passed, lines, rows


def _run_mainid(cfg: RunConfig):
    report = loop.mainid_check(cfg.mode, samples=cfg.samples, seed=cfg.seed)
    passed = loop.report_passed(report)
    results = {"mode": cfg.mode, "checks": report}
    lines = []
    for e in report:
        lines.append(
            f"identity={e['identity']} "
            f"instantiations={e['instantiation'].split()[0]} "
            f"pass={str(e['pass']).lower()}"
        )
    lines.append(f"pass={str(passed).lower()}")
    rows = [("identity", "pass")]
    rows += [(e["identity"], str(e["pass"]).lower()) for e in report]
    return results, passed, lines, rows


def _run_regular(cfg: RunConfig):
    report = twowords.regular_words(cfg.case)
    results = {
        "case": str(report.case),
        "set": report.relation_set,
        "universe": len(report.universe),
        "irregular": len(report.irregular),
        "bound": report.bound,
        "regular": [str(w) for w in report.regular],
    }
    passed = True
    lines = [
        f"case={report.case} set={report.relation_set} "
        f"universe={len(report.universe)} bound={report.bound}"
    ]
    if str(report.case) == "5,2":
        assign = {i: i for i in range(7)}
        rows_ = words.word_vectors(
            [twowords.to_left_normed(w, 0) for w in report.regular], assign
        )
        conditional = gf3.rank_only(rows_)[0]
        results["conditional_bound"] = conditional
        lines.append(f"conditional_bound={conditional}")
    if cfg.cross_check:
        if str(report.case) != "7":
            _error_exit("--cross-check applies to --case 7")
        regular = set(report.regular)
        agree = all(
            (twowords.pattern_predicates_case7(w)[0] == "regular")
            == (w in regular)
            for w in report.universe
        )
        results["cross_check"] = "agree" if agree else "disagree"
        passed = agree
        lines.append(f"cross_check={results['cross_check']}")
    if cfg.list_words:
        # bare word-list dump, one canonical word per line
        lines = [str(w) for w in report.regular]
    rows = [("word",)] + [(str(w),) for w in report.regular]
    return results, passed, lines, rows


_HANDLERS = {
    "dim": _run_dim,
    "h": _run_h,
    "cn": _run_cn,
    "types": _run_types,
    "verify": _run_verify,
    "tah": _run_tah,
    "mainid": _run_mainid,
    "regular": _run_regular,
}


def _render(cfg: RunConfig, results: dict, passed: bool) -> str:
    if cfg.fmt == "json":
        doc = {
            "command": cfg.command,
            "config": cfg.public(),
            "results": results,
            "pass": passed,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    raise RuntimeError("text/csv rendered separately")


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _config(args)

    try:
        results, passed, lines, rows = _HANDLERS[cfg.command](cfg)
    except ValueError as exc:
        _error_exit(str(exc))

    if cfg.fmt == "json":
        output = _render(cfg, results, passed)
    elif cfg.fmt == "csv":
        buf = io.StringIO()
        for row in rows:
            buf.write(",".join(str(x) for x in row) + "\n")
        output = buf.getvalue()
    else:
        output = "".join(line + "\n" for line in lines)

    if cfg.out_path:
        try:
            with open(cfg.out_path, "w") as fh:
                fh.write(output)
        except OSError as exc:
            _error_exit(f"cannot write {cfg.out_path}: {exc.strerror}")
    else:
        sys.stdout.write(output)

    if cfg.expect:
        try:
            with open(cfg.expect) as fh:
                expected = fh.read()
        except OSError as exc:
            _error_exit(f"cannot read {cfg.expect}: {exc.strerror}")
        if expected != output:
            print("cml3: output differs from expected file", file=sys.stderr)
            return 1

    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
