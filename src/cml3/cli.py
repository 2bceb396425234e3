"""Command-line front end.

Every computation is exposed as a subcommand with text, JSON or CSV output;
identical configuration (including seed) produces byte-identical output.
Progress goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys

# loop and twowords are imported by the handlers that use them, so the
# word-span commands (dim, h, cn, types) never compile them
from . import gf3, words
# rank_and_kernel stays importable here: perfbench/tracer.py wraps the gf3
# names at each module that imports them
from .gf3 import rank_and_kernel  # noqa: F401


def _add_common(p, *, samples=False, unsafe=False):
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--csv", action="store_true", help="CSV output")
    p.add_argument("--out", metavar="FILE", help="write output to FILE")
    p.add_argument("--expect", metavar="FILE",
                   help="diff output against FILE; exit 1 on mismatch")
    if unsafe:
        p.add_argument("--unsafe-n", action="store_true",
                       help="lift the n <= 7 cap (slow, unverified)")
    if samples:
        # no default here, so that main can reject them where they do
        # nothing; it fills in 100 and 0
        p.add_argument("--samples", type=int)
        p.add_argument("--seed", type=int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cml3",
        description="Exact computations in the exponent-3 commutative "
        "Moufang loop model over GF(3)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="dimension table by multidegree type")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, unsafe=True)

    p = sub.add_parser("h", help="span dimension of one type")
    p.add_argument("--type", dest="type_vector", required=True)
    _add_common(p, unsafe=True)

    p = sub.add_parser("cn", help="word count of one type over n generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--type", dest="type_vector", required=True)
    _add_common(p, unsafe=True)

    p = sub.add_parser("types", help="types with nonzero span")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, unsafe=True)

    p = sub.add_parser("verify", help="identity suites")
    p.add_argument("--suite", choices=("cml3", "identities", "malbos"),
                   required=True)
    p.add_argument("--n", type=int, default=7)
    _add_common(p, samples=True, unsafe=True)

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


def _error_exit(message: str):
    """Usage or I/O error: one line on stderr, exit status 2.  Never
    returns."""
    print(f"cml3: {message}", file=sys.stderr)
    raise SystemExit(2)


def _public(args) -> dict:
    # what the run computed: the command, its inputs and the seed; output
    # options stay out
    cfg = {"command": args.command, "samples": getattr(args, "samples", 100),
           "seed": getattr(args, "seed", 0)}
    for key in ("n", "type_vector", "case", "suite", "mode"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _check_range(scope, args) -> None:
    """Reject a run past the verified range, or warn that it is unverified.

    Before the warning, a word-span run (any command but verify, whose
    suites' depth does not grow with n) is rejected if its words would
    pass the top derivation order.
    """
    past = words.past_verified_range(scope, args.unsafe_n)
    if args.command != "verify":
        words.check_depth(scope)
    if past:
        print(f"cml3: past the verified range (n <= {words.MAX_SAFE_N}); "
              "the result is unverified", file=sys.stderr)


# ---------------------------------------------------------------------------
# command handlers: each returns (results dict, pass flag, text lines, csv rows)
# ---------------------------------------------------------------------------

def _run_dim(args):
    _check_range(args.n, args)
    report = words.dim_Cn(args.n, unsafe=args.unsafe_n)
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


def _run_h(args):
    tv = words.TypeVector.parse(args.type_vector)
    note = None
    if tv.weight % 2 == 0:
        h = 0
        note = "weight even; no words of this type"
    else:
        _check_range(tv, args)
        h = words.h_of_type(tv)
    results = {"type": str(tv), "h": h}
    line = f"type={tv} h={h}"
    if note:
        results["note"] = note
        line += f" note={note.split(';')[0].replace(' ', '-')}"
    rows = [("type", "h"), (str(tv), h)]
    return results, True, [line], rows


def _run_cn(args):
    tv = words.TypeVector.parse(args.type_vector)
    if tv.letters > args.n:
        c = 0
    else:
        _check_range(tv, args)
        c = words.c_n_of_type(args.n, tv)
    results = {"n": args.n, "type": str(tv), "c": c}
    return results, True, [f"type={tv} n={args.n} c={c}"], [
        ("type", "n", "c"), (str(tv), args.n, c)
    ]


def _run_types(args):
    _check_range(args.n, args)
    tvs = words.enumerate_types(args.n, unsafe=args.unsafe_n)
    results = {"n": args.n, "types": [str(tv) for tv in tvs]}
    lines = [f"type={tv}" for tv in tvs]
    rows = [("type",)] + [(str(tv),) for tv in tvs]
    return results, True, lines, rows


def _run_verify(args):
    from . import loop

    clamped = args.suite == "malbos" and args.n > loop.MALBOS_MAX_N
    if clamped:
        # the requested n is still held to the cap; the warning and the
        # config then speak of the n the suite runs on
        words.past_verified_range(args.n, args.unsafe_n)
        args.n = loop.MALBOS_MAX_N
    _check_range(args.n, args)
    if args.suite == "cml3":
        report = loop.verify_cml3(args.n, args.samples, args.seed)
    elif args.suite == "identities":
        report = loop.verify_identities(args.n, args.samples, args.seed)
    else:
        report = loop.malbos_verify(args.n, args.samples, args.seed)
    if clamped:
        # after the run, so that a rejected --samples prints one line only
        print(f"cml3: the malbos suite runs on at most "
              f"{loop.MALBOS_MAX_N} generators; using --n "
              f"{loop.MALBOS_MAX_N}", file=sys.stderr)
    passed = loop.report_passed(report)
    results = {"suite": args.suite, "checks": report}
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


def _run_tah(args):
    from . import loop

    witness = loop.tah_witness()
    passed = bool(witness)
    results = {"nonzero": passed, "terms": len(witness.raw())}
    lines = [f"nonzero={str(passed).lower()} terms={len(witness.raw())}"]
    if args.dump:
        results["element"] = str(witness)
        lines.append(f"element={witness}")
    rows = [("nonzero", "terms"), (str(passed).lower(), len(witness.raw()))]
    return results, passed, lines, rows


def _run_mainid(args):
    from . import loop

    report = loop.mainid_check(args.mode, samples=args.samples, seed=args.seed)
    passed = loop.report_passed(report)
    results = {"mode": args.mode, "checks": report}
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


def _run_regular(args):
    from . import twowords

    if args.cross_check and args.case != "7":
        _error_exit("--cross-check applies to --case 7")
    report = twowords.regular_words(args.case)
    results = {
        "case": str(report.case),
        "set": report.relation_set,
        "universe": len(report.universe),
        "irregular": len(report.irregular),
        "bound": report.bound,
        "regular": [twowords.word_str(w) for w in report.regular],
    }
    passed = True
    lines = [
        f"case={report.case} set={report.relation_set} "
        f"universe={len(report.universe)} bound={report.bound}"
    ]
    if str(report.case) == "5,2":
        assign = {i: i for i in range(7)}
        rows_ = [
            words.eval_word(twowords.to_left_normed(w, 0), assign).raw()
            for w in report.regular
        ]
        conditional = gf3.rank_only(rows_)[0]
        results["conditional_bound"] = conditional
        lines.append(f"conditional_bound={conditional}")
    if args.cross_check:
        regular = set(report.regular)
        agree = all(
            (twowords.pattern_predicates_case7(w)[0] == "regular")
            == (w in regular)
            for w in report.universe
        )
        results["cross_check"] = "agree" if agree else "disagree"
        passed = agree
        lines.append(f"cross_check={results['cross_check']}")
    if args.list_words:
        # bare word-list dump, one canonical word per line
        lines = results["regular"]
    rows = [("word",)] + [(w,) for w in results["regular"]]
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "mode", None) == "algebra" and (
            args.samples is not None or args.seed is not None):
        _error_exit("--samples and --seed apply to --mode loop only")
    for key, default in (("samples", 100), ("seed", 0)):
        if getattr(args, key, default) is None:
            setattr(args, key, default)
    if args.json and args.csv:
        _error_exit("--json and --csv are mutually exclusive")
    if getattr(args, "samples", 0) < 0:
        _error_exit(f"--samples must be >= 0, got {args.samples}")
    if getattr(args, "n", 1) < 1:
        _error_exit("n must be at least 1")

    try:
        results, passed, lines, rows = _HANDLERS[args.command](args)
    except ValueError as exc:
        _error_exit(str(exc))

    if args.json:
        doc = {"command": args.command, "config": _public(args),
               "results": results, "pass": passed}
        output = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    elif args.csv:
        output = "".join(",".join(str(x) for x in row) + "\n" for row in rows)
    else:
        output = "".join(line + "\n" for line in lines)

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(output)
        except OSError as exc:
            _error_exit(f"cannot write {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(output)

    if args.expect:
        try:
            with open(args.expect) as fh:
                expected = fh.read()
        except OSError as exc:
            _error_exit(f"cannot read {args.expect}: {exc.strerror}")
        if expected != output:
            print("cml3: output differs from expected file", file=sys.stderr)
            return 1

    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
