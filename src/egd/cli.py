"""Command-line front end: ed sweeps, md-pair listings, decomposition, morphisms.

Output is deterministic: identical inputs give byte-identical text and JSON.
Each command computes its result once and returns it as (record, lines):
the JSON record and the text lines.  main checks the shared flags
(--workers, --budget) before the command runs and prints exactly one of
the two, so the text and --json outputs come from one record per command.
Every other check lives in dynkin and engine and runs before any group is
built.  Only `strata` and `decompose` import weyl, and only `decompose`
parabolic (through engine.decompose), inside the command.
The sweep runs in one process; ``--workers`` and ``--extended`` are
accepted for compatibility and change nothing.  Exit codes: 0 success,
2 bad input, 3 infeasible.
"""

from __future__ import annotations

import argparse
import sys

from .dynkin import DynkinSpec
from .engine import (
    DEFAULT_BUDGET,
    MarkedDiagram,
    decompose,
    effective_divisibility,
    element_of_word,
    md_pairs,
    morphism_constancy,
    stratum,
)
from .errors import EgdError, Infeasible

_MODES = {"closed": "closed_form", "brute": "brute_force", "both": "both"}


def _pair_line(record: dict, classify: bool) -> str:
    """The text of one pair, from its JSON record (MdPair.record)."""
    line = (
        f"l(v)= {record['len_v']} c(u)= {record['codim_u']} "
        f"v=[{record['v']}] u=[{record['u']}]"
    )
    if classify:
        line += " tags={" + ",".join(map(str, record["tags"])) + "}"
    return line


def cmd_ed(args):
    md = MarkedDiagram.parse(args.diagram, args.marked)
    mode = _MODES[args.mode]
    result = effective_divisibility(md, mode, budget=args.budget)
    witness = [result.witness.record()] if result.witness else []
    record = {
        "diagram": str(md.spec),
        "marked": sorted(md.marked),
        "mode": mode,
        "ed": result.value,
        "method": result.method,
        "closed_form": result.closed_form,
        "brute_force": result.brute_force,
        "capped": result.capped,
        "mdpairs": witness,
    }
    lines = [f"ed {md.label()} mode={mode}", f"ed = {result.value}", f"method = {result.method}"]
    for key in ("closed_form", "brute_force"):
        if record[key] is not None:
            lines.append(f"{key} = {record[key]}")
    if result.capped:
        lines.append("capped at the dimension")
    lines += ["witness: " + _pair_line(pair, False) for pair in witness]
    return record, lines


def cmd_mdpairs(args):
    md = MarkedDiagram.parse(args.diagram, args.marked)
    pairs = md_pairs(md, degree=args.degree, classify=args.classify, budget=args.budget)
    # without --degree the listing is the failing degree's, never empty
    degree = args.degree if args.degree is not None else pairs[0].degree
    records = [p.record() for p in pairs]
    record = {
        "diagram": str(md.spec),
        "marked": sorted(md.marked),
        "degree": degree,
        "ed": degree - 1 if args.degree is None else None,
        "method": "brute_force",
        "classified": args.classify,
        "mdpairs": records,
    }
    lines = [f"mdpairs {md.label()} degree={degree}"]
    for k, pair in enumerate(records, start=1):
        lines.append(f"{k}) " + _pair_line(pair, args.classify))
    return record, lines + [f"total {len(records)}"]


def cmd_decompose(args):
    from .parabolic import codims
    from .weyl import format_word

    spec = DynkinSpec.parse(args.diagram)
    jset = spec.parse_nodes(args.parabolic)
    w = element_of_word(spec, args.word)
    dec = decompose(w.ctx, w, jset)
    cd = codims(w.ctx, w, jset, dec)
    up_word = format_word(dec.up.word()) if dec.up.length else ""
    down_word = format_word(dec.down.word()) if dec.down.length else ""
    record = {
        "diagram": str(spec),
        "word": args.word.strip(),
        "parabolic": sorted(jset),
        "up": up_word,
        "down": down_word,
        "l_up": dec.up.length,
        "l_down": dec.down.length,
        "cJ_up": cd.cJ_up,
        "cJ_down": cd.cJ_down,
        "c_total": cd.c_total,
    }
    return record, [
        f"decompose {spec} w={record['word']} J={args.parabolic.strip().lower()}",
        f"u^J={up_word}  u_J={down_word}",
        f"l(u^J)={dec.up.length}  l(u_J)={dec.down.length}",
        f"c^J(u)={cd.cJ_up}  c_J(u)={cd.cJ_down}  c(u)={cd.c_total}",
    ]


def _parse_side(text: str):
    if ":" in text:
        diagram, marked = text.split(":", 1)
        return MarkedDiagram.parse(diagram, marked)
    try:
        return int(text)
    except ValueError as exc:
        raise EgdError(
            f"source/target must be DIAGRAM:MARKED or an integer ed value, got {text!r}"
        ) from exc


def cmd_morphism(args):
    source = _parse_side(args.source)
    target = _parse_side(args.target)
    if not isinstance(target, MarkedDiagram):
        raise EgdError("target must be DIAGRAM:MARKED")
    verdict = morphism_constancy(source, target, budget=args.budget)
    record = {
        "source": verdict.source_label,
        "target": verdict.target_label,
        "verdict": verdict.verdict,
        "source_ed": verdict.source_ed,
        "target_ed": verdict.target_ed,
        "subdiagram_rule": verdict.subdiagram_rule,
    }
    cmp = ">" if verdict.verdict == "constant" else "<="
    lines = [
        f"morphism {verdict.source_label} -> {verdict.target_label}",
        f"verdict: {verdict.verdict}",
        f"ed({verdict.source_label}) = {verdict.source_ed} {cmp} "
        f"ed({verdict.target_label}) = {verdict.target_ed}",
    ]
    if verdict.subdiagram_rule:
        lines.append("subdiagram rule: the target diagram is a proper subdiagram of the source")
    return record, lines


def cmd_strata(args):
    from .weyl import format_word

    spec = DynkinSpec.parse(args.diagram)
    jset = spec.parse_nodes(args.parabolic)
    words = [format_word(e.word()) for e in stratum(spec, jset, args.length)]
    record = {
        "diagram": str(spec),
        "parabolic": sorted(jset),
        "length": args.length,
        "elements": words,
    }
    header = f"strata {spec} J={args.parabolic.strip().lower()} l={args.length}"
    return record, [header, *words, f"total {len(words)}"]


def _add_common(sub) -> None:
    sub.add_argument("--json", action="store_true", help="emit a JSON record")
    sub.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; the sweep runs in one process",
    )
    sub.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help="quotient element budget"
    )
    sub.add_argument(
        "--extended", action="store_true",
        help="accepted for compatibility; the E6 flag is swept without it",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egd",
        description="Effective good divisibility of rational homogeneous varieties",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_ed = subs.add_parser("ed", help="compute effective good divisibility")
    p_ed.add_argument("diagram", help="diagram string, e.g. D4")
    p_ed.add_argument("marked", help="marked nodes: all, none, or i,j,...")
    p_ed.add_argument("--mode", choices=sorted(_MODES), default="both")
    _add_common(p_ed)
    p_ed.set_defaults(func=cmd_ed)

    p_md = subs.add_parser("mdpairs", help="list maximal disjoint pairs")
    p_md.add_argument("diagram")
    p_md.add_argument("marked")
    p_md.add_argument("--degree", type=int, default=None, help="list at this degree instead of ed+1")
    p_md.add_argument("--classify", action="store_true", help="tag type-D pullbacks")
    _add_common(p_md)
    p_md.set_defaults(func=cmd_mdpairs)

    p_dec = subs.add_parser("decompose", help="parabolic decomposition w = w^J w_J")
    p_dec.add_argument("diagram")
    p_dec.add_argument("word", help="comma-separated generator indices")
    p_dec.add_argument("parabolic", help="parabolic set J: all, none, or i,j,...")
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    p_mor = subs.add_parser("morphism", help="constancy test for morphisms")
    p_mor.add_argument("source", help="DIAGRAM:MARKED or an integer ed value")
    p_mor.add_argument("target", help="DIAGRAM:MARKED")
    _add_common(p_mor)
    p_mor.set_defaults(func=cmd_morphism)

    p_str = subs.add_parser("strata", help="dump a length stratum of W^J (debugging)")
    p_str.add_argument("diagram")
    p_str.add_argument("length", type=int)
    p_str.add_argument("parabolic", nargs="?", default="none")
    p_str.add_argument("--json", action="store_true")
    p_str.set_defaults(func=cmd_strata)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the shared flags of ed, mdpairs and morphism, before any input is read
        if getattr(args, "workers", 1) < 1:
            raise EgdError(f"--workers must be at least 1, got {args.workers}")
        if getattr(args, "budget", 0) < 0:
            raise EgdError(f"--budget must be at least 0, got {args.budget}")
        record, lines = args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except EgdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json  # only --json needs it; a text run starts without it

        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
