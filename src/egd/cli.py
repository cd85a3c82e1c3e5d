"""Command-line front end: ed sweeps, md-pair listings, decomposition, morphisms.

Output is deterministic: identical inputs give byte-identical text and JSON.
The sweep runs in one process; ``--workers`` is accepted for compatibility
and changes nothing.  Exit codes: 0 success, 2 bad input, 3 infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bruhat import quotient_elements_of_length
from .dynkin import DynkinSpec, num_positive_roots
from .engine import (
    DEFAULT_BUDGET,
    MarkedDiagram,
    MdPair,
    effective_divisibility,
    get_context,
    md_pairs,
    morphism_constancy,
)
from .errors import EgdError, Infeasible
from .parabolic import codims, decompose
from .weyl import format_word, parse_word

_MODES = {"closed": "closed_form", "brute": "brute_force", "both": "both"}


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _check_common(args) -> None:
    """Reject out-of-range shared flags before any context is built."""
    if args.workers < 1:
        raise EgdError(f"--workers must be at least 1, got {args.workers}")
    if args.budget < 0:
        raise EgdError(f"--budget must be at least 0, got {args.budget}")


def _pair_line(k: int, pair: MdPair, classify: bool) -> str:
    line = (
        f"{k}) l(v)= {pair.len_v} c(u)= {pair.codim_u} "
        f"v=[{','.join(map(str, pair.v.word()))}] "
        f"u=[{','.join(map(str, pair.u.word()))}]"
    )
    if classify:
        line += " tags={" + ",".join(map(str, sorted(pair.tags))) + "}"
    return line


def cmd_ed(args) -> int:
    _check_common(args)
    md = MarkedDiagram.parse(args.diagram, args.marked)
    mode = _MODES[args.mode]
    result = effective_divisibility(md, mode, budget=args.budget, extended=args.extended)
    if args.json:
        _emit_json(
            {
                "diagram": str(md.spec),
                "marked": sorted(md.marked),
                "mode": mode,
                "ed": result.value,
                "method": result.method,
                "closed_form": result.closed_form,
                "brute_force": result.brute_force,
                "capped": result.capped,
                "mdpairs": [result.witness.record()] if result.witness else [],
            }
        )
        return 0
    print(f"ed {md.label()} mode={mode}")
    print(f"ed = {result.value}")
    print(f"method = {result.method}")
    if result.closed_form is not None:
        print(f"closed_form = {result.closed_form}")
    if result.brute_force is not None:
        print(f"brute_force = {result.brute_force}")
    if result.capped:
        print("capped at the dimension")
    if result.witness is not None:
        print("witness: " + _pair_line(1, result.witness, False)[3:])
    return 0


def cmd_mdpairs(args) -> int:
    _check_common(args)
    md = MarkedDiagram.parse(args.diagram, args.marked)
    pairs = md_pairs(
        md,
        degree=args.degree,
        classify=args.classify,
        budget=args.budget,
        extended=args.extended,
    )
    # without --degree the listing is the failing degree's, never empty
    degree = args.degree if args.degree is not None else pairs[0].degree
    if args.json:
        _emit_json(
            {
                "diagram": str(md.spec),
                "marked": sorted(md.marked),
                "degree": degree,
                "ed": degree - 1 if args.degree is None else None,
                "method": "brute_force",
                "classified": args.classify,
                "mdpairs": [p.record() for p in pairs],
            }
        )
        return 0
    print(f"mdpairs {md.label()} degree={degree}")
    for k, pair in enumerate(pairs, start=1):
        print(_pair_line(k, pair, args.classify))
    print(f"total {len(pairs)}")
    return 0


def cmd_decompose(args) -> int:
    spec = DynkinSpec.parse(args.diagram)
    jset = spec.parse_nodes(args.parabolic)
    ctx = get_context(spec)
    w = ctx.from_word(parse_word(args.word))
    dec = decompose(ctx, w, jset)
    cd = codims(ctx, w, jset)
    up_word = format_word(dec.up.word()) if dec.up.length else ""
    down_word = format_word(dec.down.word()) if dec.down.length else ""
    if args.json:
        _emit_json(
            {
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
        )
        return 0
    print(f"decompose {spec} w={args.word.strip()} J={args.parabolic.strip().lower()}")
    print(f"u^J={up_word}  u_J={down_word}")
    print(f"l(u^J)={dec.up.length}  l(u_J)={dec.down.length}")
    print(f"c^J(u)={cd.cJ_up}  c_J(u)={cd.cJ_down}  c(u)={cd.c_total}")
    return 0


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


def cmd_morphism(args) -> int:
    _check_common(args)
    source = _parse_side(args.source)
    target = _parse_side(args.target)
    if not isinstance(target, MarkedDiagram):
        raise EgdError("target must be DIAGRAM:MARKED")
    verdict = morphism_constancy(source, target, budget=args.budget, extended=args.extended)
    if args.json:
        _emit_json(
            {
                "source": verdict.source_label,
                "target": verdict.target_label,
                "verdict": verdict.verdict,
                "source_ed": verdict.source_ed,
                "target_ed": verdict.target_ed,
                "subdiagram_rule": verdict.subdiagram_rule,
            }
        )
        return 0
    print(f"morphism {verdict.source_label} -> {verdict.target_label}")
    print(f"verdict: {verdict.verdict}")
    cmp = ">" if verdict.verdict == "constant" else "<="
    print(
        f"ed({verdict.source_label}) = {verdict.source_ed} {cmp} "
        f"ed({verdict.target_label}) = {verdict.target_ed}"
    )
    if verdict.subdiagram_rule:
        print("subdiagram rule: the target diagram is a proper subdiagram of the source")
    return 0


def cmd_strata(args) -> int:
    spec = DynkinSpec.parse(args.diagram)
    jset = spec.parse_nodes(args.parabolic)
    top = num_positive_roots(spec)  # l(w_0) bounds every stratum of every W^J
    if args.length < 0 or args.length > top:
        raise EgdError(f"length {args.length} outside 0..{top}")
    ctx = get_context(spec)
    elems = quotient_elements_of_length(ctx, jset, args.length)
    words = [format_word(e.word()) for e in elems]
    if args.json:
        _emit_json(
            {
                "diagram": str(spec),
                "parabolic": sorted(jset),
                "length": args.length,
                "elements": words,
            }
        )
        return 0
    print(f"strata {spec} J={args.parabolic.strip().lower()} l={args.length}")
    for word in words:
        print(word)
    print(f"total {len(words)}")
    return 0


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
        "--extended", action="store_true", help="unlock the E6 complete-flag sweep"
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
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except EgdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
