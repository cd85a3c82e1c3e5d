"""Expected egd CLI output, derived without calling the package under test.

Independent references:

- ``closed_form_ed``: the paper's closed forms (A_n = n, B_n = C_n = 2n-1,
  D_n = 2n-3 if R meets {1, n-1, n} else 2n-2, flags of G2/F4/E6 = 5/12/12).
- ``DIM``: dim G/P_J = N(G) - N(L_J), counted by hand from the Bourbaki
  diagrams (N = number of positive roots of the group and of the Levi J).
- ``APPENDIX_D4`` / ``APPENDIX_D5``: the paper's appendix md-pair words,
  compared as elements of W(D_n) realised as signed permutations of
  e_1..e_n, which is a second model of the group, not the package's.

Regression data, self-generated by the package and not independent:
``REGRESSION_ED`` (E8(1), E7(2), E6(3)) and ``REGRESSION_D5_TAGS`` for the
two D5 pairs the paper does not tag.
"""

from __future__ import annotations

import re

# dim G/P_J, keyed by (diagram, marked nodes); J is the complement of R.
DIM = {
    ("A3", "1"): 3,  # 6 - A2 (3)
    ("A50", "1"): 50,  # 1275 - A49 (1225)
    ("B30", "1"): 59,  # 900 - B29 (841)
    ("D30", "1"): 58,  # 870 - D29 (812)
    ("D4", "all"): 12,
    ("D5", "all"): 20,
    ("D6", "all"): 30,
    ("B5", "all"): 25,
    ("F4", "all"): 24,
    ("D6", "2"): 17,  # 30 - (A1 + D4 on {3,4,5,6}) = 30 - 13
    ("B5", "2,4"): 22,  # 25 - (A1 + A1 + B1) = 25 - 3
    ("E8", "1"): 78,  # 120 - D7 on {2..8} (42)
    ("E7", "2"): 42,  # 63 - A6 on {1,3,4,5,6,7} (21)
    ("E6", "3"): 25,  # 36 - (A1 on {1} + A4 on {2,4,5,6}) = 36 - 11
}

REGRESSION_ED = {("E8", "1"): 46, ("E7", "2"): 23, ("E6", "3"): 14}

APPENDIX_D4 = [
    ((1, 2, 3), (4, 2, 3, 1, 2, 4, 1, 2, 1)),
    ((1, 2, 4), (3, 2, 4, 1, 2, 3, 1, 2, 1)),
    ((3, 2, 1), (4, 2, 3, 1, 2, 4, 2, 3, 2)),
    ((3, 2, 4), (1, 2, 4, 1, 2, 3, 1, 2, 1)),
    ((4, 2, 1), (2, 3, 1, 2, 4, 1, 2, 3, 2)),
    ((4, 2, 3), (2, 3, 1, 2, 4, 3, 1, 2, 1)),
]
APPENDIX_D4_TAGS = [{3}, {4}, {1}, {4}, {1}, {3}]

APPENDIX_D5 = [
    ((1, 2, 3, 4), (4, 3, 5, 2, 3, 4, 1, 2, 3, 5, 1, 2, 3, 1, 2, 1)),
    ((1, 2, 3, 5), (5, 3, 4, 2, 3, 5, 1, 2, 3, 4, 1, 2, 3, 1, 2, 1)),
    ((4, 3, 2, 1), (3, 5, 2, 3, 4, 1, 2, 3, 5, 1, 2, 3, 4, 2, 3, 2)),
    ((5, 3, 2, 1), (4, 3, 5, 2, 3, 4, 1, 2, 3, 5, 2, 3, 4, 2, 3, 2)),
]
# The paper tags pairs 3 and 4 with node 1; pairs 1 and 2 are regression data.
APPENDIX_D5_TAGS = {2: {1}, 3: {1}}
REGRESSION_D5_TAGS = {0: {4}, 1: {5}}

APPENDIX = {
    "D4": (APPENDIX_D4, dict(enumerate(APPENDIX_D4_TAGS))),
    "D5": (APPENDIX_D5, {**APPENDIX_D5_TAGS, **REGRESSION_D5_TAGS}),
}

_PAIR = re.compile(
    r"l\(v\)= (\d+) c\(u\)= (\d+) v=\[([\d,]*)\] u=\[([\d,]*)\]( tags=\{([\d,]*)\})?$"
)


def closed_form_ed(family: str, n: int, marked: frozenset[int]) -> int | None:
    if family == "A":
        return n
    if family in ("B", "C"):
        return 2 * n - 1
    if family == "D":
        return 2 * n - 3 if marked & {1, n - 1, n} else 2 * n - 2
    if marked == frozenset(range(1, n + 1)):
        return {("G", 2): 5, ("F", 4): 12, ("E", 6): 12}.get((family, n))
    return None


def d_element(n: int, word) -> tuple[int, ...]:
    """Image of the generic vector (1, ..., n) under s_{w1} ... s_{wk} in W(D_n).

    s_i swaps coordinates i, i+1 (i < n); s_n maps (x_{n-1}, x_n) to
    (-x_n, -x_{n-1}).  The image determines the element.
    """
    x = list(range(1, n + 1))
    for i in reversed(tuple(word)):
        if i < n:
            x[i - 1], x[i] = x[i], x[i - 1]
        else:
            x[n - 2], x[n - 1] = -x[n - 1], -x[n - 2]
    return tuple(x)


def _words(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",")) if text else ()


def _marked_nodes(rank: int, marked: str) -> frozenset[int]:
    return frozenset(range(1, rank + 1)) if marked == "all" else frozenset(_words(marked))


def _check_pair(line, dim, degree, rank):
    """Problems with one printed pair: lengths must add up to the degree."""
    m = _PAIR.search(line)
    if not m:
        return None, [f"unparsable pair line {line!r}"]
    lv, cu, v, u = int(m[1]), int(m[2]), _words(m[3]), _words(m[4])
    errs = []
    if len(v) != lv or dim - len(u) != cu or lv + cu != degree or not 0 < lv <= cu:
        errs.append(f"pair lengths inconsistent with dim {dim}, degree {degree}: {line!r}")
    if any(not 1 <= i <= rank for i in v + u):
        errs.append(f"letter outside 1..{rank}: {line!r}")
    tags = set(_words(m[6])) if m[5] else None
    return (v, u, tags), errs


def expected_ed(diagram: str, marked: str) -> int:
    family, rank = diagram[0], int(diagram[1:])
    cf = closed_form_ed(family, rank, _marked_nodes(rank, marked))
    return cf if cf is not None else REGRESSION_ED[(diagram, marked)]


def check_output(argv, rc: int, stdout: str) -> list[str]:
    """Problems found in one command's result; an empty list means correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    cmd, diagram, marked = argv[:3]
    rank = int(diagram[1:])
    nodes = _marked_nodes(rank, marked)
    dim = DIM[(diagram, marked)]
    ed = expected_ed(diagram, marked)
    label = f"{diagram}({','.join(map(str, sorted(nodes)))})"
    lines = stdout.splitlines()
    if cmd == "ed":
        mode = "brute_force" if "brute" in argv else "both"
        both = mode == "both" and closed_form_ed(diagram[0], rank, nodes) is not None
        return _check_ed(lines, label, rank, mode, both, ed, dim)
    return _check_mdpairs(lines, label, diagram, rank, "--classify" in argv, ed, dim)


def _check_ed(lines, label, rank, mode, both, ed, dim):
    want = [f"ed {label} mode={mode}", f"ed = {ed}", f"method = {'both' if both else 'brute_force'}"]
    if both:
        want.append(f"closed_form = {ed}")
    want.append(f"brute_force = {ed}")
    if ed == dim:
        want.append("capped at the dimension")
    if lines[:-1] != want or not lines or not lines[-1].startswith("witness: "):
        return [f"ed output {lines!r} != {want!r} + witness"]
    return _check_pair(lines[-1], dim, ed + 1, rank)[1]


def _check_mdpairs(lines, label, diagram, rank, classify, ed, dim):
    degree = ed + 1
    errs = []
    if not lines or lines[0] != f"mdpairs {label} degree={degree}":
        return [f"mdpairs header {lines[:1]!r}"]
    pairs = []
    for k, line in enumerate(lines[1:-1], start=1):
        if not line.startswith(f"{k}) "):
            errs.append(f"pair {k} misnumbered: {line!r}")
        pair, pair_errs = _check_pair(line, dim, degree, rank)
        errs += pair_errs
        if pair:
            pairs.append(pair)
    if lines[-1] != f"total {len(lines) - 2}":
        errs.append(f"mdpairs trailer {lines[-1]!r}")
    appendix, tags = APPENDIX[diagram]
    got = [(d_element(rank, v), d_element(rank, u)) for v, u, _ in pairs]
    want = [(d_element(rank, v), d_element(rank, u)) for v, u in appendix]
    if got != want:
        errs.append(f"{diagram} md-pairs differ from the appendix listing")
    for k, (_, _, t) in enumerate(pairs):
        if classify and k in tags and t != tags[k]:
            errs.append(f"{diagram} pair {k + 1} tags {t} != {tags[k]}")
        if not classify and t is not None:
            errs.append(f"{diagram} pair {k + 1} tagged without --classify")
    return errs
