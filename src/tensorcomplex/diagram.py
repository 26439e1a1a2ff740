"""The commuting 4x4 diagram as module data: node kinds, scaled edges, diagonals.

Nodes follow the R-V-V-R / V-S-T-V / V-T-S-V / R-V-V-R value-kind pattern.
`EDGES` holds the 24 first-order steps, right and down, each with its scale
factor (1/3 grad, 1/2 curl, 1/2 dev grad, ...) kept apart from its operator.
`DIAGONALS` holds the second-order diagonal of each interior cell, equal to
both of the cell's first-order factorizations.  `edge(src, dst)` finds any of
the 33 steps, and `walk(*nodes)` chains them into a `Walk`, which `apply_path`
applies.  A walk is a side of an `operators.Identity` row: a cell is a two-sided
row, and a 2-complex path or a derived pair of Cor. 2.6 a one-sided row that
must give zero.  The rows are built from this data when a suite asks for them.

Every check reads the operator algebra from this data alone.  The with-bc and
no-bc flavors differ only in the node labels, which only the dump
(`to_dict`, `to_markdown`) reads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .fields import FieldKind, TypedField
from .operators import CheckResult, Identity, OperatorId, SuiteConfig

R = FieldKind.SCALAR
V = FieldKind.VECTOR
S = FieldKind.SYMMETRIC
T = FieldKind.TRACEFREE

_KIND_GRID = [
    [R, V, V, R],
    [V, S, T, V],
    [V, T, S, V],
    [R, V, V, R],
]

_LABELS = {
    "with-bc": [
        ["H°(grad)", "H°(curl)", "H°(div)", "L2,R"],
        ["H°(curl)", "H°_cc", "H°_cd", "H°-1_RT(curl)"],
        ["H°(div)", "H°_cdT", "H°_dd", "H°-1_ND(div)"],
        ["L2,R", "H°-1_RT(curl)", "H°-1_ND(div)", "H°-1_P1"],
    ],
    "no-bc": [
        ["H1/P1", "H(curl)/ND", "H(div)/RT", "L2/R"],
        ["H(curl)/ND", "H_cc", "H_cd", "H-1(curl)"],
        ["H(div)/RT", "H_cdT", "H_dd", "H-1(div)"],
        ["L2/R", "H-1(curl)", "H-1(div)", "H-1"],
    ],
}

_THIRD = Fraction(1, 3)
_HALF = Fraction(1, 2)

# (name, scale) for the three edges of each row / column, top to bottom.
_ROW_EDGES = [
    [("grad", 1), ("curl", 1), ("div", 1)],
    [("deff", 1), ("curl", 1), ("div", 1)],
    [("dev_grad", _HALF), ("sym_curl", 1), ("div", 1)],
    [("grad", _THIRD), ("curl", _HALF), ("div", 1)],
]
_COL_EDGES = [
    [("grad", 1), ("curl", 1), ("div", 1)],
    [("deff", 1), ("t_curl", 1), ("div_t", 1)],
    [("t_dev_grad", _HALF), ("sym_curl_t", 1), ("div", 1)],
    [("grad", _THIRD), ("curl", _HALF), ("div", 1)],
]

# Diagonal second-order edge of the cell whose top-left corner is (row, col).
_DIAGONALS = {
    (1, 1): ("hess", 1),
    (1, 2): ("curl_deff", 1),
    (1, 3): ("grad_div", _THIRD),
    (2, 1): ("t_curl_deff", 1),
    (2, 2): ("inc", 1),
    (2, 3): ("curl_div", _HALF),
    (3, 1): ("grad_div", _THIRD),
    (3, 2): ("curl_div_t", _HALF),
    (3, 3): ("div_div", 1),
}


class EdgeOp(NamedTuple):
    src: tuple[int, int]
    dst: tuple[int, int]
    op: OperatorId
    orientation: str  # "right", "down" or "diagonal"


EDGES = (
    *(
        EdgeOp((r, c), (r, c + 1), OperatorId(name, Fraction(scale)), "right")
        for r, row in enumerate(_ROW_EDGES, 1)
        for c, (name, scale) in enumerate(row, 1)
    ),
    *(
        EdgeOp((r, c), (r + 1, c), OperatorId(name, Fraction(scale)), "down")
        for c, col in enumerate(_COL_EDGES, 1)
        for r, (name, scale) in enumerate(col, 1)
    ),
)
DIAGONALS = tuple(
    EdgeOp((r, c), (r + 1, c + 1), OperatorId(name, Fraction(scale)), "diagonal")
    for (r, c), (name, scale) in sorted(_DIAGONALS.items())
)
_STEPS = {(e.src, e.dst): e for e in EDGES + DIAGONALS}


def node_kind(node: tuple[int, int]) -> FieldKind:
    r, c = node
    return _KIND_GRID[r - 1][c - 1]


def edge(src: tuple[int, int], dst: tuple[int, int]) -> EdgeOp:
    """The edge or diagonal from `src` to `dst`."""
    return _STEPS[(src, dst)]


class Walk(tuple):
    """Steps in order, each an edge or a diagonal: a row side, applied by `apply_path`."""

    def apply(self, f: TypedField) -> TypedField:
        return apply_path(self, f)


def walk(*nodes: tuple[int, int]) -> Walk:
    """The steps through `nodes`, in order: each consecutive pair is an edge or a diagonal."""
    return Walk(edge(a, b) for a, b in zip(nodes, nodes[1:]))


def to_dict(flavor: str) -> dict:
    if flavor not in _LABELS:
        raise ValueError(f"unknown flavor {flavor!r}")
    return {
        "schema": 1,
        "flavor": flavor,
        "nodes": [
            {"row": r, "col": c, "kind": node_kind((r, c)).value, "label": label}
            for r, row in enumerate(_LABELS[flavor], 1)
            for c, label in enumerate(row, 1)
        ],
        "edges": [
            {
                "from": list(e.src),
                "to": list(e.dst),
                "op": e.op.name,
                "scale": str(e.op.scale),
                "orientation": e.orientation,
            }
            for e in EDGES + DIAGONALS
        ],
    }


def to_markdown(flavor: str) -> str:
    """`to_dict` as two tables: the node labels, then the steps."""
    d = to_dict(flavor)
    labels = [n["label"] for n in d["nodes"]]
    lines = [f"# Operator diagram ({flavor})", "", "| | 1 | 2 | 3 | 4 |", "|-|-|-|-|-|"]
    lines += [f"| {r} | " + " | ".join(labels[4 * r - 4 : 4 * r]) + " |" for r in range(1, 5)]
    lines += ["", "| from | to | operator | scale |", "|-|-|-|-|"]
    lines += [f"| {tuple(e['from'])} | {tuple(e['to'])} | {e['op']} | {e['scale']} |" for e in d["edges"]]
    return "\n".join(lines)


def path_label(p: tuple[EdgeOp, ...]) -> str:
    steps = " -> ".join([str(p[0].src)] + [str(e.dst) for e in p])
    ops = ", ".join(e.op.label() for e in p)
    return f"{steps} [{ops}]"


def enumerate_paths(length: int) -> list[Walk]:
    """All monotone (right/down) paths of exactly `length` edges, lexicographic order."""
    if length < 1:
        raise ValueError("length must be >= 1")
    paths = [[(r, c)] for r in range(1, 5) for c in range(1, 5)]
    for _ in range(length):  # each path steps right, then down, while it stays in the grid
        paths = [p + [(r, c)] for p in paths for r, c in ((p[-1][0], p[-1][1] + 1), (p[-1][0] + 1, p[-1][1]))
                 if r <= 4 and c <= 4]
    return [walk(*p) for p in paths]


def apply_path(p: tuple[EdgeOp, ...], f: TypedField) -> TypedField:
    """Apply the steps of `p` in order; each output is re-tagged to its node's kind, whose predicate is checked."""
    start_kind = node_kind(p[0].src)
    if f.kind is not start_kind:
        raise TypeError(f"field kind {f.kind.value} does not match path start {start_kind.value}")
    for e in p:
        f = e.op.apply(f).retag(node_kind(e.dst))
    return f


def cell_row(cell: tuple[int, int]) -> Identity:
    """down∘right == right∘down on the cell with top-left corner `cell`."""
    r, c = cell
    if not (1 <= r <= 3 and 1 <= c <= 3):
        raise ValueError("cell must index one of the 9 interior cells")
    sides = (walk(cell, (r, c + 1), (r + 1, c + 1)), walk(cell, (r + 1, c), (r + 1, c + 1)))
    return Identity(f"cell ({r},{c})", "Thm 2.3", node_kind(cell), sides, ("cell", r, c))


def cell_rows() -> list[Identity]:
    """Every interior cell, in the row-major order of the diagonals that span them."""
    return [cell_row(d.src) for d in DIAGONALS]


def check_cell(cell: tuple[int, int], samples: int, degree: int, seed: int) -> CheckResult:
    return cell_row(cell).verify(SuiteConfig(seed=seed, degree=degree, samples=samples), {})


def two_complex_rows() -> list[Identity]:
    """Every monotone length-3 path composes to the exact zero field."""
    return [
        Identity(f"path {path_label(p)}", "Thm 2.5", node_kind(p[0].src), (p,), ("two-complex", idx))
        for idx, p in enumerate(enumerate_paths(3))
    ]


def check_two_complex(samples: int, degree: int, seed: int) -> list[CheckResult]:
    return [row.verify(SuiteConfig(seed=seed, degree=degree, samples=samples), {}) for row in two_complex_rows()]


_DERIVED_COMPLEXES = {
    # name -> (anchor, the four nodes its three operators step through)
    "hessian": ("Cor. 2.6 (1)", ((1, 1), (2, 2), (2, 3), (2, 4))),
    "elasticity": ("Cor. 2.6 (2)", ((2, 1), (2, 2), (3, 3), (3, 4))),
    "divdiv": ("Cor. 2.6 (3)", ((3, 1), (3, 2), (3, 3), (4, 4))),
}


def derived_rows(name: str) -> list[Identity]:
    """Consecutive compositions of the named derived complex vanish exactly."""
    anchor, nodes = _DERIVED_COMPLEXES[name]
    steps = walk(*nodes)
    return [
        Identity(f"{name}: {second.op.label()} ∘ {first.op.label()} = 0", anchor, node_kind(first.src),
                 (Walk((first, second)),), ("derived", name, stage))
        for stage, (first, second) in enumerate(zip(steps, steps[1:]))
    ]


def derived_complex_rows() -> list[Identity]:
    return [row for name in _DERIVED_COMPLEXES for row in derived_rows(name)]


def check_derived_complex(name: str, samples: int, degree: int, seed: int) -> list[CheckResult]:
    return [row.verify(SuiteConfig(seed=seed, degree=degree, samples=samples), {}) for row in derived_rows(name)]
