"""The 4x4 grid of spaces and scaled operator edges, as an explicit graph.

Nodes follow the R-V-V-R / V-S-T-V / V-T-S-V / R-V-V-R value-kind pattern.
Edges carry scale factors (1/3 grad, 1/2 curl, 1/2 dev grad, ...) separately
from the operators, and each interior cell has a diagonal second-order edge
equal to both of its first-order factorizations.

The with-bc and no-bc flavors differ only in node labels; the operator
algebra is identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import FieldKind, TypedField
from .operators import CheckResult, OperatorId, components_equal, field_draw, run_check

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


@dataclass(frozen=True)
class SpaceNode:
    row: int
    col: int
    kind: FieldKind
    label: str


@dataclass(frozen=True)
class EdgeOp:
    src: tuple[int, int]
    dst: tuple[int, int]
    op: OperatorId
    orientation: str  # "right", "down" or "diagonal"


class DiagramGraph:
    def __init__(self, flavor: str):
        if flavor not in _LABELS:
            raise ValueError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.nodes: dict[tuple[int, int], SpaceNode] = {}
        for r in range(1, 5):
            for c in range(1, 5):
                self.nodes[(r, c)] = SpaceNode(r, c, _KIND_GRID[r - 1][c - 1], _LABELS[flavor][r - 1][c - 1])
        self.edges: list[EdgeOp] = []
        for r in range(1, 5):
            for c in range(1, 4):
                name, scale = _ROW_EDGES[r - 1][c - 1]
                self.edges.append(EdgeOp((r, c), (r, c + 1), OperatorId(name, Fraction(scale)), "right"))
        for c in range(1, 5):
            for r in range(1, 4):
                name, scale = _COL_EDGES[c - 1][r - 1]
                self.edges.append(EdgeOp((r, c), (r + 1, c), OperatorId(name, Fraction(scale)), "down"))
        self.diagonals: list[EdgeOp] = [
            EdgeOp((r, c), (r + 1, c + 1), OperatorId(name, Fraction(scale)), "diagonal")
            for (r, c), (name, scale) in sorted(_DIAGONALS.items())
        ]
        self._by_step = {(e.src, e.dst): e for e in self.edges}

    def edge(self, src: tuple[int, int], dst: tuple[int, int]) -> EdgeOp:
        return self._by_step[(src, dst)]

    def interior_cells(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(1, 4) for c in range(1, 4)]

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "flavor": self.flavor,
            "nodes": [
                {"row": n.row, "col": n.col, "kind": n.kind.value, "label": n.label}
                for n in (self.nodes[(r, c)] for r in range(1, 5) for c in range(1, 5))
            ],
            "edges": [
                {
                    "from": list(e.src),
                    "to": list(e.dst),
                    "op": e.op.name,
                    "scale": str(e.op.scale),
                    "orientation": e.orientation,
                }
                for e in self.edges + self.diagonals
            ],
        }

    def to_markdown(self) -> str:
        lines = [f"# Operator diagram ({self.flavor})", "", "| | " + " | ".join(str(c) for c in range(1, 5)) + " |", "|-|-|-|-|-|"]
        for r in range(1, 5):
            row = [self.nodes[(r, c)].label for c in range(1, 5)]
            lines.append(f"| {r} | " + " | ".join(row) + " |")
        lines.append("")
        lines.append("| from | to | operator | scale |")
        lines.append("|-|-|-|-|")
        for e in self.edges + self.diagonals:
            lines.append(f"| {e.src} | {e.dst} | {e.op.name} | {e.op.scale} |")
        return "\n".join(lines)


@dataclass(frozen=True)
class Path:
    """A monotone (right/down) sequence of first-order edges."""

    edges: tuple[EdgeOp, ...]

    def __post_init__(self):
        if not self.edges:
            raise ValueError("a path needs at least one edge")
        for a, b in zip(self.edges, self.edges[1:]):
            if a.dst != b.src:
                raise ValueError("path edges do not chain")

    @property
    def start(self) -> tuple[int, int]:
        return self.edges[0].src

    def label(self) -> str:
        steps = " -> ".join([str(self.start)] + [str(e.dst) for e in self.edges])
        ops = ", ".join(e.op.label() for e in self.edges)
        return f"{steps} [{ops}]"


def enumerate_paths(g: DiagramGraph, length: int) -> list[Path]:
    """All monotone paths of exactly `length` edges, lexicographic order."""
    if length < 1:
        raise ValueError("length must be >= 1")
    paths: list[Path] = []

    def extend(pos: tuple[int, int], acc: list[EdgeOp]):
        if len(acc) == length:
            paths.append(Path(tuple(acc)))
            return
        r, c = pos
        for nxt in ((r, c + 1), (r + 1, c)):  # right before down
            if nxt[0] <= 4 and nxt[1] <= 4:
                e = g.edge(pos, nxt)
                extend(nxt, acc + [e])

    for r in range(1, 5):
        for c in range(1, 5):
            extend((r, c), [])
    return paths


def apply_path(g: DiagramGraph, p: Path, f: TypedField) -> TypedField:
    start_kind = g.nodes[p.start].kind
    if f.kind is not start_kind:
        raise TypeError(f"field kind {f.kind.value} does not match path start {start_kind.value}")
    out = f
    for e in p.edges:
        out = e.op.apply(out).retag(g.nodes[e.dst].kind)  # the node's kind predicate is checked
    return out


def _through(edges: tuple[EdgeOp, ...], f: TypedField) -> TypedField:
    """Apply the edge operators in order, without re-tagging to node kinds."""
    for e in edges:
        f = e.op.apply(f)
    return f


def check_cell(g: DiagramGraph, cell: tuple[int, int], samples: int, degree: int, seed: int) -> CheckResult:
    """down∘right == right∘down on the cell with top-left corner `cell`."""
    r, c = cell
    if not (1 <= r <= 3 and 1 <= c <= 3):
        raise ValueError("cell must index one of the 9 interior cells")
    right_then_down = (g.edge((r, c), (r, c + 1)), g.edge((r, c + 1), (r + 1, c + 1)))
    down_then_right = (g.edge((r, c), (r + 1, c)), g.edge((r + 1, c), (r + 1, c + 1)))
    return run_check(
        f"cell ({r},{c})",
        "Thm 2.3",
        samples,
        field_draw(g.nodes[cell].kind, degree, seed, "cell", r, c),
        lambda f: components_equal(_through(right_then_down, f), _through(down_then_right, f)),
    )


def check_all_cells(g: DiagramGraph, samples: int, degree: int, seed: int) -> list[CheckResult]:
    return [check_cell(g, cell, samples, degree, seed) for cell in g.interior_cells()]


def check_two_complex(g: DiagramGraph, samples: int, degree: int, seed: int) -> list[CheckResult]:
    """Every monotone length-3 path composes to the exact zero field."""
    return [
        run_check(
            f"path {p.label()}",
            "Thm 2.5",
            samples,
            field_draw(g.nodes[p.start].kind, degree, seed, "two-complex", idx),
            lambda f: apply_path(g, p, f).is_zero,
        )
        for idx, p in enumerate(enumerate_paths(g, 3))
    ]


_DERIVED_COMPLEXES = {
    # name -> (anchor, three consecutive operators, input kinds of the first two)
    "hessian": ("Cor. 2.6 (1)", (OperatorId("hess"), OperatorId("curl"), OperatorId("div")), (R, S)),
    "elasticity": ("Cor. 2.6 (2)", (OperatorId("deff"), OperatorId("inc"), OperatorId("div")), (V, S)),
    "divdiv": ("Cor. 2.6 (3)", (OperatorId("dev_grad", _HALF), OperatorId("sym_curl"), OperatorId("div_div")), (V, T)),
}


def check_derived_complex(name: str, samples: int, degree: int, seed: int) -> list[CheckResult]:
    """Consecutive compositions of the named derived complex vanish exactly."""
    anchor, ops, kinds = _DERIVED_COMPLEXES[name]
    return [
        run_check(
            f"{name}: {op2.label()} ∘ {op1.label()} = 0",
            anchor,
            samples,
            field_draw(kind, degree, seed, "derived", name, stage),
            lambda f: op2.apply(op1.apply(f)).is_zero,
        )
        for stage, (op1, op2, kind) in enumerate(zip(ops, ops[1:], kinds))
    ]


def check_all_derived_complexes(samples: int, degree: int, seed: int) -> list[CheckResult]:
    return [r for name in _DERIVED_COMPLEXES for r in check_derived_complex(name, samples, degree, seed)]
