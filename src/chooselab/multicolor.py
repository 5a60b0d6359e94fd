"""Multi-fold list coloring: validation, exact search, and adversarial choosability.

A g-fold coloring assigns each vertex v a set C(v) of g(v) colors from its
list L(v), with adjacent color sets disjoint.  Choosability is decided at
desk scale by enumerating list assignments up to color renaming: a canonical
representative per class is realized from a Venn-cell cardinality vector
(one cell per nonempty vertex subset S, of size n_S, with the cells of all
subsets containing v partitioning L(v)).
"""

from __future__ import annotations

import heapq
import itertools
import os
from decimal import Decimal, InvalidOperation
from dataclasses import dataclass, field
from typing import Iterator

from .plane import PlaneGraph

DEFAULT_MAX_CELLS = 10 ** 8
ENV_MAX_CELLS = "CHOOSELAB_MAX_CELLS"


class TooLarge(RuntimeError):
    """The canonical enumeration would exceed the configured cap."""


# -- violations (returned as data, never raised) -------------------------

@dataclass(frozen=True)
class SizeShort:
    v: int


@dataclass(frozen=True)
class NotInList:
    v: int


@dataclass(frozen=True)
class EdgeConflict:
    u: int
    v: int


def validate_coloring(G: PlaneGraph, lists: dict[int, frozenset[int]],
                      demand: dict[int, int],
                      coloring: dict[int, frozenset[int]]):
    """Check that `coloring` is a full (L, g)-coloring.

    Returns (True, None) or (False, first violation) with violations checked
    in the order: size, containment, edge conflicts (smallest vertices first).
    """
    for v in sorted(G.vertices):
        c = coloring.get(v, frozenset())
        if len(c) != demand.get(v, 0):
            return False, SizeShort(v)
        if not c <= lists.get(v, frozenset()):
            return False, NotInList(v)
    for u, v in G.edges():
        if coloring.get(u, frozenset()) & coloring.get(v, frozenset()):
            return False, EdgeConflict(u, v)
    return True, None


def find_coloring(G: PlaneGraph, lists: dict[int, frozenset[int]],
                  demand: dict[int, int]) -> dict[int, frozenset[int]] | None:
    """Complete backtracking search for an (L, g)-coloring.

    The next vertex is the uncolored one with the least slack
    |avail(v)| - g(v), ties going to the one with the most colored
    neighbors (Brélaz's DSATUR rule), then to the smallest id.  Its color
    sets are tried as lexicographic combinations of avail(v), the colors
    of L(v) that no colored neighbor uses; a set is rejected at once if it
    leaves an uncolored neighbor fewer colors than it needs.

    The search is iterative: an explicit stack holds one frame per colored
    vertex, so its depth is not bounded by the recursion limit.  Uncolored
    vertices wait in a heap keyed (slack, -colored neighbors, id); a key is
    pushed again whenever it changes, and a popped entry that is no longer
    current is dropped, so each pick costs O(log n) amortized; a heap of
    mostly stale entries is rebuilt, so it stays O(n).  Exact decision
    procedure: returns a coloring iff one exists.
    """
    verts = sorted(G.vertices)
    if any(len(lists.get(v, frozenset())) < demand.get(v, 0) for v in verts):
        return None
    avail = {v: sorted(lists.get(v, frozenset())) for v in verts}
    need = {v: demand.get(v, 0) for v in verts}
    nbrs = {v: G.neighbors(v) for v in verts}
    colored = dict.fromkeys(verts, 0)     # how many neighbors have a frame
    chosen: dict[int, frozenset[int]] = {}
    heap: list[tuple[int, int, int]] = []

    def push(v: int) -> None:
        heapq.heappush(heap, (len(avail[v]) - need[v], -colored[v], v))

    for v in verts:
        push(v)

    def open_frame() -> list:
        """A frame for the uncolored vertex of least key.  An entry is
        current iff it matches the vertex's key now, and every uncolored
        vertex has a current entry."""
        if len(heap) > 4 * len(verts):
            heap.clear()
            for v in verts:
                if v not in chosen:
                    push(v)
        while True:
            slack, minus_c, v = heapq.heappop(heap)
            if (v not in chosen and minus_c == -colored[v]
                    and slack == len(avail[v]) - need[v]):
                for w in nbrs[v]:
                    if w not in chosen:
                        colored[w] += 1
                return [v, itertools.combinations(avail[v], need[v]), []]

    def undo(touched: list) -> None:
        for w, old in touched:
            avail[w] = old
        touched.clear()

    def next_set(v: int, combos, touched: list) -> frozenset[int] | None:
        """Undo v's current color set, then narrow v's uncolored neighbors
        to the next set that leaves each enough colors; None if none does."""
        for combo in combos:
            undo(touched)
            cset = frozenset(combo)
            for w in nbrs[v]:
                if w in chosen:
                    continue
                old = avail[w]
                new = [c for c in old if c not in cset]
                if len(new) < need[w]:
                    break
                avail[w] = new
                touched.append((w, old))
            else:
                return cset
        undo(touched)
        return None

    stack: list[list] = []    # frames [v, combinations left, narrowed]
    while len(stack) < len(verts):
        stack.append(open_frame())
        while (cset := next_set(*stack[-1])) is None:
            v = stack.pop()[0]          # v is uncolored again
            chosen.pop(v, None)
            for w in nbrs[v]:
                if w not in chosen:
                    colored[w] -= 1
                    push(w)
            push(v)
            if not stack:
                return None
        v = stack[-1][0]
        chosen[v] = cset
        for w in nbrs[v]:
            if w not in chosen:
                push(w)
    return dict(chosen)


# -- canonical enumeration up to color renaming ---------------------------


def _max_cells() -> int:
    """The cap from the environment: an integer, plain or in exponent form
    such as 1e8.  Any other value raises ValueError."""
    raw = os.environ.get(ENV_MAX_CELLS)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        value = Decimal(raw)
        if value == value.to_integral_value():
            return int(value)
    except (InvalidOperation, OverflowError):   # not a number; infinity
        pass
    raise ValueError(f"{ENV_MAX_CELLS} must be an integer such as 1e8, "
                     f"not {raw!r}")


def enumerate_assignments_canonical(G: PlaneGraph, f: dict[int, int],
                                    universe_bound: int | None = None,
                                    max_vectors: int | None = None,
                                    ) -> Iterator[dict[int, frozenset[int]]]:
    """Yield one f-list assignment per color-renaming class.

    Classes are Venn-cell vectors: for every nonempty subset S of V(G) a
    cell size n_S >= 0 with sum over S containing v equal to f(v).  Cells are
    realized as consecutive integer blocks (colors numbered from 1) in the
    fixed subset order: subsets sorted as vertex tuples.  Vectors are emitted
    by increasing total weight W = sum n_S (W is the universe size), then
    lexicographically; every f-list assignment is renaming-equivalent to
    exactly one emitted representative.

    The walk enters a subtree only if an exact test says its cells can
    still meet the remaining demands with exactly the remaining weight, so
    every subtree entered emits at least one vector.  The test only prunes:
    the vectors and their order are those of the plain lexicographic walk.
    Its memo lives for one call and is shared by all W.
    """
    verts = sorted(G.vertices)
    cap = max_vectors if max_vectors is not None else _max_cells()
    subsets = []
    for r in range(1, len(verts) + 1):
        subsets.extend(itertools.combinations(verts, r))
    subsets.sort()
    total_f = sum(f[v] for v in verts)
    w_lo = max((f[v] for v in verts), default=0)
    if universe_bound is not None and universe_bound < w_lo:
        raise ValueError("universe_bound below max f(v)")
    w_hi = min(total_f, universe_bound) if universe_bound is not None else total_f

    emitted = 0
    for vec in _cell_vectors(subsets, verts, [f[v] for v in verts],
                             range(w_lo, w_hi + 1)):
        emitted += 1
        if emitted > cap:
            raise TooLarge(f"canonical enumeration exceeded {cap} vectors")
        yield _realize(vec, subsets, verts)


def _cell_vectors(subsets, verts, demand: list[int], weights: range):
    """All vectors n_S >= 0 whose cells containing verts[j] sum to
    demand[j], for each total W in `weights`: by W, then lexicographically.

    `first(i, code, w)` is exact: the least count for cell i after which
    cells i+1.. can still meet the remaining demands `rem` (packed into
    `code`) with total weight exactly w, or -1 if there is none.  It tries
    the cheap bounds max(rem) <= w <= sum(rem) first, memoizes the rest
    under one int key and stops at the first live count.
    """
    if min(demand, default=0) < 0:     # no cell sizes sum to a negative
        return
    index = {v: j for j, v in enumerate(verts)}
    members = [tuple(index[v] for v in S) for S in subsets]
    N = len(members)
    radix = [1]                        # rem packed in mixed radix demand + 1
    for d in demand:
        radix.append(radix[-1] * (d + 1))
    step = [sum(radix[j] for j in S) for S in members]
    # subsets are sorted, so the last one led by v is the last containing v:
    # its cell must take all of v's remaining demand, and past the last
    # subset every demand is met
    closes = [S[0] if i + 1 == N or members[i + 1][0] != S[0] else -1
              for i, S in enumerate(members)]
    wspan = sum(demand) + 1
    rem, code0 = list(demand), radix[-1] - 1
    memo: dict[int, int] = {}

    def scan(i: int, code: int, w: int, n: int) -> int:
        """The least count >= n for cell i that leaves a live subtree."""
        S = members[i]
        hi = min(w, *[rem[j] for j in S])
        while n <= hi:
            for j in S:
                rem[j] -= n
            ok = first(i + 1, code - n * step[i], w - n) >= 0
            for j in S:
                rem[j] += n
            if ok:
                return n
            n += 1
        return -1

    def first(i: int, code: int, w: int) -> int:
        if w > sum(rem) or max(rem, default=0) > w:
            return -1
        if w == 0:
            return 0
        key = (code * wspan + w) * N + i
        n = memo.get(key)
        if n is None:
            c = closes[i]
            n = memo[key] = scan(i, code, w, rem[c] if c >= 0 else 0)
        return n

    zeros = (0,) * N
    vec = [0] * N
    for W in weights:
        n = first(0, code0, W)
        if n < 0:
            continue
        # n is the count to apply at level i, or -1 to backtrack; a live
        # level with no weight left has only zero cells to come
        i, code, w = 0, code0, W
        while i >= 0:
            if w == 0:
                yield tuple(vec[:i]) + zeros[i:]
            elif n >= 0:
                for j in members[i]:
                    rem[j] -= n
                code -= n * step[i]
                w -= n
                vec[i] = n
                i += 1
                n = first(i, code, w)
                continue
            i -= 1
            if i >= 0:
                n = vec[i]
                for j in members[i]:
                    rem[j] += n
                code += n * step[i]
                w += n
                n = scan(i, code, w, n + 1)


def _realize(vec, subsets, verts) -> dict[int, frozenset[int]]:
    lists: dict[int, set[int]] = {v: set() for v in verts}
    color = 1
    for S, n in zip(subsets, vec):
        if n == 0:
            continue
        block = range(color, color + n)
        color += n
        for v in S:
            lists[v].update(block)
    return {v: frozenset(cs) for v, cs in lists.items()}


# -- choosability --------------------------------------------------------

@dataclass
class ChoosableVerdict:
    ok: bool
    witness: dict[int, frozenset[int]] | None = None
    checked: int = 0

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class ChoosableOpts:
    max_vectors: int | None = None
    universe_bound: int | None = None


def choosable(G: PlaneGraph, f: dict[int, int] | int, g: dict[int, int] | int,
              opts: ChoosableOpts | None = None) -> ChoosableVerdict:
    """Decide (f, g)-choosability by exhausting canonical list assignments.

    "no" comes with the first failing assignment in the canonical order
    (the lexicographically least witness).
    """
    opts = opts or ChoosableOpts()
    fmap = _as_map(G, f)
    gmap = _as_map(G, g)
    checked = 0
    for lists in enumerate_assignments_canonical(G, fmap,
                                                 universe_bound=opts.universe_bound,
                                                 max_vectors=opts.max_vectors):
        checked += 1
        if find_coloring(G, lists, gmap) is None:
            return ChoosableVerdict(False, witness=lists, checked=checked)
    return ChoosableVerdict(True, checked=checked)


def colorable_ab(G: PlaneGraph, a: int, b: int) -> bool:
    """(a, b)-colorability: the single list assignment L(v) = {1..a}, g = b."""
    if not a >= b >= 1:
        raise ValueError("need a >= b >= 1")
    palette = frozenset(range(1, a + 1))
    lists = {v: palette for v in G.vertices}
    demand = {v: b for v in G.vertices}
    return find_coloring(G, lists, demand) is not None


def _as_map(G: PlaneGraph, x: dict[int, int] | int) -> dict[int, int]:
    if isinstance(x, int):
        return {v: x for v in G.vertices}
    return dict(x)
