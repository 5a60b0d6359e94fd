"""Multi-fold list coloring: validation, exact search, and adversarial choosability.

A g-fold coloring assigns each vertex v a set C(v) of g(v) colors from its
list L(v), with adjacent color sets disjoint.  Choosability is decided at
desk scale by enumerating list assignments up to color renaming: a canonical
representative per class is realized from a Venn-cell cardinality vector
(one cell per nonempty vertex subset S, of size n_S, with the cells of all
subsets containing v partitioning L(v)).  Each class is carried as one
color bitmask per vertex and decided by one search set up per graph.
"""

from __future__ import annotations

import heapq
import itertools
import os
from decimal import Decimal, InvalidOperation
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

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

    The colors, of any integer ids, are ranked into bit positions in
    increasing order, and `coloring_search` decides the lists as bitmasks;
    its coloring is mapped back to the ids.  Exact decision procedure:
    returns a coloring iff one exists, its vertices in the order the search
    colored them.
    """
    verts = sorted(G.vertices)
    colors = sorted(set().union(*(lists.get(v, ()) for v in verts)))
    bit = {c: 1 << i for i, c in enumerate(colors)}
    color = {b: c for c, b in bit.items()}
    frames = coloring_search(G, demand)(
        [reduce(or_, map(bit.__getitem__, lists.get(v, ())), 0)
         for v in verts])
    if frames is None:
        return None
    return {verts[i]: frozenset(map(color.__getitem__, _bits(m)))
            for i, m in frames}


def coloring_search(G: PlaneGraph, demand: dict[int, int],
                    ) -> Callable[[Sequence[int]],
                                  list[tuple[int, int]] | None]:
    """The search for an (L, g)-coloring of G, set up once for G and g.

    The returned function takes the lists as bitmasks, one per vertex in
    sorted order, and returns the colored frames [(vertex index, color
    mask), ...] in the order the vertices were colored, or None if no
    coloring exists.

    The function remembers the last coloring its search found, and first
    tries to repair it: each vertex whose color set still lies in its new
    list keeps it, and the others, in the last frame order, take the g(v)
    lowest colors of their list that no neighbor holds now.  A repaired
    coloring keeps the last frame order and is not remembered.  If some
    vertex is left with too few colors, the search below runs unchanged;
    only it answers None, so the repair moves no verdict, and a None
    leaves the remembered coloring as it was.

    The next vertex is the uncolored one with the least slack
    |avail(v)| - g(v), ties going to the one with the most colored
    neighbors (Brélaz's DSATUR rule), then to the smallest id.  Its color
    sets are tried as lexicographic combinations of avail(v), the colors
    of L(v) that no colored neighbor uses; a set is rejected at once if it
    leaves an uncolored neighbor fewer colors than it needs.

    The search is iterative: an explicit stack holds one frame per colored
    vertex, so its depth is not bounded by the recursion limit.  Uncolored
    vertices wait in a heap keyed (slack, -colored neighbors, index); a key
    is pushed again whenever it changes, and a popped entry that is no
    longer current is dropped, so each pick costs O(log n) amortized; a
    heap of mostly stale entries is rebuilt, so it stays O(n).
    """
    verts = sorted(G.vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    need = [demand.get(v, 0) for v in verts]
    if any(k < 0 for k in need):
        raise ValueError("a demand must not be negative")
    nbrs = [[index[w] for w in G.neighbors(v)] for v in verts]
    heappush, heappop = heapq.heappush, heapq.heappop
    last: list[tuple[int, int]] = []    # frames the full search found last

    def search(lists: Sequence[int]) -> list[tuple[int, int]] | None:
        nonlocal last
        for m, k in zip(lists, need):
            if m.bit_count() < k:
                return None
        if last:
            frames = repair(lists)
            if frames is not None:
                return frames
        frames = dfs(lists)
        if frames is not None:
            last = frames
        return frames

    def repair(lists: Sequence[int]) -> list[tuple[int, int]] | None:
        cur = [0] * n
        redo = []
        for v, m in last:
            if m & ~lists[v]:
                redo.append(v)
            else:
                cur[v] = m
        for v in redo:
            avail = lists[v]
            for w in nbrs[v]:
                avail &= ~cur[w]
            rest = avail
            for _ in range(need[v]):
                if not rest:
                    return None
                rest &= rest - 1
            cur[v] = avail ^ rest
        return [(v, cur[v]) for v, _ in last]

    def dfs(lists: Sequence[int]) -> list[tuple[int, int]] | None:
        avail = list(lists)
        colored = [0] * n           # how many neighbors have a frame
        chosen: list[int | None] = [None] * n
        heap = [(avail[v].bit_count() - need[v], 0, v) for v in range(n)]
        heapq.heapify(heap)
        # frames (v, combinations left, narrowed, the neighbors uncolored
        # when the frame opened, which are uncolored whenever it is on top)
        stack: list[tuple] = []
        while len(stack) < n:
            # a frame for the uncolored vertex of least key: an entry is
            # current iff it matches the vertex's key now, and every
            # uncolored vertex has a current entry
            if len(heap) > 4 * n:
                heap = [(avail[v].bit_count() - need[v], -colored[v], v)
                        for v in range(n) if chosen[v] is None]
                heapq.heapify(heap)
            while True:
                slack, minus_c, v = heappop(heap)
                if (chosen[v] is None and minus_c == -colored[v]
                        and slack == avail[v].bit_count() - need[v]):
                    break
            free = [w for w in nbrs[v] if chosen[w] is None]
            for w in free:
                colored[w] += 1
            stack.append((v, _combos(avail[v], need[v]), [], free))
            while True:
                # undo the top vertex's color set, then narrow its uncolored
                # neighbors to the next set that leaves each enough colors
                v, combos, touched, free = stack[-1]
                for cset in combos:
                    for w, old in touched:
                        avail[w] = old
                    touched.clear()
                    for w in free:
                        old = avail[w]
                        new = old & ~cset
                        if new != old:
                            if new.bit_count() < need[w]:
                                break
                            avail[w] = new
                            touched.append((w, old))
                    else:
                        break
                else:                   # no set left: v is uncolored again
                    for w, old in touched:
                        avail[w] = old
                    stack.pop()
                    chosen[v] = None
                    for w in free:
                        colored[w] -= 1
                        heappush(heap, (avail[w].bit_count() - need[w],
                                        -colored[w], w))
                    heappush(heap, (avail[v].bit_count() - need[v],
                                    -colored[v], v))
                    if not stack:
                        return None
                    continue
                break
            chosen[v] = cset
            for w in free:
                heappush(heap, (avail[w].bit_count() - need[w],
                                -colored[w], w))
        return [(frame[0], chosen[frame[0]]) for frame in stack]

    return search


def _combos(m: int, k: int) -> Iterator[int]:
    """The k-sets of the bits of m as masks, lexicographically.  The first,
    the k lowest bits, comes without listing the others."""
    return itertools.chain.from_iterable(_combo_runs(m, k))


def _combo_runs(m: int, k: int) -> Iterator[Iterable[int]]:
    """The runs `_combos` chains: the first set alone, then the rest."""
    if m.bit_count() < k:
        return
    rest = m
    for _ in range(k):
        rest &= rest - 1
    yield (m ^ rest,)
    later = map(sum, itertools.combinations(_bits(m), k))
    next(later)
    yield later


def _bits(m: int) -> list[int]:
    """The one-bit masks of m, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low)
        m ^= low
    return out


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

    This is `canonical_masks` with each class's bitmasks read as color sets.
    """
    verts = sorted(G.vertices)
    for masks in canonical_masks(G, f, max_vectors):
        yield lists_from_masks(verts, masks)


def lists_from_masks(verts: list[int], masks: Sequence[int],
                     ) -> dict[int, frozenset[int]]:
    """The lists of one class: bit b of a mask is color b + 1."""
    return {v: frozenset(map(int.bit_length, _bits(m)))
            for v, m in zip(verts, masks)}


def canonical_masks(G: PlaneGraph, f: dict[int, int],
                    max_vectors: int | None = None,
                    ) -> Iterator[tuple[int, ...]]:
    """The classes of `enumerate_assignments_canonical`, in its order, as
    tuples of bitmasks, one per vertex in sorted order (bit b is color
    b + 1).  Raises TooLarge on the first class past the cap."""
    verts = sorted(G.vertices)
    cap = max_vectors if max_vectors is not None else _max_cells()
    emitted = 0
    for masks in _class_walk([f[v] for v in verts]):
        emitted += 1
        if emitted > cap:
            raise TooLarge(f"canonical enumeration exceeded {cap} vectors")
        yield masks


def _class_walk(demand: list[int]) -> Iterator[tuple[int, ...]]:
    """Every Venn-cell vector whose cells containing vertex j sum to
    demand[j], by total W from max(demand) to sum(demand), then
    lexicographically, each realized as per-vertex color bitmasks.

    Subsets are sorted, so the cells led by vertex j (its block) are
    consecutive, and no later cell contains j: block j's cells sum to
    exactly what j still needs, and the vector is its blocks' compositions
    in turn.  Past block j, any remaining demands `rem` can be met with
    weight w by cells on the later vertices iff max(rem) <= w <= sum(rem):
    the cells {k : rem[k] >= t} for t = 1..max(rem) weigh max(rem), and
    trading one color of a cell S of two or more vertices for one color of
    {s} and one of S - {s} adds 1, until only singletons, of weight
    sum(rem), are left.  So a walk over blocks that checks this at each
    block's end enters only subtrees that emit.  Block j's compositions for a given (rem, w) are
    made once, by `_Blocks.compositions`, and kept in a list for the rest
    of the call; each carries its color masks from color 0, which the walk
    ORs in shifted past the colors of the blocks before.
    """
    n = len(demand)
    if min(demand, default=0) < 0:     # no cell sizes sum to a negative
        return
    if n == 0:
        yield ()
        return
    blocks = _Blocks(demand)
    cache: dict[tuple, list] = {}

    def fill(key):
        got = []
        for entry in blocks.compositions(*key):
            got.append(entry)
            yield entry
        cache[key] = got

    for W in range(max(demand), sum(demand) + 1):
        top = (0, tuple(demand), W - demand[0])
        # one level per block on the path: (compositions left, block, the
        # color it starts at, the color the next block starts at, the
        # masks before it)
        stack = [(fill(top), 0, 0, demand[0], (0,) * n)]
        while stack:
            it, j, off, end, prev = stack[-1]
            for nxt, masks in it:
                acc = prev[:j] + tuple([a | m << off
                                        for a, m in zip(prev[j:], masks)])
                if nxt is None:        # every demand is met
                    yield acc
                else:
                    got = cache.get(nxt)
                    stack.append((fill(nxt) if got is None else iter(got),
                                  j + 1, end, end + nxt[1][0], acc))
                    break
            else:
                stack.pop()


class _Blocks:
    """The cells of each vertex block, and the walk that lists a block's
    compositions."""

    def __init__(self, demand: list[int]):
        n = len(demand)
        radix = [1]                    # rem packed in mixed radix demand + 1
        for d in demand:
            radix.append(radix[-1] * (d + 1))
        self.radix = radix
        self.wspan = sum(demand) + 1
        # block j's cells as member positions relative to j, sorted
        self.cells = []
        self.start = []                # index of block j's first cell
        total = 0
        for j in range(n):
            cells = sorted((0,) + T for r in range(n - j)
                           for T in itertools.combinations(range(1, n - j), r))
            self.cells.append([(S, sum(radix[j + k] for k in S), len(S))
                               for S in cells])
            self.start.append(total)
            total += len(cells)
        self.ncells = total
        # a level (cell, rem, w) whose subtree completed no composition
        self.dead: set[int] = set()

    def compositions(self, j: int, rem: tuple[int, ...], w_after: int):
        """Block j's compositions, lexicographically, that meet rem[0] (the
        demand of vertex j) and leave later demands rem' with
        max(rem') <= w_after <= sum(rem'): entries (next key, masks), the
        next key (j + 1, rem', w_after - rem'[0]) or None when w_after is 0,
        and masks the colors from 0 of each vertex from j on.

        One depth-first walk over the block's cells on an explicit stack.
        A level is a state (cell i, remaining demands `rem` packed into
        `code`, weight w = rem[0] + w_after left).  The walk skips a level
        that the bounds rule out, or that it has walked before in this call
        without completing a composition: such levels go into `dead`, one
        int key each, so each is walked at most once.  The bounds are
        max(rem) <= w <= sum(rem), and past cell 0, the singleton {j}, w <=
        sum(rem) - rem[0], since every later cell of the block meets a
        later vertex.  The last cell of the block takes all that vertex j
        still needs; once that is 0, the remaining cells are empty.
        """
        cells, dead = self.cells[j], self.dead
        last = len(cells) - 1
        radix, wspan, N, base = self.radix, self.wspan, self.ncells, self.start[j]
        rem = list(rem)
        code = sum(r * radix[j + k] for k, r in enumerate(rem))
        total = sum(rem)
        masks = [0] * len(rem)
        count = [0] * len(cells)       # the count of each level on the path
        hi = [0] * len(cells)          # the largest count each level may take
        path: list[tuple[int, int]] = []   # (key, made on entry) per level
        made = 0
        pos = 0                        # colors the block has used
        # x is None on arriving at level i, -1 to go back up, else the
        # count to try for cell i; `moved` says the last count was not 0, so
        # the bounds may have changed since the level above
        i, x, moved = 0, None, True
        while True:
            if x is None:              # arrive at level i
                w = rem[0] + w_after
                if (moved or i == 1) and (
                        w > (total - rem[0] if i else total) or max(rem) > w):
                    x = -1
                elif rem[0] == 0:      # the block is complete
                    nxt = (None if w_after == 0 else
                           (j + 1, tuple(rem[1:]), w_after - rem[1]))
                    yield nxt, tuple(masks)
                    made += 1
                    x = -1
                elif (key := (code * wspan + w) * N + base + i) in dead:
                    x = -1
                else:
                    path.append((key, made))
                    S = cells[i][0]
                    hi[i] = min([rem[k] for k in S])
                    x = rem[0] if i == last else 0
            if x >= 0:                 # try count x at level i
                if x <= hi[i]:
                    moved = x > 0
                    if moved:
                        S, step, size = cells[i]
                        bits = ((1 << x) - 1) << pos
                        for k in S:
                            rem[k] -= x
                            masks[k] |= bits
                        code -= x * step
                        total -= x * size
                        pos += x
                    count[i] = x
                    i += 1
                    x = None
                    continue
                key, before = path.pop()
                if made == before:
                    dead.add(key)
            i -= 1                     # back to the level above, next count
            if i < 0:
                break
            x = count[i]
            if x:
                S, step, size = cells[i]
                pos -= x
                bits = ((1 << x) - 1) << pos
                for k in S:
                    rem[k] += x
                    masks[k] ^= bits
                code += x * step
                total += x * size
            x += 1


# -- choosability --------------------------------------------------------

@dataclass
class ChoosableVerdict:
    ok: bool
    witness: dict[int, frozenset[int]] | None = None
    checked: int = 0

    def __bool__(self) -> bool:
        return self.ok


def choosable(G: PlaneGraph, f: dict[int, int] | int, g: dict[int, int] | int,
              max_vectors: int | None = None) -> ChoosableVerdict:
    """Decide (f, g)-choosability by exhausting canonical list assignments.

    "no" comes with the first failing assignment in the canonical order
    (the lexicographically least witness).  One search decides every
    class, so most classes are settled by repairing the coloring found for
    an earlier one; a class fails only when the full search finds none.
    """
    search = coloring_search(G, _as_map(G, g))
    checked = 0
    for masks in canonical_masks(G, _as_map(G, f), max_vectors):
        checked += 1
        if search(masks) is None:
            witness = lists_from_masks(sorted(G.vertices), masks)
            return ChoosableVerdict(False, witness=witness, checked=checked)
    return ChoosableVerdict(True, checked=checked)


def colorable_ab(G: PlaneGraph, a: int, b: int) -> bool:
    """(a, b)-colorability: the single list assignment L(v) = {1..a}, g = b."""
    if not a >= b >= 1:
        raise ValueError("need a >= b >= 1")
    search = coloring_search(G, {v: b for v in G.vertices})
    return search([(1 << a) - 1] * len(G.vertices)) is not None


def _as_map(G: PlaneGraph, x: dict[int, int] | int) -> dict[int, int]:
    if isinstance(x, int):
        return {v: x for v in G.vertices}
    return dict(x)
