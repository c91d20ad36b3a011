"""Independent checks of CLI output: witnesses, decompositions, answers.

Nothing here imports the `bcoloring` package; the definitions are coded
again from scratch so that a defect in the package's own checker cannot
hide a wrong witness.
"""

from __future__ import annotations

from collections import deque

from corpus import G, Request


# --- colorings -----------------------------------------------------------------


def _colors_of(g: G, witness: dict, k: int) -> list[int] | str:
    """Per-vertex colors from a witness document, or a reason it is malformed."""
    pairs = witness.get("coloring")
    if not isinstance(pairs, list) or len(pairs) != g.n:
        return "coloring does not list every vertex once"
    colors = [0] * g.n
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            return f"malformed coloring entry {pair!r}"
        v, c = pair
        if not (isinstance(v, int) and 1 <= v <= g.n) or colors[v - 1]:
            return f"bad or repeated vertex {v!r}"
        if not (isinstance(c, int) and 1 <= c <= k):
            return f"color {c!r} outside 1..{k}"
        colors[v - 1] = c
    if set(colors) != set(range(1, k + 1)):
        return f"coloring does not use exactly {k} colors"
    return colors


def _improper(g: G, colors: list[int]) -> str | None:
    for u, v in g.edges:
        if colors[u] == colors[v]:
            return f"edge {u + 1}-{v + 1} is monochromatic"
    return None


def _is_b_vertex(adj, colors, v, k) -> bool:
    return len({colors[u] for u in adj[v]}) == k - 1


def b_coloring_problem(g: G, witness: dict, k: int) -> str | None:
    """None if witness is a b-coloring with k colors whose listed b-vertices
    are b-vertices, one per color; else the reason it is not."""
    colors = _colors_of(g, witness, k)
    if isinstance(colors, str):
        return colors
    problem = _improper(g, colors)
    if problem:
        return problem
    adj = g.adjacency()
    listed = witness.get("b_vertices")
    if not isinstance(listed, list) or len(listed) != k:
        return "b_vertices must list one vertex per color"
    if not all(isinstance(v, int) and 1 <= v <= g.n for v in listed):
        return "b_vertices lists an unknown vertex"
    if {colors[v - 1] for v in listed} != set(range(1, k + 1)):
        return "b_vertices do not cover every color"
    for v in listed:
        if not _is_b_vertex(adj, colors, v - 1, k):
            return f"listed b-vertex {v} misses a color"
    return None


def fall_coloring_problem(g: G, witness: dict, k: int) -> str | None:
    """None if witness is a fall coloring with k colors: proper, and every
    vertex sees all other colors."""
    colors = _colors_of(g, witness, k)
    if isinstance(colors, str):
        return colors
    problem = _improper(g, colors)
    if problem:
        return problem
    adj = g.adjacency()
    for v in range(g.n):
        if not _is_b_vertex(adj, colors, v, k):
            return f"vertex {v + 1} misses a color"
    return None


# --- decompositions --------------------------------------------------------------


def decomposition_width(g: G, text: str) -> int | str:
    """Module-width of a decomposition file for g, or why the file is not a
    rooted binary decomposition whose leaves biject onto V(g)."""
    nodes: dict[int, tuple] = {}
    root = None
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] != "n" or len(parts) not in (4, 5) or not all(p.isdigit() for p in parts[1:2] + parts[3:]):
            return f"malformed line {raw!r}"
        ident = int(parts[1])
        if ident in nodes:
            return f"node {ident} listed twice"
        if root is None:
            root = ident
        if parts[2] == "internal" and len(parts) == 5:
            nodes[ident] = (int(parts[3]), int(parts[4]))
        elif parts[2] == "leaf" and len(parts) == 4:
            nodes[ident] = int(parts[3]) - 1
        else:
            return f"malformed line {raw!r}"
    if root is None:
        return "empty decomposition"
    adj_mask = [0] * g.n
    for u, v in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    full = (1 << g.n) - 1
    below: dict[int, int] = {}
    width = 1
    stack = [(root, False)]
    seen = set()
    while stack:
        t, expanded = stack.pop()
        entry = nodes.get(t)
        if entry is None:
            return f"unknown node {t}"
        if not expanded:
            if t in seen:
                return f"node {t} reached twice"
            seen.add(t)
        if isinstance(entry, int):
            if not 0 <= entry < g.n:
                return f"leaf vertex {entry + 1} out of range"
            below[t] = 1 << entry
            continue
        if not expanded:
            stack.append((t, True))
            stack.extend((c, False) for c in entry)
            continue
        left, right = (below[c] for c in entry)
        if left & right:
            return "a vertex sits on two leaves"
        mask = below[t] = left | right
        outside = full & ~mask
        classes = set()
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            classes.add(adj_mask[bit.bit_length() - 1] & outside)
        width = max(width, len(classes))
    if len(seen) != len(nodes):
        return "nodes unreachable from the root"
    if below[root] != full:
        return "leaves do not cover every vertex"
    return width


# --- constructed answers -------------------------------------------------------------


def _induced_p5s(adj: list[set[int]]):
    """Induced paths on five vertices, by depth-first extension."""
    def extend(p: list[int]):
        if len(p) == 5:
            yield p
            return
        for w in sorted(adj[p[-1]]):
            if w not in p and not any(w in adj[u] for u in p[:-1]):
                yield from extend(p + [w])

    for v in range(len(adj)):
        yield from extend([v])


def _extend_3_coloring(adj: list[set[int]], colors: list[int], fixed: list[int]) -> bool:
    """Color every uncolored vertex properly with colors 1-3, keeping the
    fixed ones, by backtracking in breadth-first order from them."""
    order = []
    seen = set(fixed)
    queue = deque(fixed)
    while queue:
        for w in sorted(adj[queue.popleft()]):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    order += [v for v in range(len(adj)) if v not in seen]
    tried = [0] * len(order)  # last color tried at each position
    i = 0
    while 0 <= i < len(order):
        v = order[i]
        colors[v] = 0
        c = tried[i] + 1
        while c <= 3 and any(colors[u] == c for u in adj[v]):
            c += 1
        if c <= 3:
            colors[v] = tried[i] = c
            i += 1
            if i < len(order):
                tried[i] = 0
        else:
            tried[i] = 0
            i -= 1
    return i == len(order)


def three_b_coloring(g: G, attempts: int = 50) -> list[int] | None:
    """A b-coloring of g with three colors, or None if this simple
    construction fails: color an induced path a-b-c-d-e as 3,1,2,3,1 (b, c
    and d are then b-vertices of colors 1, 2 and 3) and extend properly
    with three colors.  Tries the first `attempts` induced paths."""
    adj = g.adjacency()
    for p5, _ in zip(_induced_p5s(adj), range(attempts)):
        colors = [0] * g.n
        for v, c in zip(p5, (3, 1, 2, 3, 1)):
            colors[v] = c
        if any(len({colors[u] for u in adj[w]} - {0}) == 3 for w in range(g.n)):
            continue  # some vertex already sees all three colors
        if _extend_3_coloring(adj, colors, p5):
            return colors
    return None


# --- one CLI result --------------------------------------------------------------


def result_problem(req: Request, code: int, doc: dict | None, dec_text: str | None) -> str | None:
    """None if the CLI result matches the request's expectation."""
    if code != 0:
        return f"exit code {code}"
    if doc is None:
        return "no JSON document on stdout"
    expect = req.expect
    if dec_text is not None:
        width = decomposition_width(req.graph, dec_text)
        if isinstance(width, str):
            return f"decomposition: {width}"
        if doc.get("answer") != width:
            return f"reported width {doc.get('answer')} but the file has width {width}"
        return None
    if doc.get("answer") != expect["answer"]:
        return f"answer {doc.get('answer')!r}, expected {expect['answer']!r} ({expect['source']})"
    witness = doc.get("witness")
    if expect["witness"] is None:
        return None
    if not isinstance(witness, dict):
        return "witness missing"
    if expect["witness"] == "b":
        return b_coloring_problem(req.graph, witness, expect["k"])
    return fall_coloring_problem(req.graph, witness, expect["k"])
