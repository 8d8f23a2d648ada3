"""Maximum-cardinality matching with an odd-set cover certificate.

The matching comes from Edmonds' blossom search, run in phases. Each
phase grows one alternating forest from every free vertex at once,
breadth first, contracting odd cycles (blossoms) when two even vertices
of one tree meet, and augmenting when two trees meet. Blossoms are
tracked through a ``base`` array mapping every vertex to the base of its
(possibly nested) contracted cycle. Each step costs only as much as the
structure it touches:

* a contraction costs the blossom: every non-trivial base keeps the list
  of its members, and only the members of the bases on the cycle are
  relabeled;
* finding the cycle's base (the lowest common ancestor) costs the cycle:
  the walks from both endpoints step up in turn and stop at the first
  base both have seen, instead of one walk to the tree's root.

An augmentation flips the paths from both ends of the even-even edge to
their roots, and both trees are then dead for the rest of the phase: their
vertices are skipped and no live tree grows into them, so one phase makes
several vertex-disjoint augmentations. The phases repeat until one
augments nothing; every phase before it augments at least once, so there
are at most n/2 + 1 phases. The vertices a contraction turns even are enqueued in
ascending id order, so the witness is reproducible byte for byte.

The last phase is Edmonds' complete search from every free vertex of a
maximum matching, and its forest is the certificate. In it the vertices
split into three classes:

* ``EVEN``: in some alternating tree at even depth (including every free
  vertex and everything swallowed by a blossom);
* ``ODD``: in a tree at odd depth;
* unreached: matched vertices no tree touched, perfectly matched among
  themselves.

No edge joins two even vertices of different blossoms (the search would
have contracted or augmented) and none joins an even vertex to an
unreached one (the search would have grown). The odd-set cover follows:
label odd vertices 1; give each blossom's vertex set a fresh shared label
>= 2; give each unreached component a fresh shared label >= 2, except
two-vertex components, where labeling one endpoint 1 suffices (and keeps
every label below the vertex count on tiny graphs). Counting matched edges
per class shows the cover's bound equals the matching size, so the checker
accepts; the caller is expected to run the checker, which is the actual
correctness argument for this construction.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph

_UNREACHED, _EVEN, _ODD = 0, 1, 2


def maximum_matching_with_cover(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (sorted G-edge ids forming a maximum matching, cover labels).

    Expects a wellformed graph without self-loops or duplicate ordered
    edges (the matching problem's precondition); the caller validates.
    """
    n = g.num_verts
    adj: list[list[int]] = [[] for _ in range(n)]
    for src, trg in g.edges:
        if src != trg:
            adj[src].append(trg)
            adj[trg].append(src)
    adj = [sorted(set(ns)) for ns in adj]

    match = [-1] * n
    # Greedy seed: fewer augmentation phases, same maximum.
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    forest = None
    while forest is None:
        forest = _phase(adj, match)
    status, blossoms = forest
    labels = _cover_labels(n, adj, status, blossoms)
    edge_ids = _matched_edge_ids(g, match)
    return edge_ids, labels


def _phase(
    adj: list[list[int]], match: list[int]
) -> tuple[list[int], dict[int, list[int]]] | None:
    """Grow one alternating forest from every free vertex; augment where trees meet.

    Returns None if the phase augmented ``match``, else the forest's
    ``(status, blossoms)``, which certifies that ``match`` is maximum.
    ``parent[v]`` is the even vertex from which odd v was reached, and
    blossom contraction also threads parent pointers around each cycle so
    augmentation can walk through it. ``blossoms`` maps each non-trivial
    base to its members.
    """
    n = len(adj)
    status, parent, base, root_of = [_UNREACHED] * n, [-1] * n, list(range(n)), [-1] * n
    blossoms: dict[int, list[int]] = {}
    dead: set[int] = set()
    roots = [v for v in range(n) if match[v] == -1]
    for v in roots:
        status[v] = _EVEN
        root_of[v] = v
    queue = deque(roots)
    while queue:
        v = queue.popleft()
        if root_of[v] in dead:
            continue
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            # The textbook's "root, or mate has a parent": contraction threads those parents.
            if status[to] == _EVEN:
                if root_of[to] == root_of[v]:
                    # The edge closes an odd cycle in one tree; contract it.
                    moved = _contract(match, base, parent, blossoms, v, to)
                    fresh = sorted(i for i in moved if status[i] != _EVEN)
                    for i in fresh:
                        status[i] = _EVEN
                    queue.extend(fresh)
                elif root_of[to] not in dead:
                    # The edge joins two trees: flip both tree paths back to the roots.
                    for x, y in ((v, to), (to, v)):
                        mate = match[x]
                        match[x] = y
                        while mate != -1:
                            pm = parent[mate]
                            next_mate = match[pm]
                            match[mate] = pm
                            match[pm] = mate
                            mate = next_mate
                    dead.update((root_of[v], root_of[to]))
                    break
            elif status[to] == _UNREACHED:
                # Every free vertex is a root, so ``to`` is matched.
                mate = match[to]
                parent[to] = v
                status[to] = _ODD
                status[mate] = _EVEN
                root_of[to] = root_of[mate] = root_of[v]
                queue.append(mate)
    return None if dead else (status, blossoms)


def _contract(
    match: list[int],
    base: list[int],
    parent: list[int],
    blossoms: dict[int, list[int]],
    v: int,
    to: int,
) -> list[int]:
    """Contract the odd cycle closed by the even-even edge (v, to).

    ``blossoms`` maps each non-trivial base to the vertices it stands for;
    a base without an entry stands for itself alone. Returns the vertices
    whose base changed, in no particular order.
    """
    # The cycle's base is that of the lowest common tree ancestor of v and to.
    # Both walks step up in turn; the first base both have seen is the
    # answer, since every common ancestor above it is reached later by both.
    x, y = base[v], base[to]
    seen_x, seen_y = {x}, {y}
    while x not in seen_y and y not in seen_x:
        if match[x] != -1:
            x = base[parent[match[x]]]
            seen_x.add(x)
        if match[y] != -1:
            y = base[parent[match[y]]]
            seen_y.add(y)
    cur_base = x if x in seen_y else y
    # Mark the blossom bases on both sides of the cycle, from each endpoint up
    # to cur_base. Parent pointers are threaded around the cycle as the walk
    # goes, so augmentation can later walk through the blossom either way.
    marked: set[int] = set()
    for a, child in ((v, to), (to, v)):
        while base[a] != cur_base:
            marked.add(base[a])
            marked.add(base[match[a]])
            parent[a] = child
            child = match[a]
            a = parent[child]
    marked.discard(cur_base)  # its members keep their base, and are even already
    moved: list[int] = []
    for b in marked:
        moved.extend(blossoms.pop(b, (b,)))
    for i in moved:
        base[i] = cur_base
    blossoms.setdefault(cur_base, [cur_base]).extend(moved)
    return moved


def _cover_labels(
    n: int,
    adj: list[list[int]],
    status: list[int],
    blossoms: dict[int, list[int]],
) -> tuple[int, ...]:
    labels = [0] * n
    for v in range(n):
        if status[v] == _ODD:
            labels[v] = 1
    next_label = 2

    # Each blossom's vertices share one fresh label; singleton evens stay 0.
    for b in sorted(blossoms):
        for v in blossoms[b]:
            labels[v] = next_label
        next_label += 1

    # Unreached components are perfectly matched inside themselves.
    seen = [False] * n
    for start in range(n):
        if status[start] != _UNREACHED or seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if status[u] == _UNREACHED and not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    queue.append(u)
        if len(comp) == 2:
            labels[min(comp)] = 1
        else:
            for v in comp:
                labels[v] = next_label
            next_label += 1
    return tuple(labels)


def _matched_edge_ids(g: Graph, match: list[int]) -> tuple[int, ...]:
    """Lowest G-edge id joining each matched pair, ascending."""
    by_pair: dict[tuple[int, int], int] = {}
    for i, (src, trg) in enumerate(g.edges):
        by_pair.setdefault((src, trg) if src < trg else (trg, src), i)
    ids = [by_pair[v, match[v]] for v in range(g.num_verts) if match[v] > v]
    return tuple(sorted(ids))
