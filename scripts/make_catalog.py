"""Write the catalog of connected graphs on 1 to 8 vertices, one per
isomorphism class, that `graphassoc.graphs.connected_graphs_up_to_iso` reads.

    python scripts/make_catalog.py [OUT]

OUT defaults to src/graphassoc/catalog.txt next to this script.  networkx
is needed here only (it is in the package's `test` extra).

Each line is `n mask`: mask is the edge set in hex, bit k for the k-th
pair (u, v), u < v, in lexicographic order.
- n <= 7: the connected graphs of networkx's graph atlas (Read and Wilson,
  An Atlas of Graphs), in atlas order and with its vertex labels.
- n = 8: each 7-vertex atlas graph, connected or not, gets vertex 7 joined
  to each subset of its vertices (1044 x 128 = 133,632 candidates).  The
  connected candidates are bucketed by Weisfeiler-Lehman hash and degree
  sequence, and one is kept unless it is isomorphic to a graph kept before
  it in its bucket.  Every connected graph on 8 vertices loses a vertex
  to some 7-vertex graph, so each class is met.  The kept graphs are
  written by edge count, then in the order they were generated, so the
  order does not depend on the hash values.
The counts are checked against OEIS A001349: 1, 1, 2, 6, 21, 112, 853,
11,117.
"""

import sys
import warnings
from pathlib import Path

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
DEFAULT_OUT = Path(__file__).resolve().parents[1] / "src" / "graphassoc" / "catalog.txt"


def edge_mask(n, edges):
    """Bit k for the k-th pair (u, v), u < v, in lexicographic order."""
    index = {(u, v): k for k, (u, v) in enumerate((u, v) for u in range(n) for v in range(u + 1, n))}
    return sum(1 << index[min(e), max(e)] for e in edges)


def components(g):
    return [sum(1 << v for v in c) for c in nx.connected_components(g)]


def atlas_block(atlas, n):
    """The connected n-vertex atlas graphs, in atlas order, as edge masks."""
    out = []
    for g in atlas:
        if g.number_of_nodes() == n and (n == 1 or nx.is_connected(g)):
            assert sorted(g.nodes()) == list(range(n))
            out.append(edge_mask(n, g.edges()))
    return out


def eight_vertex_block(atlas):
    """One edge mask per connected graph on 8 vertices (see the module
    docstring for the order)."""
    buckets = {}
    kept = []  # (edge count, generation index, mask)
    for g in atlas:
        if g.number_of_nodes() != 7:
            continue
        parts = components(g)
        for s in range(1, 1 << 7):
            if not all(c & s for c in parts):
                continue  # vertex 7 misses a component: disconnected
            h = g.copy()
            h.add_edges_from((v, 7) for v in range(7) if s >> v & 1)
            key = (nx.weisfeiler_lehman_graph_hash(h), tuple(sorted(d for _, d in h.degree())))
            bucket = buckets.setdefault(key, [])
            if not any(nx.is_isomorphic(h, other) for other in bucket):
                bucket.append(h)
                kept.append((h.number_of_edges(), len(kept), edge_mask(8, h.edges())))
    return [mask for _, _, mask in sorted(kept)]


def main(argv):
    # the hashes only bucket the candidates, so a change in their values
    # between networkx versions cannot change the file
    warnings.filterwarnings("ignore", "The hashes produced", UserWarning)
    out = Path(argv[1]) if len(argv) > 1 else DEFAULT_OUT
    atlas = graph_atlas_g()
    blocks = {n: atlas_block(atlas, n) for n in range(1, 8)}
    blocks[8] = eight_vertex_block(atlas)
    counts = {n: len(masks) for n, masks in blocks.items()}
    assert counts == COUNTS, counts
    lines = [f"{n} {mask:x}\n" for n, masks in blocks.items() for mask in masks]
    out.write_text("".join(lines))
    print(f"wrote {len(lines)} graphs to {out}")


if __name__ == "__main__":
    main(sys.argv)
