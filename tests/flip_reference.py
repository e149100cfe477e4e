"""Rebuild-per-flip reference for random diagonal flips.

`flip_random_edges` finds both faces of the drawn edge by scanning every
face, rebuilds the whole edge set to test adjacency, merges the two faces
into a quadrilateral and splits it along the other diagonal.  One flip costs
O(n), but the steps follow the definition directly and share no flip code
with `dompack.planar`, so the tests use it as the oracle for the incremental
flip.  It edits its own `Workspace`, which splices every rotation in place:
started from the same growth and the same `random.Random` state, it must
leave the adjacency the incremental flip returns and the generator in equal
state.
"""

from dataclasses import dataclass

from dompack.errors import EmbeddingError


@dataclass
class Workspace:
    """An edge list, each vertex's rotation and the face walks, as lists of
    darts that the flips edit in place."""

    edges: list
    rot: list
    faces: list


def _tail(work, d):
    return work.edges[d >> 1][d & 1]


def _insert_after(work, v, anchor, new):
    darts = work.rot[v]
    darts.insert(darts.index(anchor) + 1, new)


def delete_edge_merge_faces(work, e):
    """Remove edge e whose two darts lie on distinct faces; return the
    merged face walk (with e's darts gone)."""
    d, dr = 2 * e, 2 * e + 1
    fi = next(i for i, f in enumerate(work.faces) if d in f)
    gi = next(i for i, f in enumerate(work.faces) if dr in f)
    if fi == gi:
        raise EmbeddingError("deleting a bridge is not supported here")
    fwalk = work.faces[fi]
    gwalk = work.faces[gi]
    di = fwalk.index(d)
    gi2 = gwalk.index(dr)
    merged = fwalk[di + 1:] + fwalk[:di] + gwalk[gi2 + 1:] + gwalk[:gi2]
    for hi in sorted((fi, gi), reverse=True):
        del work.faces[hi]
    u, v = work.edges[e]
    work.rot[u].remove(d)
    work.rot[v].remove(dr)
    work.faces.append(merged)
    return merged


def flip_random_edges(work, rng, attempts):
    """Random diagonal flips on a triangulation; keeps it simple and maximal."""
    for _ in range(attempts):
        e = rng.randrange(len(work.edges))
        d, dr = 2 * e, 2 * e + 1
        fi = next(i for i, f in enumerate(work.faces) if d in f)
        gi = next(i for i, f in enumerate(work.faces) if dr in f)
        if fi == gi:
            continue
        fwalk, gwalk = work.faces[fi], work.faces[gi]
        if len(fwalk) != 3 or len(gwalk) != 3:
            raise EmbeddingError("flip requires triangular faces")
        di, gi2 = fwalk.index(d), gwalk.index(dr)
        c = _tail(work, fwalk[(di + 2) % 3])
        z = _tail(work, gwalk[(gi2 + 2) % 3])
        if c == z:
            continue
        adjacency = {(min(u, v), max(u, v)) for u, v in work.edges}
        if (min(c, z), max(c, z)) in adjacency:
            continue
        merged = delete_edge_merge_faces(work, e)
        # Reuse edge slot e for the new diagonal (c, z).
        j = next(
            i
            for i in range(len(merged))
            if _tail(work, merged[i]) == c
            and _tail(work, merged[(i + 2) % len(merged)]) == z
        )
        walk = merged
        k = len(walk)
        dj, dj1 = walk[j], walk[(j + 1) % k]
        djm1, dj2 = walk[(j - 1) % k], walk[(j + 2) % k]
        work.edges[e] = (c, z)
        _insert_after(work, c, djm1 ^ 1, d)
        _insert_after(work, z, dj1 ^ 1, dr)
        face_idx = next(i for i, f in enumerate(work.faces) if f == merged)
        work.faces[face_idx] = [dj, dj1, dr]
        work.faces.append([d, dj2, walk[(j + 3) % k]])
