"""graph6 and JSON edge-list serialization.

graph6 follows the de-facto standard bit-packed format: the vertex count as
N(n), then the upper triangle of the adjacency matrix in column-major order,
packed into 6-bit chunks offset by 63.  The JSON format is
{"n": int, "edges": [[u, v], ...]}.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .graph import MAX_VERTICES, Graph

_HEADER = ">>graph6<<"


def _encode_count(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    # 63 <= n <= 258047: '~' then 18 bits in three 6-bit chunks
    return "~" + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))


def _decode_count(text: str) -> tuple[int, int]:
    """Return (n, chars consumed)."""
    if not text:
        raise ParseError("empty graph6 string")
    c = ord(text[0])
    if c != 126:
        if not 63 <= c <= 126:
            raise ParseError(f"invalid graph6 size character {text[0]!r}")
        return c - 63, 1
    if len(text) >= 2 and ord(text[1]) == 126:
        raise ParseError("graph6 sizes beyond 258047 are not supported")
    if len(text) < 4:
        raise ParseError("truncated graph6 size field")
    n = 0
    for ch in text[1:4]:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise ParseError(f"invalid graph6 size character {ch!r}")
        n = (n << 6) | (c - 63)
    return n, 4


def emit_graph6(g: Graph) -> str:
    n = g.n
    out = [_encode_count(n)]
    bits = 0
    nbits = 0
    for j in range(1, n):
        col = g.adjacency_mask(j)
        for i in range(j):
            bits = (bits << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(bits + 63))
                bits = nbits = 0
    if nbits:
        bits <<= 6 - nbits
        out.append(chr(bits + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    n, used = _decode_count(s)
    if n == 0:
        raise ParseError("graph6 with zero vertices is not supported")
    if n > MAX_VERTICES:
        raise ParseError(f"graph6 vertex count {n} exceeds the {MAX_VERTICES} cap")
    body = s[used:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ParseError(
            f"graph6 body length {len(body)} does not match n={n} (expected {need})"
        )
    bits = []
    for ch in body:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise ParseError(f"invalid graph6 data character {ch!r}")
        v = c - 63
        bits.extend(((v >> k) & 1) for k in (5, 4, 3, 2, 1, 0))
    npairs = n * (n - 1) // 2
    if any(bits[npairs:]):
        raise ParseError("nonzero padding bits in graph6 body")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def emit_edge_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})


def parse_edge_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ParseError('edge JSON must be {"n": int, "edges": [[u,v],...]}')
    # type() rather than isinstance(): JSON true and false are not vertices.
    n = obj["n"]
    if type(n) is not int:
        raise ParseError("edge JSON field 'n' must be an integer")
    if not isinstance(obj["edges"], list):
        raise ParseError("edge JSON field 'edges' must be a list")
    edges = []
    for item in obj["edges"]:
        if not isinstance(item, list) or len(item) != 2 or any(type(x) is not int for x in item):
            raise ParseError(f"malformed edge entry {item!r}")
        edges.append((item[0], item[1]))
    try:
        return Graph(n, edges)
    except Exception as exc:  # self-loop, duplicate, range: all non-simple input
        raise ParseError(str(exc)) from exc


def parse_graph(text: str) -> Graph:
    """Sniff a single-line graph: JSON object or graph6 string."""
    s = text.strip()
    if s.startswith("{"):
        return parse_edge_json(s)
    return parse_graph6(s)
