"""graph6 serialization, and JSON edge lists as a second input format.

graph6 (McKay, https://users.cecs.anu.edu.au/~bdm/data/formats.txt) writes
N(n), then the pair-mask six bits to a character offset by 63, pair 0 first.
Pair (i, j), i < j, is bit j(j-1)/2 + i of the pair-mask: the upper triangle
in column-major order, the layout `all_graphs` enumerates; `_adjacency` turns
it into the masks that `Graph._from_adjacency` takes as they are.  The JSON
format, read but never written, is {"n": int, "edges": [[u, v], ...]}.
"""

from __future__ import annotations

import json
import string

from .errors import GraphError, ParseError
from .graph import MAX_VERTICES, Graph, _mask_bits

_HEADER = ">>graph6<<"


def _adjacency(mask: int, n: int) -> list[int]:
    """The adjacency masks of the graph whose pair-mask is `mask` on n vertices."""
    adj = [0] * n
    for j in range(1, n):
        column = mask >> j * (j - 1) // 2 & ((1 << j) - 1)
        adj[j] = column
        for i in _mask_bits(column):
            adj[i] |= 1 << j
    return adj


# Each 6-bit string, high bit first, to its graph6 character, and back.
_CHAR = {format(c, "06b"): chr(c + 63) for c in range(64)}
_BITS = {ch: bits for bits, ch in _CHAR.items()}


def _encode(bits: str) -> str:
    """`bits` as graph6 characters, six bits each, first bits first."""
    return "".join([_CHAR[bits[i:i + 6]] for i in range(0, len(bits), 6)])


def _decode(chars: str, field: str) -> str:
    """The bits of graph6 `field` characters, six each, first bits first."""
    try:
        return "".join([_BITS[ch] for ch in chars])
    except KeyError as exc:
        raise ParseError(f"invalid graph6 {field} character {exc.args[0]!r}") from None


def _encode_count(n: int) -> str:
    # 63 <= n <= 258047: '~' then 18 bits in three characters
    return _encode(format(n, "06b")) if n <= 62 else "~" + _encode(format(n, "018b"))


def _decode_count(text: str) -> tuple[int, int]:
    """Return (n, chars consumed)."""
    if not text:
        raise ParseError("empty graph6 string")
    if text[0] != "~":
        return int(_decode(text[0], "size"), 2), 1
    if text[1:2] == "~":
        raise ParseError("graph6 sizes beyond 258047 are not supported")
    if len(text) < 4:
        raise ParseError("truncated graph6 size field")
    return int(_decode(text[1:4], "size"), 2), 4


def emit_graph6(g: Graph) -> str:
    n = g.n
    mask = 0
    for j in range(n - 1, 0, -1):  # column j lands at bit j(j-1)/2
        mask = mask << j | g.adjacency_mask(j) & ((1 << j) - 1)
    length = (n * (n - 1) // 2 + 5) // 6
    # Reversed over the body's 6 * length bits, pair 0 is the first bit written.
    bits = format(mask, f"0{6 * length}b")[::-1] if length else ""
    return _encode_count(n) + _encode(bits)


def parse_graph6(text: str) -> Graph:
    s = text.strip(string.whitespace)
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    n, used = _decode_count(s)
    if n == 0:
        raise ParseError("graph6 with zero vertices is not supported")
    if n > MAX_VERTICES:
        raise ParseError(f"graph6 vertex count {n} exceeds the {MAX_VERTICES} cap")
    body = s[used:]
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(body) != need:
        raise ParseError(f"graph6 body length {len(body)} does not match n={n} (expected {need})")
    bits = _decode(body, "data")
    mask = int(bits[::-1], 2) if bits else 0
    if mask >> npairs:
        raise ParseError("nonzero padding bits in graph6 body")
    return Graph._from_adjacency(_adjacency(mask, n))


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
    except GraphError as exc:  # self-loop, duplicate, range: all non-simple input
        raise ParseError(str(exc)) from exc


def parse_graph(text: str) -> Graph:
    """Sniff a single-line graph: edge JSON when `{` is followed by a character
    outside graph6's 63..126, as a quote or a blank is, else graph6 (n = 60 is `{`)."""
    s = text.strip(string.whitespace)
    if s[:1] == "{" and len(s) > 1 and not "?" <= s[1] <= "~":
        return parse_edge_json(s)
    return parse_graph6(s)
