import json

import networkx as nx
import pytest

from dompack import Graph, ParseError, gen_named
from dompack.codec import (
    emit_graph6,
    parse_edge_json,
    parse_graph,
    parse_graph6,
)
from dompack.generators import GenSpec, derive_seed, gen_gnp


def test_k4_decodes_from_c_tilde():
    # Decoded by hand per the graph6 bit layout: 'C' = 4 vertices, '~' = 63 =
    # 111111, so all six upper-triangle bits are set.
    g = parse_graph6("C~")
    assert g.n == 4 and g.m == 6
    # independent decoder cross-check
    h = nx.from_graph6_bytes(b"C~")
    assert sorted(h.edges()) == g.edges()


def test_single_vertex_is_at_sign():
    assert emit_graph6(Graph(1)) == "@"
    assert parse_graph6("@").n == 1


def test_round_trip_on_random_corpus():
    # >= 10^4 deterministic random graphs round-trip bit-exactly.
    count = 0
    for i in range(10_500):
        n = 1 + i % 40
        g = gen_gnp(GenSpec("gnp", n, derive_seed(1000, i), {"edge_prob": 0.3}))
        s = emit_graph6(g)
        assert emit_graph6(parse_graph6(s)) == s
        count += 1
    assert count >= 10_000


def test_cross_check_against_networkx():
    # n = 59..64 spans the '{', '|', '}' and '~' size forms; 512 is the cap.
    sizes = [1 + i % 30 for i in range(300)] + [59, 60, 61, 62, 63, 64, 100, 512]
    for i, n in enumerate(sizes):
        g = gen_gnp(GenSpec("gnp", n, derive_seed(1001, i), {"edge_prob": 0.4}))
        s = emit_graph6(g)
        h = nx.from_graph6_bytes(s.encode())
        assert sorted(h.edges()) == g.edges()
        # and the reverse direction: networkx's encoding parses to the same graph
        s_nx = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert parse_graph6(s_nx).edges() == g.edges()


def test_large_n_header():
    g = Graph(100, [(0, 99)])
    s = emit_graph6(g)
    assert s.startswith("~")
    back = parse_graph6(s)
    assert back.n == 100 and back.edges() == [(0, 99)]


def test_optional_header_prefix():
    assert parse_graph6(">>graph6<<C~").m == 6


def test_malformed_graph6():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("C~~~")  # length mismatch
    with pytest.raises(ParseError):
        parse_graph6("C")  # missing body
    with pytest.raises(ParseError):
        parse_graph6("B\x1f")  # data character out of range
    with pytest.raises(ParseError):
        parse_graph6("A" + chr(63 + 16))  # nonzero padding bits for n=2


def test_edge_json_round_trip():
    g = gen_named("K3,3")
    back = parse_edge_json(json.dumps({"n": g.n, "edges": g.edges()}))
    assert back.edges() == g.edges() and back.n == g.n


def test_edge_json_rejects_non_simple():
    with pytest.raises(ParseError):
        parse_edge_json('{"n": 3, "edges": [[0, 0]]}')
    with pytest.raises(ParseError):
        parse_edge_json('{"n": 3, "edges": [[0, 1], [1, 0]]}')
    with pytest.raises(ParseError):
        parse_edge_json('{"n": 2, "edges": [[0, 5]]}')
    with pytest.raises(ParseError):
        parse_edge_json('{"edges": []}')
    with pytest.raises(ParseError):
        parse_edge_json("{not json")
    with pytest.raises(ParseError):
        parse_edge_json('{"n": true, "edges": []}')
    with pytest.raises(ParseError):
        parse_edge_json('{"n": 2, "edges": [[true, false]]}')
    with pytest.raises(ParseError):
        parse_edge_json('{"n": 2, "edges": 5}')


def test_parse_graph_sniffs_format():
    assert parse_graph("C~").m == 6
    assert parse_graph('{"n": 2, "edges": [[0, 1]]}').m == 1
    assert parse_graph('{ "n": 2, "edges": [[0, 1]]}').m == 1
    # graph6 writes n = 60 as '{', followed by a body character.
    path = Graph(60, [(i, i + 1) for i in range(59)])
    assert parse_graph(emit_graph6(path)).edges() == path.edges()
    for text in ("{}", "{"):
        with pytest.raises(ParseError, match="graph6 body length"):
            parse_graph(text)
