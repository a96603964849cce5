"""Round-trip and reference-vector tests for the graph6 codec."""

import random
import time

import pytest

from helpers import random_graph
from turanlab import (
    Graph6ParseError,
    SimpleGraph,
    complete,
    cycle,
    decode_graph6,
    encode_graph6,
    path,
    read_graph6_lines,
    write_graph6_lines,
)
from turanlab.graph6 import _encode_int


# reference tokens from the format's published examples
KNOWN = [
    (complete(3), "Bw"),
    (SimpleGraph(5, [(0, 2), (0, 4), (1, 3), (3, 4)]), "DQc"),
]


class TestEncode:
    def test_known_vectors(self):
        for g, token in KNOWN:
            assert encode_graph6(g) == token

    def test_empty_graph(self):
        assert encode_graph6(SimpleGraph(0)) == "?"
        assert decode_graph6("?").n == 0

    def test_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_graph(rng, rng.randint(0, 12))
            assert decode_graph6(encode_graph6(g)) == g

    def test_roundtrip_large_order(self):
        # orders above 62 switch to the long length prefix
        g = path(80)
        assert decode_graph6(encode_graph6(g)) == g

    def test_eight_byte_header(self):
        # the format's example: orders above 258047 take '~~' and six groups
        assert _encode_int(460175067).encode() == bytes(
            [126, 126, 63, 90, 90, 90, 90, 90]
        )
        assert _encode_int(68719476735) == "~~" + "~" * 6
        with pytest.raises(ValueError, match="too large"):
            _encode_int(68719476736)


class TestDecode:
    def test_rejects_bad_characters(self):
        with pytest.raises(Graph6ParseError):
            decode_graph6("B\x19")

    def test_rejects_truncated_body(self):
        with pytest.raises(Graph6ParseError):
            decode_graph6("D")

    def test_rejects_trailing_garbage_bits(self):
        token = encode_graph6(cycle(5))
        with pytest.raises(Graph6ParseError):
            decode_graph6(token + "www")

    def test_fault_offsets(self):
        cases = [
            ("", 0),  # empty
            ("~", 1),  # truncated header
            ("\x19", 0),  # bad header byte
            ("B\x19", 1),  # bad body byte
            ("DQ", 2),  # truncated body
            ("Bx", 1),  # nonzero padding
            ("Bw?", 2),  # trailing data
        ]
        for text, offset in cases:
            with pytest.raises(Graph6ParseError) as err:
                decode_graph6(text)
            assert err.value.offset == offset, text

    def test_huge_headers_rejected_before_allocation(self):
        # "~}~~" declares n = 258047 and "~~~~~~~~" n = 2^36 - 1; the body
        # length is checked before anything of that size is allocated
        for header in ("~}~~", "~~~~~~~~"):
            start = time.perf_counter()
            with pytest.raises(Graph6ParseError) as err:
                decode_graph6(header + "???")
            assert time.perf_counter() - start < 1.0
            assert err.value.offset == len(header) + 3


class TestLines:
    def test_write_then_read(self):
        graphs = [complete(3), cycle(4), path(2)]
        text = write_graph6_lines(graphs)
        assert text.endswith("\n")
        assert read_graph6_lines(text) == graphs

    def test_blank_lines_ignored(self):
        text = "\nBw\n\nCr\n"
        assert len(read_graph6_lines(text)) == 2
