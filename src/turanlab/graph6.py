"""graph6 text encoding of simple graphs, and the JSON artifact layout.

One graph per token: a vertex-count header followed by the upper triangle of
the adjacency matrix in column order (bit (i, j) for j = 1..n-1, i = 0..j-1),
packed into 6-bit groups, each group printed as the byte value + 63.  Orders
up to 62 use a single header byte; larger orders use the standard '~' and
'~~' long headers.  The decoder is strict: bad characters, truncation,
trailing data, and nonzero padding bits are all parse errors that report the
byte offset of the problem.

JSON artifacts name their graphs by graph6 token and are written by
``json_doc`` alone, through the one ``to_json`` every report inherits from
``Artifact``, so equal documents re-emit byte for byte.
"""

from __future__ import annotations

import json

from .graphs import SimpleGraph


class Graph6ParseError(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


_MAX_SHORT = 62
_MAX_LONG3 = 258047
_MAX_LONG6 = 68719476735


def _encode_int(n: int) -> str:
    if n <= _MAX_SHORT:
        return chr(63 + n)
    if n <= _MAX_LONG3:
        groups = [(n >> 12) & 63, (n >> 6) & 63, n & 63]
        return "~" + "".join(chr(63 + g) for g in groups)
    if n <= _MAX_LONG6:
        groups = [(n >> (6 * k)) & 63 for k in range(5, -1, -1)]
        return "~~" + "".join(chr(63 + g) for g in groups)
    raise ValueError(f"graph too large for graph6: n={n}")


def encode_graph6(g: SimpleGraph) -> str:
    out = [_encode_int(g.n)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(63 + acc))
    return "".join(out)


def _group_at(s: str, pos: int) -> int:
    if pos >= len(s):
        raise Graph6ParseError("truncated graph6 string", len(s))
    code = ord(s[pos])
    if not 63 <= code <= 126:
        raise Graph6ParseError(f"invalid graph6 byte {code}", pos)
    return code - 63


def decode_graph6(s: str) -> SimpleGraph:
    if not s:
        raise Graph6ParseError("empty graph6 string", 0)
    pos = 0
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            pos = 2
            width = 6
        else:
            pos = 1
            width = 3
        n = 0
        for _ in range(width):
            n = (n << 6) | _group_at(s, pos)
            pos += 1
    else:
        n = _group_at(s, 0)
        pos = 1

    end = pos + (n * (n - 1) // 2 + 5) // 6
    if end > len(s):
        # a header can declare billions of vertices: reject a short body
        # before allocating anything of the declared size
        raise Graph6ParseError("truncated graph6 string", len(s))
    rows = [0] * n
    i, j = 0, 1  # the next bit is the pair (i, j)
    for p in range(pos, end):
        group = _group_at(s, p)
        for b in range(5, -1, -1):
            bit = (group >> b) & 1
            if j < n:
                if bit:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                i += 1
                if i == j:
                    i, j = 0, j + 1
            elif bit:
                raise Graph6ParseError("nonzero padding bits", p)
    if end != len(s):
        raise Graph6ParseError("trailing data after graph", end)
    return SimpleGraph._from_rows(n, rows)


def json_doc(data: dict) -> str:
    """The one JSON layout of every artifact: sorted keys, two-space indent,
    trailing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


class Artifact:
    """A report written as a JSON artifact: the subclass gives
    ``to_json_dict``, and ``to_json`` is its ``json_doc``."""

    def to_json(self) -> str:
        return json_doc(self.to_json_dict())


def write_graph6_lines(graphs) -> str:
    """One graph6 token per line, with a trailing newline."""
    return "".join(encode_graph6(g) + "\n" for g in graphs)


def read_graph6_lines(text: str) -> list[SimpleGraph]:
    """Parse one graph6 token per line; blank lines are ignored."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            out.append(decode_graph6(line))
    return out
