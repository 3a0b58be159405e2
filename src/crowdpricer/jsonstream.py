"""A JSON document read as a stream of fixed-size chunks.

The members of a top-level object are decoded one at a time with
`json.JSONDecoder.raw_decode`, and a member that is an array one item at a
time, so that a policy's `price` and `opt` matrices never become one Python
object per entry.  `numeric_matrix` makes an array whose items are numeric
rows of one length a 2-D numpy array, appending each row's bytes to one
`bytearray` that grows in place, so reading holds each matrix once, with no
per-row arrays and no stacked copy; any other array is a list.  Values and
accepted texts are those of `json.load` on the whole text.  A text that is
not JSON raises a `ValueError` that places nothing; the caller reads the
text again, whole, so that `json.loads` reports the error.  Beyond the
decoded values, reading holds one chunk and the text of one array item or of
one member that is not an array.  `write_document` writes `json.dump(doc,
sort_keys=True, indent=2)`'s layout, but each top-level member that is a
non-empty list of lists one row per line, each row as `json.dumps(row,
sort_keys=True)` writes it; the layout is chosen by that shape alone.
"""

from __future__ import annotations

import codecs
import json

import numpy as np

READ_CHUNK = 1 << 16  # bytes per read of a JSON document
_DECODE = json.JSONDecoder().raw_decode


def _numeric_row(value):
    """A list of numbers as a 1-D numpy array; any other value unchanged, but
    a numpy array is read as its `tolist()`.  A bool is not a number, so a
    list holding one is never promoted."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, list) or bool in map(type, value):
        return value
    try:
        row = np.array(value)
    except ValueError:  # lists nested to unequal depths
        return value
    return row if row.ndim == 1 and row.dtype.kind in "iuf" else value


def numeric_matrix(items):
    """What `np.stack` makes of the items, in dtype, shape and bits, if each
    is a numeric row (`_numeric_row`) and all have one length: the one rule
    of a matrix of numbers.  Otherwise the list of what `_numeric_row` makes
    of each item (empty for no items).  Every item is consumed.  Each row's
    bytes are appended to one `bytearray` and the row is dropped; rows of one
    dtype, as a written policy's always are, come back as one view of it."""
    data, runs, width, rest = bytearray(), [], None, None  # runs: [dtype, rows]
    items = iter(items)
    for item in items:
        row = _numeric_row(item)
        if not isinstance(row, np.ndarray) or width not in (None, len(row)):
            rest = [row, *map(_numeric_row, items)]
            break
        if not runs or runs[-1][0] != row.dtype:
            runs.append([row.dtype, 0])
        runs[-1][1] += 1
        data += row.data
        width = len(row)
    blocks, offset = [], 0  # each run as a 2-D view of data
    for dtype, n in runs:
        blocks.append(np.frombuffer(data, dtype, n * width, offset).reshape(n, width))
        offset += blocks[-1].nbytes
    if rest is not None or not blocks:
        return [row for block in blocks for row in block] + (rest or [])
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def write_document(doc: dict, fh) -> None:
    """Write doc (string keys) to the text file fh in the layout above, with a
    final newline, member by member: no member's whole text is ever built."""
    for i, key in enumerate(sorted(doc)):
        fh.write(f'{"," if i else "{"}\n  {json.dumps(key)}: ')
        value = doc[key]
        if isinstance(value, list) and value and all(isinstance(row, list) for row in value):
            fh.writelines(f'{"," if j else "["}\n    {json.dumps(row, sort_keys=True)}'
                          for j, row in enumerate(value))
            fh.write("\n  ]")
        else:  # the encoder's chunks indented one level, joined 4096 at a time
            chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(value)
            while batch := [chunk for _, chunk in zip(range(4096), chunks)]:
                fh.write("".join(batch).replace("\n", "\n  "))
    fh.write("\n}\n" if doc else "{}\n")


class JsonStream:
    """A JSON file read in `READ_CHUNK`-byte chunks, each also fed to
    `digest`.  `buf` holds the text from the value being decoded on; text
    before `pos` is decoded and is dropped at the next read."""

    def __init__(self, fh, digest) -> None:
        self.fh, self.digest = fh, digest
        self.utf8 = codecs.getincrementaldecoder("utf-8")()
        self.buf, self.pos, self.eof = "", 0, False

    def fill(self) -> None:
        chunk = self.fh.read(READ_CHUNK)
        self.digest.update(chunk)
        self.eof = not chunk
        self.buf = self.buf[self.pos:] + self.utf8.decode(chunk, final=self.eof)
        self.pos = 0

    def peek(self) -> str:
        """Skip whitespace; the next character, or '' at the end of the text."""
        while True:
            self.pos = json.decoder.WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos:self.pos + 1]
            self.fill()

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise ValueError(f"expected {char!r}")

    def value(self):
        """Decode the next value.  A decode that fails before the end of the
        file, or that ends within two characters of the buffer's end (where
        '1.' or '1e+' may be the head of '1.5' or '1e+3'), is tried again
        with one more chunk."""
        self.peek()
        while True:
            try:
                value, end = _DECODE(self.buf, self.pos)
            except json.JSONDecodeError:
                if self.eof:
                    raise
            else:
                if end + 2 < len(self.buf) or self.eof:
                    self.pos = end
                    return value
            self.fill()

    def items(self, close: str):
        """Yield once for each item of the array or object at pos, with pos
        at the item, which the caller decodes before the next."""
        self.pos += 1
        if self.peek() != close:
            while True:
                yield
                if self.peek() == close:
                    break
                self.expect(",")
                self.pos += 1
        self.pos += 1

    def member(self, doc: dict) -> None:
        """Decode one member of the top-level object into doc.  An array is
        decoded one item at a time by `numeric_matrix`."""
        self.expect('"')
        key = self.value()
        self.expect(":")
        self.pos += 1
        doc[key] = (numeric_matrix(self.value() for _ in self.items("]"))
                    if self.peek() == "[" else self.value())

    def document(self):
        """The top-level value, which must be the whole text; an object is
        read member by member."""
        if self.peek() == "{":
            doc = {}
            for _ in self.items("}"):
                self.member(doc)
        else:
            doc = self.value()
        if self.peek():
            raise ValueError("extra data")
        return doc
