"""A JSON document read as a stream of fixed-size chunks.

The members of a top-level object are decoded one at a time with
`json.JSONDecoder.raw_decode`, and a member that is an array one item at a
time, so that a policy's `price` and `opt` matrices never become one Python
object per entry.  A matrix member is decoded into one buffer: each row's
bytes are appended to a `bytearray` that grows in place and the row is
dropped, and the matrix is a numpy view of that buffer (when its rows share
one dtype, as a written policy's do), so reading holds each matrix once,
with no per-row arrays and no stacked copy.  Values and
accepted texts are those of `json.load` on the whole text.  A text that is
not JSON raises a `ValueError` that places nothing; the caller reads the
text again, whole, so that `json.loads` reports the error.  Beyond the
decoded values, reading holds one chunk and the text of one array item or of
one member that is not an array.  `write_document` writes `json.dump(doc,
sort_keys=True, indent=2)`'s layout, but each member read as a 2-D array one
row per line.
"""

from __future__ import annotations

import codecs
import json

import numpy as np

READ_CHUNK = 1 << 16  # bytes per read of a JSON document
_DECODE = json.JSONDecoder().raw_decode


def _numeric_row(value):
    """A list of numbers as a 1-D numpy array; any other value unchanged.  A
    bool is not a number, so a list holding one is never promoted."""
    if not isinstance(value, list) or bool in map(type, value):
        return value
    try:
        row = np.array(value)
    except ValueError:  # lists nested to unequal depths
        return value
    return row if row.ndim == 1 and row.dtype.kind in "iuf" else value


def _fits(row, width: int | None) -> bool:
    """Whether row, as `_numeric_row` returns it, is a numeric row that can
    follow rows of length width in a matrix (any numeric row when width is
    None, before the first row)."""
    return isinstance(row, np.ndarray) and width in (None, len(row))


def _is_matrix(rows) -> bool:
    """Whether rows is a non-empty list of numeric rows of one length: the
    matrix rule, which the writer asks of a whole member and `_Rows.add`
    asks of each row as it is read, both through `_fits`."""
    return isinstance(rows, list) and bool(rows) and all(
        _fits(_numeric_row(r), len(rows[0]) if i else None) for i, r in enumerate(rows))


def write_document(doc: dict, fh) -> None:
    """Write doc (string keys) to the text file fh in the layout above, with a
    final newline, member by member: no member's whole text is ever built."""
    for i, key in enumerate(sorted(doc)):
        fh.write(f'{"," if i else "{"}\n  {json.dumps(key)}: ')
        if _is_matrix(value := doc[key]):
            fh.writelines(f'{"," if j else "["}\n    {json.dumps(row)}' for j, row in enumerate(value))
            fh.write("\n  ]")
        else:  # the encoder's chunks indented one level, joined 4096 at a time
            chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(value)
            while batch := [chunk for _, chunk in zip(range(4096), chunks)]:
                fh.write("".join(batch).replace("\n", "\n  "))
    fh.write("\n}\n" if doc else "{}\n")


class _Rows:
    """The items of an array member, added one at a time.  While they are
    rows of a matrix (see `_fits`), each row's bytes are
    appended to `data` and the row is dropped; `runs` holds the first row and
    the dtype of each run of rows of one dtype.  The first item that is not
    such a row turns the rows so far into one view of `data` each, and it
    and every later item are kept in `items` as `_numeric_row` returns them."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.runs: list[tuple[int, np.dtype]] = []
        self.count = 0
        self.width: int | None = None
        self.items: list | None = None

    def add(self, value) -> None:
        row = _numeric_row(value)
        if self.items is None:
            if _fits(row, self.width):
                if not self.runs or self.runs[-1][1] != row.dtype:
                    self.runs.append((self.count, row.dtype))
                self.data += row.data
                self.count, self.width = self.count + 1, len(row)
                return
            self.items = [r for block in self.blocks() for r in block]
        self.items.append(row)

    def blocks(self) -> list[np.ndarray]:
        """Each run's rows as a 2-D view of `data`."""
        blocks, offset = [], 0
        for (start, dtype), (end, _) in zip(self.runs, [*self.runs[1:], (self.count, None)]):
            blocks.append(np.frombuffer(self.data, dtype, (end - start) * self.width, offset)
                          .reshape(end - start, self.width))
            offset += blocks[-1].nbytes
        return blocks

    def value(self):
        """What `np.stack` makes of the rows if they form a matrix, in dtype,
        shape and bits; otherwise the items.  Rows of one dtype, as a written
        policy's always are, are the one view of `data`."""
        if self.items is not None:
            return self.items
        if not self.count:
            return []
        blocks = self.blocks()
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


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

    def items(self, close: str, read_item) -> None:
        """Call read_item for each item of the array or object at pos."""
        self.pos += 1
        if self.peek() != close:
            while True:
                read_item()
                if self.peek() == close:
                    break
                self.expect(",")
                self.pos += 1
        self.pos += 1

    def member(self, doc: dict) -> None:
        """Decode one member of the top-level object into doc.  An array is
        decoded one item at a time into `_Rows`: rows of numbers of one
        length become a 2-D array, any other array a list."""
        self.expect('"')
        key = self.value()
        self.expect(":")
        self.pos += 1
        if self.peek() != "[":
            doc[key] = self.value()
            return
        rows = _Rows()
        self.items("]", lambda: rows.add(self.value()))
        doc[key] = rows.value()

    def document(self):
        """The top-level value, which must be the whole text; an object is
        read member by member."""
        if self.peek() == "{":
            doc = {}
            self.items("}", lambda: self.member(doc))
        else:
            doc = self.value()
        if self.peek():
            raise ValueError("extra data")
        return doc
