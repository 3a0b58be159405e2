"""A JSON document read as a stream of fixed-size chunks.

The members of a top-level object are decoded one at a time with
`json.JSONDecoder.raw_decode`, and a member that is an array one item at a
time, so that a policy's `price` and `opt` matrices become numpy arrays row
by row instead of one Python object per entry.  Values and accepted texts
are those of `json.load` on the whole text.  A text that is not JSON raises
a `ValueError` that places nothing; the caller reads the text again, whole,
so that `json.loads` reports the error.  Beyond the decoded values, reading
holds one chunk and the text of one array item or of one member that is
not an array.  `write_document` writes `json.dump(doc, sort_keys=True,
indent=2)`'s layout, but each member read as a 2-D array one row per line.
"""

from __future__ import annotations

import codecs
import json

import numpy as np

READ_CHUNK = 1 << 16  # bytes per read of a JSON document
_DECODE = json.JSONDecoder().raw_decode


def _numeric_row(value):
    """A list of numbers as a 1-D numpy array; any other value unchanged."""
    try:
        row = np.array(value) if isinstance(value, list) else None
    except ValueError:  # lists nested to unequal depths
        row = None
    return row if row is not None and row.ndim == 1 and row.dtype.kind in "iuf" else value


def _is_matrix(rows) -> bool:
    """Whether rows is a non-empty list of numeric rows (see `_numeric_row`) of one length."""
    return isinstance(rows, list) and bool(rows) and all(
        isinstance(row := _numeric_row(r), np.ndarray) and len(row) == len(rows[0]) for r in rows)


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
        decoded one item at a time: a list of numbers becomes a numpy row as
        soon as it is read, and rows of one length are stacked at the end."""
        self.expect('"')
        key = self.value()
        self.expect(":")
        self.pos += 1
        if self.peek() != "[":
            doc[key] = self.value()
            return
        rows = []
        self.items("]", lambda: rows.append(_numeric_row(self.value())))
        doc[key] = np.stack(rows) if _is_matrix(rows) else rows

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
