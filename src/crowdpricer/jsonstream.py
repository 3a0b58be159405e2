"""A JSON object read as a stream of fixed-size chunks.

The members of the top-level object are decoded one at a time with
`json.JSONDecoder.raw_decode`, and a member that is an array one item at a
time, so that a policy's `price` and `opt` matrices become numpy arrays row
by row instead of one Python object per entry.  Values, accepted texts and
error messages are those of `json.load` on the whole text.  Beyond the
decoded values, reading holds one chunk and the text of one array item or
of one member that is not an array.
"""

from __future__ import annotations

import codecs
import json

import numpy as np

from .errors import DataError

READ_CHUNK = 1 << 16  # bytes per read of a JSON document
_DECODE = json.JSONDecoder().raw_decode


def _numeric_row(value):
    """A list of numbers as a 1-D numpy array; any other value unchanged."""
    try:
        row = np.array(value) if isinstance(value, list) else None
    except ValueError:  # lists nested to unequal depths
        row = None
    return row if row is not None and row.ndim == 1 and row.dtype.kind in "iuf" else value


class JsonStream:
    """A JSON file read in `READ_CHUNK`-byte chunks, each also fed to
    `digest`.  `buf` holds the text from the value being decoded on; text
    before `pos` is decoded and is dropped at the next read.  Errors are
    placed in the file as `json.JSONDecodeError` places them in a whole
    text, with its messages."""

    def __init__(self, path: str, fh, digest) -> None:
        self.path, self.fh, self.digest = path, fh, digest
        self.utf8 = codecs.getincrementaldecoder("utf-8")()
        self.buf, self.pos, self.eof = "", 0, False
        # characters dropped from the front of buf, the newlines among them,
        # and the offset just past the last of those newlines
        self.dropped, self.lines, self.line_start = 0, 0, 0

    def fill(self) -> None:
        chunk = self.fh.read(READ_CHUNK)
        self.digest.update(chunk)
        self.eof = not chunk
        nl = self.buf.rfind("\n", 0, self.pos)
        if nl >= 0:
            self.lines += self.buf.count("\n", 0, self.pos)
            self.line_start = self.dropped + nl + 1
        self.dropped += self.pos
        self.buf = self.buf[self.pos:] + self.utf8.decode(chunk, final=self.eof)
        self.pos = 0

    def error(self, msg: str, pos: int) -> DataError:
        nl = self.buf.rfind("\n", 0, pos)
        line = self.lines + self.buf.count("\n", 0, pos) + 1
        column = pos - nl if nl >= 0 else self.dropped + pos - self.line_start + 1
        return DataError(f"{self.path}: not valid JSON: {msg}: line {line} "
                         f"column {column} (char {self.dropped + pos})")

    def peek(self) -> str:
        """Skip whitespace; the next character, or '' at the end of the text."""
        while True:
            self.pos = json.decoder.WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos:self.pos + 1]
            self.fill()

    def expect(self, char: str, msg: str) -> None:
        if self.peek() != char:
            raise self.error(msg, self.pos)

    def value(self):
        """Decode the next value.  A decode that fails before the end of the
        file, or that ends within two characters of the buffer's end (where
        '1.' or '1e+' may be the head of '1.5' or '1e+3'), is tried again
        with one more chunk."""
        self.peek()
        while True:
            try:
                value, end = _DECODE(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                if self.eof:
                    raise self.error(exc.msg, exc.pos) from None
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
                self.expect(",", "Expecting ',' delimiter")
                self.pos += 1
        self.pos += 1

    def member(self, doc: dict) -> None:
        """Decode one member of the top-level object into doc.  An array is
        decoded one item at a time: a list of numbers becomes a numpy row as
        soon as it is read, and rows of one length are stacked at the end."""
        self.expect('"', "Expecting property name enclosed in double quotes")
        key = self.value()
        self.expect(":", "Expecting ':' delimiter")
        self.pos += 1
        if self.peek() != "[":
            doc[key] = self.value()
            return
        rows = []
        self.items("]", lambda: rows.append(_numeric_row(self.value())))
        if rows and all(isinstance(r, np.ndarray) for r in rows) and len(
                {len(r) for r in rows}) == 1:
            rows = np.stack(rows)
        doc[key] = rows

    def document(self) -> dict:
        """The top-level object, which must be the whole text."""
        if self.peek() != "{":
            if self.peek() == "\ufeff" and self.dropped + self.pos == 0:
                raise self.error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
            self.value()  # raises if the text is not JSON at all
            raise DataError(f"{self.path}: expected a JSON object at the top level")
        doc = {}
        self.items("}", lambda: self.member(doc))
        if self.peek():
            raise self.error("Extra data", self.pos)
        return doc
