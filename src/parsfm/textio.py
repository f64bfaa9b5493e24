"""Line-record text files, read one tag group at a time.

A record is one line: a tag, then fields separated by whitespace. `scan`
reads a file once, in chunks of whole lines, groups each chunk's records
by tag, in any order, and converts each group with one np.loadtxt call into
a structured array (`layout`), so every record is checked field by field in
C: its field count, its integer fields as int64 and its float fields as
float64. A group that loadtxt rejects is bisected down to its first bad
record, so a line is looked up only when a record is bad. From each record
whose first token it splits off, grouping takes the run of lines that start
with the same tag and a space, checking each with str.startswith.

loadtxt splits on the same whitespace as str.split and parses floats as
float() does, but it is stricter than Python's int() and float() in one
way: it rejects digit underscores ('1_0'), non-ASCII digits and integers
outside int64, which the readers therefore report as non-numeric fields.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from itertools import compress, count, islice, repeat
from operator import not_

import numpy as np

# text read per chunk. Its lines and parsed rows are freed once what is kept
# of them is taken, and blocks of a few hundred KB keep glibc's mmap
# threshold, which rises to the largest block freed, from moving later
# multi-MB buffers onto a heap that does not shrink when they are freed
CHUNK_BYTES = 1 << 19


def layout(tag, ints, floats=0, tail=0):
    """Structured dtype of a record: its tag, `ints` int64 fields, `floats`
    float64 fields, then `tail` int64 fields (the fields 'i', 'f', 'j'). The
    tag field takes the first token, which grouping has already checked."""
    fields = [("tag", f"S{len(tag)}")]
    for name, kind, n in (("i", "<i8", ints), ("f", "<f8", floats), ("j", "<i8", tail)):
        if n:
            fields.append((name, kind, (n,)))
    return np.dtype(fields)


def field_count(dtype):
    """Fields of a record of the layout, after its tag."""
    return sum(dtype[name].shape[0] for name in dtype.names[1:])


def parse(lines, dtype):
    """Structured rows of the records `lines`, all of one layout; ValueError
    if any record has another field count or a field loadtxt rejects."""
    with warnings.catch_warnings():
        # older numpy parses an int field '1.5' as 1 with a DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None


def parse_group(lines, dtype):
    """(rows, bad): the rows of `lines` before the first record that `parse`
    rejects, and that record's index in lines (None if there is none)."""
    try:
        return parse(lines, dtype), None
    except ValueError:
        pass
    lo, hi = 0, len(lines)  # lines[:lo] parse; lines[lo:hi] holds a bad one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(lines[lo:mid], dtype)
            lo = mid
        except ValueError:
            hi = mid
    rows = parse(lines[:lo], dtype) if lo else np.empty(0, dtype)
    return rows, lo


def parses(lines, dtype) -> bool:
    try:
        parse(lines, dtype)
        return True
    except ValueError:
        return False


class Records:
    """The rows of one tag read so far, in file order, and the runs of
    consecutive lines they came in, as (first row, its line)."""

    def __init__(self):
        self.pieces = []
        self.count = 0
        self.run_row = []
        self.run_line = []

    def add(self, rows, group, bad):
        """Append what is kept of a chunk's rows of the group, a tuple of
        arrays whose first has a row per record; the line of its bad record
        at index `bad`, or None."""
        n = len(rows[0])
        for row, line in group.runs:
            if row > n:
                break
            self.run_row.append(self.count + row)
            self.run_line.append(line)
        self.pieces.append(rows)
        self.count += n
        return None if bad is None else self.line(self.count)

    def line(self, row):
        """Line number of a row."""
        k = bisect_right(self.run_row, row) - 1
        return self.run_line[k] + row - self.run_row[k]

    def join(self):
        """All the rows, as one tuple of arrays, or None; the pieces are
        dropped."""
        pieces, self.pieces = self.pieces, []
        if len(pieces) < 2:
            return pieces[0] if pieces else None
        return tuple(map(np.concatenate, zip(*pieces)))


class _Group:
    """One chunk's lines of one tag and the runs of consecutive lines they
    came in, as (first index into lines, its line number)."""

    def __init__(self):
        self.lines = []
        self.runs = []

    def add(self, lines, first_line):
        self.runs.append((len(self.lines), first_line))
        self.lines.extend(lines)


def read_records(path, parsers, why, keep, comments=False):
    """Parse the file's records by tag (see `scan`): ({tag: Records}, {tag:
    all that is kept of its rows, or None}, errors). keep(tag, rows) is the
    tuple of arrays kept of a chunk's rows. errors holds the (line, message)
    of the first record a parser rejects, as `why(tag, text)` explains it,
    and of the first unknown tag; reading stops after the chunk holding
    either."""
    records = {tag: Records() for tag in parsers}
    errors = []
    for parsed, unknown in scan(path, parsers, comments):
        for tag, (rows, bad, group) in parsed.items():
            line = records[tag].add(keep(tag, rows), group, bad)
            if line is not None:
                errors.append((line, why(tag, group.lines[bad])))
        if unknown is not None:
            errors.append((unknown[0], f"unknown record type {unknown[1]!r}"))
        if errors:  # every later record is on a later line
            break
    return records, {tag: rec.join() for tag, rec in records.items()}, errors


def scan(path, parsers, comments=False):
    """Read the file a chunk of whole lines at a time, and yield per chunk
    ({tag: (rows, bad, group)}, unknown): for each tag of `parsers` ({tag:
    parser(lines) -> (rows, bad)}, as `parse_group`) its group of the
    chunk's records and the parser's result, and the (line, tag) of the
    first record with another tag, or None. Blank lines, and with
    `comments` lines whose first token starts with '#', are skipped. A
    chunk with an unknown tag is the last, read up to that record."""
    first_line = 1
    with open(path) as fh:
        while True:
            chunk = fh.readlines(CHUNK_BYTES)
            if not chunk:
                return
            groups, unknown = _group(chunk, first_line, parsers, comments)
            parsed = {tag: (*parsers[tag](g.lines), g) for tag, g in groups.items()}
            first_line += len(chunk)
            del chunk, groups
            yield parsed, unknown
            if unknown is not None:
                return


def _group(chunk, first_line, tags, comments):
    groups = {}
    i, n = 0, len(chunk)
    while i < n:
        line = chunk[i]
        tok = line.split(None, 1)
        if not tok or (comments and tok[0].startswith("#")):
            i += 1
            continue
        tag = tok[0]
        if tag not in tags:
            return groups, (first_line + i, tag)
        j = i + 1
        prefix = tag + " "
        if line.startswith(prefix):
            j = _run_end(chunk, j, prefix)
        groups.setdefault(tag, _Group()).add(chunk[i:j], first_line + i)
        i = j
    return groups, None


def _run_end(lines, i, prefix):
    """End of the run of lines from i on that start with prefix."""
    starts = map(str.startswith, islice(lines, i, None), repeat(prefix))
    return next(compress(count(i), map(not_, starts)), len(lines))
