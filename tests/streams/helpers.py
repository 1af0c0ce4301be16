"""Stream columns for tests: built from rows, digested, and weighed in
collector-tracked objects."""

import gc
import hashlib

from repro.rdf.terms import TimedColumns


def timed(rows):
    """``(s, p, o, ts)`` rows, in order, as one stream's four columns."""
    columns = [list(column) for column in zip(*rows)]
    return TimedColumns(*columns) if columns else TimedColumns()


def content_digest(streams):
    """sha256 over every stream's rows, streams in name order, one line
    ``"stream s p o ts"`` a row; and the number of rows."""
    digest, rows = hashlib.sha256(), 0
    for name in sorted(streams):
        for (s, p, o), ts in streams[name]:
            digest.update(("%s %s %s %s %d\n" % (name, s, p, o, ts)).encode())
            rows += 1
    return digest.hexdigest(), rows


def tracked_objects():
    """Objects the collector tracks, after a full collection."""
    gc.collect()
    return len(gc.get_objects())
