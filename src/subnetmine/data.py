"""Network-instance database model and the package's file I/O.

A database holds m network instances over one shared set of n nodes.  The
instances differ only in which nodes are null, their local node values,
their edges and their integer global state, so the database is a handful
of read-only columns: the n x m state matrix V (0 at null nodes), its valid
mask, the m global states, and every instance edge in one sorted array.
The union of instance edges, weighted by the fraction of instances carrying
each edge, forms the generalized network used downstream as the topology
regularizer.  The per-edge counts of the whole database are kept, so the
network of a training set is the full counts minus the edge counts of the
folds it leaves out, which ``group_counts`` counts in one pass.

Dataset directory format (UTF-8, tab-separated, header on the first
non-blank line, lines ending in LF, CRLF or CR, blank lines skipped):

    nodes.tsv      node_id                         (row order fixes ordinals)
    instances.tsv  instance_id  global_state       (a 64-bit integer)
    values.tsv     instance_id  node_id  value     (missing row = null node)
    edges.tsv      instance_id  node_u   node_v

No other module opens a file: ``TsvFile`` reads every TSV under these rules
(the model file of ``solver.load_model`` too), and ``write_tsv`` and
``write_json`` write every output.

``TsvFile`` reads a file in blocks of about ``_BLOCK_BYTES`` of whole lines
and converts each block's rows before it reads the next, so the reader
holds the loaded columns and one block, never the whole file; a bad row
is read again from the file's start for its error.  The id columns of
values.tsv and edges.tsv are matched to ordinals on their UTF-8 bytes,
which is exactly text equality (see ``Ids``), so an edge field is never
held as a Python string, and a run of equal ids is looked up once.
"""

from __future__ import annotations

import json
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, islice, pairwise, repeat
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import ParseError, SubnetmineError


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class NetworkDatabase:
    """m network instances over n shared nodes, held as read-only columns.

    ``node_ids`` and ``instance_ids`` fix the node and instance ordinals.
    ``labels`` holds the m global states (int), ``valid`` the n x m mask
    of non-null nodes, and ``values`` the n x m state matrix V: column i
    holds the local states of instance i and is exactly 0.0 wherever
    ``valid`` is False, whatever was passed there.

    The instance edges are stored once: ``edges`` is an R x 2 intp array of
    ordinal pairs (p, q), p < q, both endpoints valid in their instance,
    sorted by (instance, p, q) with no repeats, and the rows of instance i
    are ``offsets[i]:offsets[i + 1]``.  ``instance_edges[i]`` is that block
    as a read-only k_i x 2 view, ``network()`` the generalized network of
    every instance, and ``group_counts(groups)`` the edge counts of each
    group of a partition of the instances.

    The labels must hold two or more distinct global states.
    """

    node_ids: tuple[str, ...]
    instance_ids: tuple[str, ...]
    labels: np.ndarray
    valid: np.ndarray
    values: np.ndarray
    edges: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        n, m = len(self.node_ids), len(self.instance_ids)
        columns = {
            "labels": (int, (m,)),
            "valid": (bool, (n, m)),
            "values": (np.float64, (n, m)),
            "edges": (np.intp, (len(self.edges), 2)),
            "offsets": (np.intp, (m + 1,)),
        }
        for name, (dtype, shape) in columns.items():
            column = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            if column.shape != shape:
                raise ValueError(f"{name} has shape {column.shape}, expected {shape}")
            object.__setattr__(self, name, column)
        if np.unique(self.labels).size < 2:
            raise SubnetmineError("database must contain at least two distinct global states")
        object.__setattr__(self, "values", np.where(self.valid, self.values, 0.0))
        for name in columns:
            _freeze(getattr(self, name))

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def m(self) -> int:
        return len(self.instance_ids)

    @cached_property
    def instance_edges(self) -> tuple[np.ndarray, ...]:
        """Kept only because ``perfbench/`` calls it, until ROADMAP items 1a
        and 3; the library slices ``edges`` by ``offsets``."""
        return tuple(self.edges[a:b] for a, b in pairwise(self.offsets.tolist()))

    @cached_property
    def _union(self) -> tuple[np.ndarray, sparse.csr_array, np.ndarray]:
        """The distinct instance edges, E x 2 and sorted by (p, q), the
        sparse m x E matrix that is True where instance i carries edge j,
        and the number of instances that carry each edge.  Built on first
        use and kept: the database and its arrays are immutable."""
        n = self.n
        # p * n + q sorts like (p, q) because q < n
        keys, edge_of = np.unique(self.edges[:, 0] * n + self.edges[:, 1], return_inverse=True)
        presence = sparse.csr_array(
            (np.ones(edge_of.size, dtype=bool), edge_of, self.offsets),
            shape=(self.m, keys.size),
        )
        counts = np.bincount(edge_of, minlength=keys.size)
        return _freeze(np.column_stack(np.divmod(keys, n))), presence, _freeze(counts)

    def network(self) -> GeneralizedNetwork:
        """The generalized network of every instance: the distinct edges,
        each weighted by the share of instances that carry it.  It shares
        its edge pairs with the database."""
        pairs, _, counts = self._union
        return GeneralizedNetwork(self.n, pairs, counts / self.m)

    def group_counts(self, groups) -> tuple[np.ndarray, np.ndarray, sparse.csr_array]:
        """Edge counts of a partition of the instances, instance i in group
        ``groups[i]`` of 0 .. G - 1: the distinct edges, E x 2 and sorted,
        the number of instances that carry each, and the G x E sparse table
        whose row g counts the instances of group g that carry each edge.
        The table comes from one product with the presence rows and holds
        at most min(G E, R) entries, R the number of edge rows."""
        pairs, presence, counts = self._union
        groups = np.asarray(groups, dtype=np.intp)
        members = sparse.csr_array(
            (np.ones(self.m, dtype=np.intp), (groups, np.arange(self.m))),
            shape=(int(groups.max()) + 1, self.m),
        )
        return pairs, counts, members @ presence


@dataclass(frozen=True, eq=False)
class GeneralizedNetwork:
    """Union graph over a set of instances: ``edges`` holds its (p, q) rows,
    E x 2 intp, p < q, sorted; ``weights`` their presence fractions, float64."""

    n: int
    edges: np.ndarray
    weights: np.ndarray

    @classmethod
    def counted(cls, n: int, pairs: np.ndarray, counts: np.ndarray, size: int):
        """The ``pairs`` whose instance count is positive, each weighted by
        its count over the ``size`` instances counted."""
        kept = np.flatnonzero(counts)
        return cls(n, pairs[kept], counts[kept] / size)


@dataclass(frozen=True, eq=False)
class StateMatrix:
    """n x m matrix whose column i holds the local states of instance i.

    Null nodes contribute exactly 0 to their column.  ``gram`` is V'V if
    the caller has it."""

    matrix: np.ndarray
    gram: np.ndarray | None = None

    def __post_init__(self):
        _freeze(self.matrix)

    def inner_products(self) -> np.ndarray:
        """V'V: ``gram``, else one product, exactly symmetric (BLAS syrk)."""
        return self.matrix.T @ self.matrix if self.gram is None else self.gram

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def m_cols(self) -> int:
        return self.matrix.shape[1]


# ---------------------------------------------------------------------------
# dataset loading

_BLOCK_BYTES = 1 << 20
_TAB, _LF = ord("\t"), ord("\n")
# after a block's last LF, so that a word can be read at any byte of a line
_PAD = bytes(8)
# _KEEP[k] keeps the low k bytes of a little-endian 64-bit word
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_MULTIPLIER, _SHIFT = np.uint64(0x9E3779B97F4A7C15), np.uint64(32)


def _blocks(path: Path):
    """Yield the file in blocks read about ``_BLOCK_BYTES`` at a time: an LF,
    then whole lines, each ending in one LF, then ``_PAD``."""
    with open(path, "rb") as fh:
        data = b""
        while True:
            # a line longer than a block doubles the next read
            if chunk := fh.read(max(_BLOCK_BYTES, len(data))):
                data += chunk
                # a CR that ends a read may be the first half of a CRLF
                end = len(data) - data.endswith(b"\r")
                cut = max(data.rfind(b"\n", 0, end), data.rfind(b"\r", 0, end)) + 1
            elif not (cut := len(data)):
                return
            if cut:
                lines = data[:cut]
                if b"\r" in lines:  # CR and CRLF end a line as LF does
                    lines = lines.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                last = b"" if lines.endswith(b"\n") else b"\n"
                yield b"".join((b"\n", lines, last, _PAD))
                data = data[cut:]


def _words(block: bytes, begins: np.ndarray, ends: np.ndarray, count: int) -> list[np.ndarray]:
    """Word k < ``count`` of each field of a block: its bytes 8k to 8k + 7 as
    a little-endian integer, the bytes past the field's end taken as 0."""
    word_at = np.ndarray((len(block) - 7,), dtype="<u8", buffer=block, strides=(1,))
    sizes = ends - begins
    return [
        word_at[begins + np.minimum(sizes, k)] & _KEEP[np.clip(sizes - k, 0, 8)]
        for k in range(0, 8 * count, 8)
    ]


def _texts(block: bytes, begins: np.ndarray, ends: np.ndarray) -> list[str]:
    """The text of each field of a block, from byte ``begins[k]`` up to ``ends[k]``."""
    sizes = ends - begins + 1  # each field with the tab or LF after it
    stops = np.cumsum(sizes)
    chunk = np.frombuffer(block, dtype=np.uint8)[
        np.repeat(begins - stops + sizes, sizes) + np.arange(sizes.sum())
    ]
    chunk[stops - 1] = _LF
    return chunk.tobytes().decode("utf-8").split("\n")[:-1]


class TsvFile:
    """The data rows of a tab-separated file, read in blocks of whole lines
    and split with numpy.

    ``header`` lists the expected field names, or is a function of the header
    line's field count (0 if none) that returns them; ``self.header`` is the
    list.  The header is read on construction and the data rows by
    ``columns``: the non-blank lines after the header, up to the first line
    with a wrong field count or bytes that are not UTF-8, which ends the
    reading.  Nothing of a block is kept once its rows are converted: the
    line and fields of a bad row are read again from the file's start for
    its error.  ``raise_first`` raises for the line that ended the reading
    only if no row before it breaks a contract, so the first bad line wins.
    """

    def __init__(self, path: Path, header):
        if not path.is_file():
            raise SubnetmineError(f"required file not found: {path}")
        self.path, self.fault = path, None
        self._head, got = -1, []
        with closing(_blocks(path)) as blocks:
            line = 0
            for block in blocks:
                if (text := block.lstrip(b"\n")) != _PAD:
                    # the first non-blank line is the header
                    self._head = line + len(block) - len(text) - 1
                    try:
                        got = text[: text.index(b"\n")].decode("utf-8").split("\t")
                    except UnicodeDecodeError as exc:
                        message = f"not valid UTF-8 at byte {exc.start + 1}"
                        raise ParseError(path, self._head + 1, message) from None
                    break
                line += block.count(b"\n") - 1
        self.header = header = header(len(got)) if callable(header) else header
        if got and got != header:
            raise ParseError(path, self._head + 1, f"expected header {header}, got {got}")

    def _row(self, row: int) -> tuple[int, list[str]]:
        """The 0-based line and the fields of data row ``row``, read again
        from the file's start: the data rows are the non-blank lines after
        the header, as ``columns`` counts them."""
        with closing(_blocks(self.path)) as blocks:
            lines = chain.from_iterable(block.split(b"\n")[1:-1] for block in blocks)
            rows = ((k, text) for k, text in enumerate(lines) if text and k > self._head)
            line, text = next(islice(rows, row, None))
        return line, text.decode("utf-8").split("\t")

    @staticmethod
    def _column(convert, block: bytes, begins: np.ndarray, ends: np.ndarray) -> np.ndarray:
        if isinstance(convert, Ids):
            return convert.match(block, begins, ends)
        return convert(_texts(block, begins, ends))

    def columns(self, *converters) -> list[np.ndarray]:
        """Column j of the data rows, as ``converters[j]`` makes it: ``Ids``
        match the fields' bytes, any other converter turns a list of str
        into an array.  A block at a time, so that besides the columns only
        one block is held, and an id column is never held as text."""
        width, empty = len(self.header), np.zeros(0, dtype=np.intp)
        parts = [[self._column(convert, _PAD, empty, empty)] for convert in converters]
        line = 0
        for block in _blocks(self.path):
            buf = np.frombuffer(block, dtype=np.uint8)
            bounds = np.flatnonzero((buf == _TAB) | (buf == _LF))
            # index in bounds of each LF: line k ends at bounds[lf[k + 1]]
            lf = np.flatnonzero(buf[bounds] == _LF)
            fields = np.diff(lf)
            starts, ends = bounds[lf[:-1]] + 1, bounds[lf[1:]]
            lines = np.flatnonzero(starts < ends)
            lines, stop = lines[lines + line > self._head], len(fields)
            try:
                if not block.isascii():
                    block.decode("utf-8")
            except UnicodeDecodeError as exc:
                stop = int(np.searchsorted(ends, exc.start))
                message = f"not valid UTF-8 at byte {exc.start - starts[stop] + 1}"
                self.fault = ParseError(self.path, line + stop + 1, message)
            if (wrong := lines[fields[lines] != width]).size and wrong[0] < stop:
                stop = int(wrong[0])
                message = f"expected {width} fields, got {fields[stop]}"
                self.fault = ParseError(self.path, line + stop + 1, message)
            lines = lines[lines < stop]
            # the LF of each row, as an index in bounds: the row's fields end
            # at its last width separators
            last = lf[lines + 1]
            for j, (part, convert) in enumerate(zip(parts, converters)):
                lo, hi = bounds[last + j - width] + 1, bounds[last + j + 1 - width]
                part.append(self._column(convert, block, lo, hi))
            if self.fault is not None:
                break
            line += len(fields)
        # one column at a time, so that only one is ever held twice
        return [np.concatenate(parts.pop(0)) for _ in converters]

    def raise_first(self, masks: list[np.ndarray], errors) -> None:
        """Raise for the earliest data row failing a check, with the first
        check it fails, else for the line that ended the reading, if any.
        ``masks[c]`` marks the rows failing check c, in the order a line is
        checked; ``errors(err, *fields)`` gives each check's exception,
        ``err(message)`` a ParseError at the row's line."""
        failed = [(int(np.argmax(mask)), check) for check, mask in enumerate(masks) if mask.any()]
        if failed:
            row, check = min(failed)
            line, fields = self._row(row)
            raise errors(partial(ParseError, self.path, line + 1), *fields)[check]
        if self.fault is not None:
            raise self.fault


def _id_hash(lengths: np.ndarray, words) -> np.ndarray:
    """A 64-bit hash of each id from its byte length and its words."""
    key = lengths.astype(np.uint64)
    for word in words:
        key = ((key * _MULTIPLIER) ^ word) * _MULTIPLIER
        key ^= key >> _SHIFT
    return key


class Ids:
    """Known ids and their ordinals, matched on their UTF-8 bytes, which is
    exactly text equality: UTF-8 encodes each text as one byte string.

    A field's bytes are read as its length and its zero-padded 64-bit words,
    as many as the longest known id needs.  Of a run of fields with equal
    lengths and words, as the rows of one instance repeat its id, only the
    first is looked up, by its hash.  A field takes the ordinal of the known
    id with its hash only if the length and every word are equal too; any
    other field (an unknown id, a hash collision, an id longer than every
    known id) is decoded and looked up in ``ordinal_of``.
    """

    def __init__(self, ordinal_of: dict[str, int]):
        self.ordinal_of = ordinal_of
        encoded = [key.encode("utf-8", "surrogatepass") for key in ordinal_of]
        size = max(8, (max(map(len, encoded), default=0) + 7) // 8 * 8)
        # a last entry that no field matches, with the largest hash, so
        # that every search ends on an entry
        lengths = np.array([*map(len, encoded), -1], dtype=np.intp)
        padded = b"".join(key.ljust(size, b"\0") for key in encoded) + bytes(size)
        words = np.frombuffer(padded, dtype="<u8").reshape(len(lengths), -1)
        keys = _id_hash(lengths, words.T)
        keys[-1] = np.iinfo(np.uint64).max
        order = np.argsort(keys, kind="stable")
        self.keys, self.lengths, self.words = keys[order], lengths[order], words[order]
        self.values = np.array([*ordinal_of.values(), -1], dtype=np.intp)[order]
        # the first entry of each bucket of hashes that share their top bits
        bits = (2 * len(keys)).bit_length()
        self.shift = np.uint64(64 - bits)
        buckets = np.arange(1 << bits, dtype=np.uint64) << self.shift
        self.first = np.searchsorted(self.keys, buckets)

    def match(self, block: bytes, begins: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """The ordinal of each field of a block, -1 for unknown ids.

        Only the first field of each run of equal fields (same length and
        words as the field before) is looked up: fields of equal length
        and words are identical, or longer than every known id and so all
        unknown."""
        lengths = ends - begins
        words = _words(block, begins, ends, self.words.shape[1])
        head = np.ones(lengths.size, dtype=bool)
        head[1:] = lengths[1:] != lengths[:-1]
        for word in words:
            head[1:] |= word[1:] != word[:-1]
        heads = np.flatnonzero(head)
        begins, ends, lengths = begins[heads], ends[heads], lengths[heads]
        words = [word[heads] for word in words]
        key = _id_hash(lengths, words)
        # searchsorted(self.keys, key), from the field's bucket on: a bucket
        # holds few keys, and the last entry's key is never below a field's
        at = self.first[key >> self.shift]
        while (behind := np.flatnonzero(self.keys[at] < key)).size:
            at[behind] += 1
        hit = self.lengths[at] == lengths
        for k, word in enumerate(words):
            hit &= self.words[at, k] == word
        found = np.where(hit, self.values[at], -1)
        if (miss := np.flatnonzero(~hit)).size:
            found[miss] = ordinals(self.ordinal_of, _texts(block, begins[miss], ends[miss]))
        return np.repeat(found, np.diff(heads, append=head.size))


def ordinals(ordinal_of: dict[str, int], ids) -> np.ndarray:
    """Ordinal of each id, -1 for ids not in ``ordinal_of``."""
    return np.fromiter(map(ordinal_of.get, ids, repeat(-1)), dtype=np.intp, count=len(ids))


def _first_rows(ids) -> tuple[dict[str, int], np.ndarray]:
    """The row of each id's first occurrence, and the mask of repeated rows."""
    first = dict(zip(ids[::-1], range(len(ids) - 1, -1, -1)))
    return first, ordinals(first, ids) != np.arange(len(ids))


def _sorted_repeats(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``keys`` in ascending order, and the mask of entries whose key occurs
    at an earlier entry."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeats = np.zeros(keys.size, dtype=bool)
    repeats[order[1:]] = ordered[1:] == ordered[:-1]
    return ordered, repeats


def _number(convert, text: str):
    """``convert(text)``, or None where it rejects the text."""
    try:
        return convert(text)
    except ValueError:
        return None


def floats(col) -> np.ndarray:
    """Column converter: the float of each text, NaN where float rejects it,
    so ``~np.isfinite`` marks every cell that ``value_error`` reports."""
    try:
        return np.fromiter(map(float, col), float, len(col))
    except ValueError:
        return np.fromiter(map(_number, repeat(float), col), float, len(col))


def value_error(err, text: str) -> ParseError:
    """The error for a cell that ``floats`` made NaN or that is not finite."""
    return err(f"{'bad' if _number(float, text) is None else 'non-finite'} value: {text!r}")


def _state(text: str) -> int:
    """Python's int of the text, where it fits a 64-bit label column."""
    if not -(2**63) <= (state := int(text)) < 2**63:
        raise ValueError(text)
    return state


def load_database(path) -> NetworkDatabase:
    """Load and validate a dataset directory.

    Raises ParseError for the first bad line, in the files read in the
    order nodes, instances, values, edges, with the first check that line
    fails; SubnetmineError for a missing file, or for a single global state
    once every line has passed.
    """
    root = Path(path)
    objects = partial(np.array, dtype=object)
    nodes_tsv = TsvFile(root / "nodes.tsv", ["node_id"])
    (node_ids,) = nodes_tsv.columns(objects)
    ordinal_of, repeated = _first_rows(node_ids)
    nodes_tsv.raise_first([repeated], lambda err, node: (err(f"duplicate node id {node!r}"),))
    if (n := len(node_ids)) == 0:
        raise ParseError(nodes_tsv.path, 1, "no nodes defined")

    instances_tsv = TsvFile(root / "instances.tsv", ["instance_id", "global_state"])
    inst_ids, labels = instances_tsv.columns(
        objects, lambda col: objects([_number(_state, s) for s in col])
    )
    instance_order, repeated = _first_rows(inst_ids)
    instances_tsv.raise_first(
        [repeated, np.equal(labels, None)],
        lambda err, inst, state: (
            err(f"duplicate instance id {inst!r}"),
            err(f"global_state not a 64-bit integer: {state!r}"),
        ),
    )
    m = len(inst_ids)
    instances, nodes = Ids(instance_order), Ids(ordinal_of)

    values_tsv = TsvFile(root / "values.tsv", ["instance_id", "node_id", "value"])
    i, p, x = values_tsv.columns(instances, nodes, floats)
    values_tsv.raise_first(
        [i < 0, p < 0, _sorted_repeats(i * n + p)[1], ~np.isfinite(x)],
        lambda err, inst, node, value: (
            err(f"unknown instance id {inst!r}"),
            err(f"unknown node id: {node!r}"),
            err(f"duplicate value for ({inst!r}, {node!r})"),
            value_error(err, value),
        ),
    )
    # a spare last column, which rows of unknown instances (i = -1) index
    valid = np.zeros((n, m + 1), dtype=bool)
    values = np.zeros((n, m), dtype=np.float64)
    valid[p, i], values[p, i] = True, x

    edges_tsv = TsvFile(root / "edges.tsv", ["instance_id", "node_u", "node_v"])
    i, u, v = edges_tsv.columns(instances, nodes, nodes)
    unknown_u, unknown_v, loop = u < 0, v < 0, u == v
    p, q = np.minimum(u, v), np.maximum(u, v)
    del u, v  # only their masks are needed from here on
    # (i, p, q) as one integer, which fits in int64 while the n x m values do in memory
    keys, repeated = _sorted_repeats((i * n + p) * n + q)
    edges_tsv.raise_first(
        [i < 0, unknown_u, unknown_v, loop, ~(valid[p, i] & valid[q, i]), repeated],
        lambda err, inst, node_u, node_v: (
            err(f"unknown instance id {inst!r}"),
            err(f"unknown node id: {node_u!r}"),
            err(f"unknown node id: {node_v!r}"),
            err(f"self-loop on node {node_u!r}"),
            err(f"instance {inst!r}: edge ({node_u!r}, {node_v!r}) touches a null node"),
            err(f"instance {inst!r}: duplicate edge ({node_u!r}, {node_v!r})"),
        ),
    )
    del i, p, q  # the sorted keys hold every edge row

    return NetworkDatabase(
        node_ids=tuple(node_ids),
        instance_ids=tuple(inst_ids),
        labels=labels,
        valid=valid[:, :m],
        values=values,
        edges=np.column_stack(np.divmod(keys % (n * n), n)),
        offsets=np.searchsorted(keys, np.arange(m + 1) * (n * n)),
    )


def write_tsv(path, header: list[str], rows) -> None:
    """Write a header and rows of fields as UTF-8 text with LF line ends,
    creating the parent directory.  A field is written as its ``str``, which
    round-trips a float exactly; pass a formatted string for any other
    rendering."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines("\t".join(map(str, row)) + "\n" for row in chain([header], rows))


def write_json(path: Path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final LF,
    creating the parent directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8", newline="\n")


def write_database(db: NetworkDatabase, path) -> None:
    """Write a database as a dataset directory; str of a builtin float
    round-trips exactly."""
    root = Path(path)
    ids, inst_ids = db.node_ids, db.instance_ids
    write_tsv(root / "nodes.tsv", ["node_id"], ([node_id] for node_id in ids))
    write_tsv(
        root / "instances.tsv", ["instance_id", "global_state"], zip(inst_ids, db.labels.tolist())
    )
    i, p = np.nonzero(db.valid.T)  # instance by instance, each in node order
    cells = zip(i.tolist(), p.tolist(), db.values[p, i].tolist())
    write_tsv(
        root / "values.tsv",
        ["instance_id", "node_id", "value"],
        ((inst_ids[i], ids[p], x) for i, p, x in cells),
    )
    owner = np.repeat(np.arange(db.m), np.diff(db.offsets)).tolist()
    write_tsv(
        root / "edges.tsv",
        ["instance_id", "node_u", "node_v"],
        ((inst_ids[i], ids[p], ids[q]) for i, (p, q) in zip(owner, db.edges.tolist())),
    )


# ---------------------------------------------------------------------------
# derived structures


def build_generalized_network(db: NetworkDatabase) -> GeneralizedNetwork:
    """``db.network()``, which the library calls instead; kept only because
    ``perfbench/`` calls it, until ROADMAP items 1a and 3."""
    return db.network()
