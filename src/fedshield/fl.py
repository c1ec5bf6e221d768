"""Logistic-regression training substrate for federated sessions.

Parameter vectors are dense float64 arrays of length d+1 with the bias
last. All reductions run in a fixed order (aggregation sums in client-id
order, batch order comes from the seed), so identical inputs produce
bit-identical parameter hashes across runs. ``local_train`` gathers each
epoch's shuffled rows once and steps on views of that copy, with the bits
of gathering every batch apart; ``sigmoid`` differs from the branch form
only in the sign bit of a NaN, which training never returns.

Dataset files are CSV with a header row, d feature columns and one trailing
0/1 label column. They are written as ``repr`` floats, an integer label and
LF line ends, and read as UTF-8 with LF or CRLF line ends; any malformed
dataset raises InvalidInputError. orjson writes the ``repr`` digits of every
feature whose ``repr`` is plain decimal; the exponent-form and non-finite
ones, which it spells otherwise, are written by ``repr`` itself, so the
bytes are those of a ``repr`` per value; a row with no such value is one
orjson call. orjson also reads a clean file, one block of rows per call, and
every other file goes to ``csv`` and ``float()``; either way each value
decodes as ``float()`` reads it. orjson misreads one token, ``-0``, as a
zero: it is searched for only where orjson read a zero, and a file that holds
it goes to the row parser.
Parameter vectors serialize as
``u32 BE dimension | IEEE-754 binary64 BE entries``.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import re
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import orjson

from .encoding import sha256
from .errors import InvalidInputError, NumericalDivergenceError


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, d) with 0/1 labels (n,)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise InvalidInputError("features must be (n, d), labels (n,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise InvalidInputError("feature/label row counts differ")
        if self.features.shape[0] < 1:
            raise InvalidInputError("dataset must contain at least one row")
        if not np.all(np.isin(self.labels, (0.0, 1.0))):
            raise InvalidInputError("labels must be 0 or 1")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ModelUpdate:
    """One client's trained parameters for a round.

    ``blob`` is the serialization the update is sent as and ``params_hash``
    its SHA-256. Each is made once, on first use, and belongs to this
    vector: ``params`` is read-only, and ``dataclasses.replace`` makes a
    new update that serializes its own vector.
    """

    client_id: str
    round_index: int
    params: np.ndarray
    num_examples: int

    def __post_init__(self):
        if self.num_examples < 1:
            raise InvalidInputError("num_examples must be >= 1")
        object.__setattr__(self, "params", _read_only(self.params))

    @cached_property
    def blob(self) -> bytes:
        return serialize_params(self.params)

    @cached_property
    def params_hash(self) -> bytes:
        return params_hash(self.blob)


@dataclass(frozen=True)
class GlobalModel:
    """Committed global parameters plus the per-round metrics history.

    ``blob`` is ``serialize_params(params)``, made where the model is made;
    the checkpoint and the broadcasts send it. ``params`` is read-only, so
    it cannot change under its blob.
    """

    round_index: int
    params: np.ndarray
    blob: bytes
    history: list[tuple[int, float, float]] = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "params", _read_only(self.params))


def _read_only(params: np.ndarray) -> np.ndarray:
    """A read-only float64 view of ``params``; the caller's array keeps its flags."""
    view = np.asarray(params, dtype=np.float64).view()
    view.flags.writeable = False
    return view


def serialize_params(params: np.ndarray) -> bytes:
    vec = np.asarray(params, dtype=np.float64)
    if vec.ndim != 1:
        raise InvalidInputError("parameter vector must be one-dimensional")
    return b"".join((struct.pack(">I", vec.size), vec.astype(">f8")))


def deserialize_params(data: bytes | memoryview) -> np.ndarray:
    if len(data) < 4:
        raise InvalidInputError("parameter serialization too short")
    (dim,) = struct.unpack(">I", data[:4])
    if len(data) != 4 + 8 * dim:
        raise InvalidInputError("parameter serialization length mismatch")
    return np.frombuffer(data, ">f8", offset=4).astype(np.float64)


def params_hash(blob: bytes) -> bytes:
    """SHA-256 of a parameter vector's ``serialize_params`` blob."""
    return sha256(blob)


def make_update(client_id: str, round_index: int, params: np.ndarray,
                num_examples: int, *, params_hash: bytes | None = None) -> ModelUpdate:
    """An update of ``params``. ``params_hash``, when given, must be the
    SHA-256 of their serialization, such as the hash of the bytes the update
    arrived as; it is kept, not computed again."""
    update = ModelUpdate(client_id, round_index, params, num_examples)
    if params_hash is not None:
        object.__setattr__(update, "params_hash", params_hash)  # cached_property's slot
    return update


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function; never overflows.

    One ``e = exp(-|z|)`` gives ``1 / (1 + e)`` where z >= 0 and
    ``e / (1 + e)`` below: the bits of the branch form, which exponentiates
    z's two halves apart, for every non-NaN z. A NaN stays NaN, but its sign
    bit may differ; ``local_train`` raises before a NaN could leave it.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _check_dimension(params: np.ndarray, features: np.ndarray) -> None:
    if features.shape[1] + 1 != params.shape[0]:
        raise InvalidInputError(
            f"parameter dimension {params.shape[0]} does not match "
            f"feature dimension {features.shape[1]}+1")


def _scores(params: np.ndarray, features: np.ndarray) -> np.ndarray:
    _check_dimension(params, features)
    return features @ params[:-1] + params[-1]


def _mean_loss(z: np.ndarray, labels: np.ndarray) -> float:
    """Mean logistic loss in log-sum-exp form: mean(softplus(z) - y*z)."""
    return float(np.mean(np.logaddexp(0.0, z) - labels * z))


def _hit_rate(z: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows decided correctly; the tie sigma(z) = 0.5 predicts class 1."""
    return float(np.mean((z >= 0.0) == labels))


def logistic_loss(params: np.ndarray, features: np.ndarray,
                  labels: np.ndarray) -> float:
    """Mean logistic loss of params on the given rows."""
    return _mean_loss(_scores(params, features), labels)


def gradient(params: np.ndarray, features: np.ndarray,
             labels: np.ndarray) -> np.ndarray:
    """Analytic gradient of the mean logistic loss, bias component last."""
    _check_dimension(params, features)
    grad_w, grad_b = _gradient(params[:-1], params[-1], features, labels)
    return np.append(grad_w, grad_b)


def _gradient(w: np.ndarray, b: float, features: np.ndarray,
              labels: np.ndarray) -> tuple[np.ndarray, float]:
    """(grad_w, grad_b) of the mean logistic loss at weights w and bias b;
    ``grad_b`` is ``add.reduce`` over n, the bits of ``np.mean``."""
    z = features @ w
    z += b
    resid = sigmoid(z)
    resid -= labels
    n = features.shape[0]
    grad_w = features.T @ resid
    grad_w /= n
    return grad_w, float(resid.sum()) / n


def accuracy(params: np.ndarray, dataset: Dataset) -> float:
    """Fraction of the dataset's rows that params classify correctly."""
    return _hit_rate(_scores(params, dataset.features), dataset.labels)


def evaluate(params: np.ndarray, dataset: Dataset) -> tuple[float, float]:
    """(accuracy, mean logistic loss) of params on a dataset, from one score pass."""
    z = _scores(np.asarray(params, dtype=np.float64), dataset.features)
    return _hit_rate(z, dataset.labels), _mean_loss(z, dataset.labels)


def local_train(start: np.ndarray, data: Dataset, cfg, seed: int,
                *, client_id: str = "", round_index: int = 0) -> ModelUpdate:
    """Mini-batch SGD on the logistic loss.

    Runs ``cfg.local_epochs`` epochs with batch order drawn from ``seed``;
    deterministic given (start, data, cfg, seed). ``cfg`` needs
    ``learning_rate``, ``local_epochs`` and ``batch_size`` attributes.

    Each epoch gathers its shuffled rows once and each batch is a view of
    that copy; the results are bit-identical to gathering every batch on
    its own. The weights are updated in place and the bias is a Python
    float. A NaN or an infinity raises ``NumericalDivergenceError`` and no
    update is returned. It is checked for once, after the last step: a
    non-finite weight or bias stays non-finite through every later step
    (``inf - x`` is ``inf`` or NaN, ``nan - x`` is NaN), so a check after
    each step would raise on the same runs.
    """
    params = np.array(start, dtype=np.float64)
    if params.shape != (data.dim + 1,):
        raise InvalidInputError("start vector dimension does not match data")
    lr = cfg.learning_rate
    if lr < 0:
        raise InvalidInputError("learning_rate must be >= 0")
    batch_size = min(max(int(cfg.batch_size), 1), data.n)
    rng = np.random.default_rng(seed)
    w, b = params[:-1], float(params[-1])
    # overflow to inf is detected by the finiteness check, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.local_epochs):
            order = rng.permutation(data.n)
            features, labels = data.features[order], data.labels[order]
            for lo in range(0, data.n, batch_size):
                hi = lo + batch_size
                grad_w, grad_b = _gradient(w, b, features[lo:hi], labels[lo:hi])
                grad_w *= lr
                w -= grad_w
                b -= lr * grad_b
            # freed before the next epoch's gather, which reuses the block
            del features, labels
    if not (math.isfinite(b) and np.isfinite(w).all()):
        raise NumericalDivergenceError("weights became non-finite during training")
    params[-1] = b
    return make_update(client_id, round_index, params, data.n)


def aggregate(updates: list[ModelUpdate]) -> np.ndarray:
    """Example-count-weighted mean of client parameters.

    Summation runs in client-id-sorted order, so any permutation of the
    input list yields bit-identical output.
    """
    if not updates:
        raise InvalidInputError("cannot aggregate an empty update list")
    ordered = sorted(updates, key=lambda u: u.client_id)
    dim = ordered[0].params.shape[0]
    round_index = ordered[0].round_index
    for u in ordered:
        if u.params.shape != (dim,):
            raise InvalidInputError("update dimensions differ")
        if u.round_index != round_index:
            raise InvalidInputError("updates are from different rounds")
    total = 0
    acc = np.zeros(dim, dtype=np.float64)
    for u in ordered:
        acc += float(u.num_examples) * u.params
        total += u.num_examples
    return acc / float(total)


def converged(history: list[tuple[int, float, float]], cfg) -> str | None:
    """Session stop rule: why the session stops after ``history``, or None.

    ``"target-reached"`` when the latest accuracy meets ``cfg.target_accuracy``;
    ``"loss-plateau"`` when the last ``cfg.patience`` consecutive loss deltas
    are all below ``cfg.convergence_epsilon`` in magnitude; ``"max-rounds"``
    when the round index has reached ``cfg.max_rounds``.
    """
    if not history:
        return None
    round_index, accuracy, _ = history[-1]
    if accuracy >= cfg.target_accuracy:
        return "target-reached"
    if len(history) >= cfg.patience + 1:
        tail = [loss for _, _, loss in history[-(cfg.patience + 1):]]
        deltas = [tail[i + 1] - tail[i] for i in range(len(tail) - 1)]
        if all(abs(d) < cfg.convergence_epsilon for d in deltas):
            return "loss-plateau"
    return "max-rounds" if round_index >= cfg.max_rounds else None


def dataset_to_csv_bytes(dataset: Dataset) -> bytes:
    """Deterministic CSV serialization; the bytes are the dataset identity.

    Features are written as the ``repr`` of their float64 value (an integer
    1 as ``1.0``, a float32 as its float64 repr), labels as integers.
    orjson writes the runs of plain-decimal values with the same shortest
    digits, a row with no other value in one call; ``repr`` writes the rest
    (see ``_repr_only``).
    """
    features = np.ascontiguousarray(dataset.features, dtype=np.float64)
    repr_only = _repr_only(features)
    mixed = repr_only.any(axis=1).tolist()
    label_cells = (b",0\n", b",1\n") if dataset.dim else (b"0\n", b"1\n")
    parts = [_csv_header(dataset.dim), b"\n"]
    for i, (row, label) in enumerate(zip(features, (dataset.labels != 0).tolist())):
        if mixed[i]:
            cells, start = [], 0
            for j in np.flatnonzero(repr_only[i]).tolist():
                cells += [_orjson_cells(row[start:j]), repr(float(row[j])).encode()]
                start = j + 1
            cells.append(_orjson_cells(row[start:]))
            parts.append(b",".join([cell for cell in cells if cell]))
        else:
            parts.append(orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1])
        parts.append(label_cells[label])
    return b"".join(parts)


@lru_cache(maxsize=4)
def _csv_header(dim: int) -> bytes:
    """``x0,...,x{dim-1},y``, built once per width: about 8 ms at dim 50,000."""
    return ",".join([f"x{i}" for i in range(dim)] + ["y"]).encode()


def _repr_only(features: np.ndarray) -> np.ndarray:
    """Where orjson's spelling differs from ``repr``: ``repr`` takes exponent
    form below 1e-4 and from 1e16 up (orjson writes ``0.00001`` for
    ``1e-05`` and ``1e16`` for ``1e+16``), and orjson writes ``null`` for
    nan and the infinities."""
    magnitude = np.abs(features)
    return ~np.isfinite(features) | (features != 0) & (
        (magnitude < 1e-4) | (magnitude >= 1e16))


def _orjson_cells(values: np.ndarray) -> bytes:
    """Comma-separated shortest round-trip digits of contiguous float64
    values, as ``repr`` spells them in plain-decimal range."""
    return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]


# The bytes of a clean block of rows. orjson reads every number they spell
# as float() does, or refuses it, except the token -0 (see _NEGATIVE_ZERO).
_CLEAN_BLOCK_BYTES = b"0123456789+-.eE, \n"
# A header is clean if it is non-empty and holds none but these, printable
# ASCII without a quote: csv splits it at every comma.
_CLEAN_HEADER_BYTES = bytes([0x20, 0x21, *range(0x23, 0x7F)])
# orjson reads -0 as the integer 0, losing the sign float("-0") keeps.
_NEGATIVE_ZERO = re.compile(rb"-0(?![0-9.eE])")
# The bytes of rows parsed in one orjson call: a block is the whole rows
# that fit, or one longer row.
_BLOCK_BYTES = 1 << 16


def dataset_from_csv_bytes(data: bytes) -> Dataset:
    """Decode a dataset file; any malformed input raises InvalidInputError.

    A clean file (see ``_read_clean_table``) is read by orjson, one block of
    rows at a time. Every other file, CRLF ones included, goes to the
    row-by-row parser, which decodes it exactly or names the failing row.
    """
    table = _read_clean_table(data)
    if table is None:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"CSV is not UTF-8: {exc}") from exc
        return _parse_rows(text)
    features, labels = table
    bad = np.flatnonzero((labels != 0.0) & (labels != 1.0))
    if bad.size:
        raise _label_error(int(bad[0]) + 2)  # the header is row 1
    return Dataset(features, labels)


def _clean_header(header: bytes) -> bool:
    return bool(header) and not header.translate(None, _CLEAN_HEADER_BYTES)


def _read_clean_table(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The features and labels of a clean file, or None when the row parser
    must read it.

    A clean file ends in LF, its header is clean (see ``_CLEAN_HEADER_BYTES``),
    no field may pass the csv module's size limit, and each row holds only
    ``_CLEAN_BLOCK_BYTES``, parses as the body of a JSON array, is as wide as
    the header and holds no token -0. orjson refuses the numbers float()
    reads that JSON does not spell (``1e400``, ``nan``, ``+1``, ``.5``,
    ``1.``, ``00``) and empty fields. Its integers fit in 64 bits, and numpy
    rounds them to float64 as float() does. The rows are read in blocks of
    about ``_BLOCK_BYTES``, each one bracketed copy, one ``translate``, one
    ``orjson.loads`` and one ``np.array``. orjson reads -0 as the integer 0,
    so the token is searched for only where a zero was read: a block's text
    when one of its features is, and the label's token, after the row's last
    comma, when the label is 0 and the row ends in a space or in ``-0``.
    """
    header = data[:data.find(b"\n")]
    if (not data.endswith(b"\n") or not _clean_header(header)
            or _may_exceed_field_limit(data)):
        return None
    # the LF that ends the header, then the one that ends each row; find runs
    # at memchr speed, bytes.count byte by byte
    ends, end = [len(header)], data.find(b"\n", len(header) + 1)
    while end >= 0:
        ends.append(end)
        end = data.find(b"\n", end + 1)
    rows, columns = len(ends) - 1, header.count(b",")
    if rows < 1 or rows * (2 * columns + 1) > len(data):  # a field and a comma: 2 bytes
        return None
    # The features outlive the blocks they are parsed from. Allocated first,
    # after only the line ends, they lie below that scratch, so the heap can
    # shrink once it is freed. Allocated last, they can land above it and
    # keep it resident: in the wide-model benchmark, about 30 MB of peak RSS
    # for the coordinator's validation set, depending on the heap layout.
    features, labels = np.empty((rows, columns)), np.empty(rows)
    view = memoryview(data)
    i = 0
    while i < rows:  # rows i to j - 1
        j = max(bisect.bisect_right(ends, ends[i] + _BLOCK_BYTES, i + 1) - 1, i + 1)
        # a copy of one block, never of the file
        block = b"".join((b"[[", view[ends[i] + 1:ends[j]], b"]]"))
        if block.translate(None, _CLEAN_BLOCK_BYTES) != b"[[]]":
            return None
        try:  # a ragged block is a ValueError, as orjson's refusal is
            table = np.array(orjson.loads(block.replace(b"\n", b"],[")), dtype=np.float64)
        except ValueError:
            return None
        if table.shape != (j - i, columns + 1):
            return None
        features[i:j], labels[i:j] = table[:, :-1], table[:, -1]
        if not features[i:j].all() and _NEGATIVE_ZERO.search(block):
            return None
        i = j
    # a label token that reads 0 is -0 only if it ends in a space or in -0
    zero = np.flatnonzero(labels == 0)
    zero_ends = np.array(ends)[zero + 1]
    text = np.frombuffer(data, np.uint8)
    last = text[zero_ends - 1]
    suspect = (last == ord(" ")) | (last == ord("0")) & (text[zero_ends - 2] == ord("-"))
    for row in zero[suspect].tolist():
        start, end = ends[row], ends[row + 1]
        if _NEGATIVE_ZERO.search(data, max(data.rfind(b",", start, end), start) + 1, end):
            return None
    return features, labels


def _may_exceed_field_limit(data: bytes) -> bool:
    """Whether a field may be longer than ``csv.field_size_limit()``.

    A run of ``2 * step`` bytes without a comma or LF covers a whole
    aligned block of ``step``, so if every block holds one, no field is
    longer than ``2 * step - 1``, which is at most the limit.
    """
    step = (csv.field_size_limit() + 1) // 2
    for start in range(0, len(data) - step + 1, step):
        end = start + step
        if data.find(b",", start, end) < 0 and data.find(b"\n", start, end) < 0:
            return True
    return False


def _label_error(row_number: int) -> InvalidInputError:
    return InvalidInputError(f"CSV row {row_number}: label must be 0 or 1")


def _parse_rows(text: str) -> Dataset:
    """Decode with ``csv`` and ``float()`` one row at a time; the first bad
    row, in file order, is the one named in the error."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise InvalidInputError(f"CSV line {reader.line_num}: {exc}") from exc
    if len(rows) < 2:
        raise InvalidInputError("CSV must have a header row and at least one data row")
    width = len(rows[0])
    features, labels = [], []
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise InvalidInputError(f"CSV row {number} has {len(row)} columns, expected {width}")
        if not row:
            raise InvalidInputError(f"CSV row {number} has no columns")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise InvalidInputError(f"CSV row {number}: {exc}") from exc
        if values[-1] not in (0.0, 1.0):
            raise _label_error(number)
        features.append(values[:-1])
        labels.append(values[-1])
    return Dataset(np.array(features, dtype=np.float64),
                   np.array(labels, dtype=np.float64))


def synthetic_dataset(n: int, dim: int, seed: int,
                      separation: float = 2.0) -> Dataset:
    """Two-class Gaussian mixture with class-mean distance ``separation``."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n).astype(np.float64)
    offset = np.full(dim, separation / (2.0 * np.sqrt(dim)))
    means = np.where(labels[:, None] == 1.0, offset, -offset)
    features = means + rng.standard_normal((n, dim))
    return Dataset(features, labels)
