"""Logistic-regression training substrate for federated sessions.

Parameter vectors are dense float64 arrays of length d+1 with the bias
last. All reductions run in a fixed order (aggregation sums in client-id
order, batch order comes from the seed), so identical inputs produce
bit-identical parameter hashes across runs.

Dataset files are CSV with a header row, d feature columns and one trailing
0/1 label column. They are written as ``repr`` floats, an integer label and
LF line ends, and read as UTF-8 with LF or CRLF line ends; any malformed
dataset raises InvalidInputError. Parameter vectors serialize as
``u32 BE dimension | IEEE-754 binary64 BE entries``.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass, field

import numpy as np

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
    """One client's trained parameters for a round."""

    client_id: str
    round_index: int
    params: np.ndarray
    num_examples: int
    params_hash: bytes

    def __post_init__(self):
        if self.num_examples < 1:
            raise InvalidInputError("num_examples must be >= 1")


@dataclass
class GlobalModel:
    """Committed global parameters plus the per-round metrics history."""

    round_index: int
    params: np.ndarray
    history: list[tuple[int, float, float]] = field(default_factory=list)


def serialize_params(params: np.ndarray) -> bytes:
    vec = np.asarray(params, dtype=np.float64)
    if vec.ndim != 1:
        raise InvalidInputError("parameter vector must be one-dimensional")
    return struct.pack(">I", vec.size) + vec.astype(">f8").tobytes()


def deserialize_params(data: bytes) -> np.ndarray:
    if len(data) < 4:
        raise InvalidInputError("parameter serialization too short")
    (dim,) = struct.unpack(">I", data[:4])
    if len(data) != 4 + 8 * dim:
        raise InvalidInputError("parameter serialization length mismatch")
    return np.frombuffer(data, ">f8", offset=4).astype(np.float64)


def params_hash(params: np.ndarray) -> bytes:
    return sha256(serialize_params(params))


def make_update(client_id: str, round_index: int, params: np.ndarray,
                num_examples: int) -> ModelUpdate:
    params = np.asarray(params, dtype=np.float64)
    return ModelUpdate(client_id, round_index, params, num_examples, params_hash(params))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (branch form, never overflows)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _scores(params: np.ndarray, features: np.ndarray) -> np.ndarray:
    if features.shape[1] + 1 != params.shape[0]:
        raise InvalidInputError(
            f"parameter dimension {params.shape[0]} does not match "
            f"feature dimension {features.shape[1]}+1")
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
    z = _scores(params, features)
    resid = sigmoid(z) - labels
    n = features.shape[0]
    grad_w = features.T @ resid / n
    grad_b = float(np.mean(resid))
    return np.append(grad_w, grad_b)


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
    """
    params = np.array(start, dtype=np.float64)
    if params.shape != (data.dim + 1,):
        raise InvalidInputError("start vector dimension does not match data")
    if cfg.learning_rate < 0:
        raise InvalidInputError("learning_rate must be >= 0")
    batch_size = min(max(int(cfg.batch_size), 1), data.n)
    rng = np.random.default_rng(seed)
    # overflow to inf is detected by the finiteness check, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.local_epochs):
            order = rng.permutation(data.n)
            for lo in range(0, data.n, batch_size):
                batch = order[lo:lo + batch_size]
                g = gradient(params, data.features[batch], data.labels[batch])
                params -= cfg.learning_rate * g
                if not np.all(np.isfinite(params)):
                    raise NumericalDivergenceError(
                        "weights became non-finite during training")
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
    """
    lines = [",".join([f"x{i}" for i in range(dataset.dim)] + ["y"])]
    features = np.asarray(dataset.features, dtype=np.float64).tolist()
    for row, label in zip(features, dataset.labels.tolist()):
        lines.append(",".join([*map(repr, row), str(int(label))]))
    lines.append("")
    return "\n".join(lines).encode("utf-8")


# Characters numpy's float parser strips as whitespace and float() refuses.
# In ASCII text they are the only input numpy reads as a number where
# float() does not (the reverse, such as "1_0", numpy refuses).
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def dataset_from_csv_bytes(data: bytes) -> Dataset:
    """Decode a dataset file; any malformed input raises InvalidInputError.

    Well-formed files go through numpy's C reader. Everything it refuses or
    might read differently from ``float()`` goes to the row-by-row parser,
    which decodes it exactly or names the failing row.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"CSV is not UTF-8: {exc}") from exc
    table = _read_table(text)
    if table is None:
        return _parse_rows(text)
    labels = table[:, -1]
    bad = np.flatnonzero((labels != 0.0) & (labels != 1.0))
    if bad.size:
        raise _label_error(int(bad[0]) + 2)  # the header is row 1
    # copies: a strided view may take another BLAS path and change result bits
    return Dataset(np.ascontiguousarray(table[:, :-1]), np.ascontiguousarray(labels))


def _read_table(text: str) -> np.ndarray | None:
    """The data rows as one (rows, columns) float64 table, or None when the
    row parser must read the text: it is not ASCII or holds a character of
    ``_NUMPY_ONLY_SPACE``, has a line break other than LF and CRLF, a blank
    line, a quoted header or a field past the csv module's size limit, or
    numpy refuses a row (quoting, underscores, a bad number or width)."""
    if not text.isascii() or any(c in text for c in _NUMPY_ONLY_SPACE):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if _may_exceed_field_limit(text):
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or "" in lines or '"' in lines[0]:
        return None
    try:
        table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2,
                           dtype=np.float64)
    except ValueError:
        return None
    if table.shape != (len(lines) - 1, lines[0].count(",") + 1):
        return None
    return table


def _may_exceed_field_limit(text: str) -> bool:
    """Whether a field may be longer than ``csv.field_size_limit()``.

    A run of ``2 * step`` characters without a comma or LF covers a whole
    aligned block of ``step``, so if every block holds one, no field is
    longer than ``2 * step - 1``, which is at most the limit.
    """
    step = (csv.field_size_limit() + 1) // 2
    for start in range(0, len(text) - step + 1, step):
        end = start + step
        if text.find(",", start, end) < 0 and text.find("\n", start, end) < 0:
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


def save_dataset_csv(dataset: Dataset, path) -> bytes:
    data = dataset_to_csv_bytes(dataset)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def synthetic_dataset(n: int, dim: int, seed: int,
                      separation: float = 2.0) -> Dataset:
    """Two-class Gaussian mixture with class-mean distance ``separation``."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n).astype(np.float64)
    offset = np.full(dim, separation / (2.0 * np.sqrt(dim)))
    means = np.where(labels[:, None] == 1.0, offset, -offset)
    features = means + rng.standard_normal((n, dim))
    return Dataset(features, labels)
