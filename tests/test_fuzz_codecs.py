"""Property tests: the message, parameter, dataset, audit, quote, sealed-blob,
shielded-file and counter-token decoders on arbitrary bytes, the policy
parser on arbitrary text, and the dataset encoder on arbitrary matrices.

Whatever bytes arrive, decoding either succeeds or raises a FedShieldError;
audit verification always returns a verdict; a policy document parses or
raises PolicyInvalidError. The dataset codec gives the bytes and arrays of
its reference implementations.
"""

import copy
import csv
import io
import json
import re
import struct

import numpy as np

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from fedshield import enclave, protocol, shield  # noqa: E402
from fedshield.audit import AuditLog, verify_audit  # noqa: E402
from fedshield.counters import TOKEN_LEN, CounterToken  # noqa: E402
from fedshield.demo import author_policy, role_measurements  # noqa: E402
from fedshield.errors import (  # noqa: E402
    FedShieldError,
    InvalidInputError,
    PolicyInvalidError,
)
from fedshield.fl import (  # noqa: E402
    Dataset,
    dataset_from_csv_bytes,
    dataset_to_csv_bytes,
    deserialize_params,
)
from fedshield.policy import SessionConfig, parse_policy  # noqa: E402

FUZZ = settings(max_examples=100, deadline=None, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**63)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=6)
bodies = st.dictionaries(st.text(max_size=8), json_values, max_size=6)


def framed(mtype: int, head: bytes, trailer: bytes) -> bytes:
    return struct.pack(">BI", mtype, len(head)) + head + trailer


# raw bytes, and bytes whose head length fits the frame so the JSON and
# trailer checks are reached
message_bytes = st.binary(max_size=200) | st.builds(
    framed, st.integers(0, 255), st.binary(max_size=64), st.binary(max_size=64))


@FUZZ
@given(message_bytes)
@example(framed(100, b"[" * 100_000, b""))  # nesting deeper than the parser's stack
@example(framed(100, b'{"a":' + b"1" * 5000 + b"}", b""))  # past the int digit limit
def test_decode_message_refuses_only_with_fedshield_error(data):
    try:
        mtype, body, params = protocol.decode_message(data)
    except FedShieldError:
        return
    assert isinstance(body, dict)
    assert not params or mtype in protocol.PARAMS_TYPES


@FUZZ
@given(st.integers(0, 255), bodies, st.binary(max_size=128))
def test_encode_decode_round_trip(mtype, body, trailer):
    params = trailer if mtype in protocol.PARAMS_TYPES else b""
    message = protocol.encode_message(mtype, body, params)
    assert protocol.decode_message(message) == (mtype, body, params)


# raw bytes, and a dimension prefix followed by a body of any length
param_bytes = st.binary(max_size=100) | st.builds(
    lambda dim, body: struct.pack(">I", dim) + body,
    st.integers(0, 12), st.binary(max_size=100))


@FUZZ
@given(param_bytes)
def test_deserialize_params_refuses_only_with_fedshield_error(data):
    try:
        vec = deserialize_params(data)
    except FedShieldError:
        return
    assert vec.shape == (struct.unpack(">I", data[:4])[0],)
    assert len(data) == 4 + 8 * vec.size


def reference_dataset_to_csv_bytes(dataset: Dataset) -> bytes:
    """The one-``repr``-per-value encoder as it was before orjson wrote the
    plain-decimal values, kept verbatim as the oracle for the differential
    test."""
    lines = [",".join([f"x{i}" for i in range(dataset.dim)] + ["y"])]
    features = np.asarray(dataset.features, dtype=np.float64).tolist()
    for row, label in zip(features, dataset.labels.tolist()):
        lines.append(",".join([*map(repr, row), str(int(label))]))
    lines.append("")
    return "\n".join(lines).encode("utf-8")


def reference_dataset_from_csv_bytes(data: bytes) -> Dataset:
    """The row-by-row decoder as it was before numpy's reader, kept verbatim
    as the oracle for the differential test."""
    text = data.decode("utf-8")
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise InvalidInputError("CSV must have a header row and at least one data row")
    body = rows[1:]
    width = len(rows[0])
    features, labels = [], []
    for i, row in enumerate(body):
        if len(row) != width:
            raise InvalidInputError(f"CSV row {i + 2} has {len(row)} columns, expected {width}")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise InvalidInputError(f"CSV row {i + 2}: {exc}") from exc
        if values[-1] not in (0.0, 1.0):
            raise InvalidInputError(f"CSV row {i + 2}: label must be 0 or 1")
        features.append(values[:-1])
        labels.append(values[-1])
    return Dataset(np.array(features, dtype=np.float64),
                   np.array(labels, dtype=np.float64))


# odd fields: numbers in other spellings, whitespace numpy strips and
# float() does not, quoting, underscores, non-ASCII digits
odd_fields = st.sampled_from([
    " 1", "1 ", "\t0", "1_0", '"1.0"', '"1', "", " ", "-inf", "Infinity", "1e999",
    ".5", "0x1", "\x1c1", "1\x1f", "\x0b1", "1\x0c", "\x851", "\u20031", "\u0661",
    "1\x00", "#1", "1e", "e1", "2", "nan",
])


def mostly(common, odd):
    """``common`` nineteen times in twenty, else ``odd``."""
    return st.integers(0, 19).flatmap(lambda k: odd if k == 0 else common)


feature_fields = mostly(st.floats().map(repr), odd_fields)
label_fields = mostly(st.sampled_from(["0", "1", "1.0", "-0.0", "1e0"]), odd_fields)
line_ends = mostly(st.just("\n"), st.sampled_from(["\r\n", "\r", "\n\n", "\x0b", "\u2028"]))
header_names = mostly(st.just("x0"), st.sampled_from(['"a,b"', "", "a\x00"]))


@st.composite
def csv_texts(draw):
    """Mostly well-formed dataset files, with an odd field, width or line
    end here and there."""
    width = draw(st.integers(0, 4))
    header = ",".join(draw(st.lists(header_names, min_size=width, max_size=width)))
    parts = [header, draw(line_ends)]
    for _ in range(draw(st.integers(0, 4))):
        cells = draw(mostly(st.just(width), st.sampled_from([width - 1, width + 1])))
        row = [draw(feature_fields) for _ in range(cells - 1)]
        row += [draw(label_fields)] * (cells > 0)
        parts.append(",".join(row))
        parts.append(draw(line_ends))
    return "".join(parts).encode("utf-8")


csv_bytes = st.binary(max_size=200) | st.text(
    alphabet="01.,-e\n\r \x1c_\"xyinf\u2028", max_size=60).map(str.encode) | csv_texts()

CSV_ESCAPES = [
    b"x0,y\n\xff,1\n",                        # not UTF-8
    b"\n\n",                                   # empty header and empty row
    b"x0,y\n" + b"0" * 131_073 + b",1\n",       # a field past csv's size limit
    b"x0,y\n1.0,1\r2.0,0\n",                   # a bare CR inside a row
]


def with_examples(test):
    for data in CSV_ESCAPES:
        test = example(data)(test)
    return test


@FUZZ
@given(csv_bytes)
@with_examples
def test_dataset_from_csv_bytes_refuses_only_with_invalid_input(data):
    try:
        dataset = dataset_from_csv_bytes(data)
    except InvalidInputError:
        return
    assert isinstance(dataset, Dataset)


ROW_NUMBER = re.compile(r"CSV row (\d+)")


@FUZZ
@given(csv_bytes)
@with_examples
@example(b"x0,y\n\x1c1.0,1\n")                # numpy strips \x1c, float() refuses it
@example(b"x0,y\n1_0,1\n")                    # float() reads underscores, numpy does not
@example(b'x0,y\n"1.0",1\r\n2.0,0\r\n')       # quoting and CRLF
@example(b"x0,y\n1.0,1\n\n")                  # a blank line is a row of no columns
@example(b"x0,y\n1.0,2\n1.0\n")               # the label error comes first
@example(b"x0,x1,y\n1.0,1\n")                 # every row narrower than the header
def test_dataset_from_csv_bytes_matches_reference(data):
    try:
        want = reference_dataset_from_csv_bytes(data)
    except Exception as exc:  # the reference also lets untyped errors out
        with pytest.raises(InvalidInputError) as raised:
            dataset_from_csv_bytes(data)
        want_row = ROW_NUMBER.match(str(exc))
        if isinstance(exc, InvalidInputError) and want_row:
            got_row = ROW_NUMBER.match(str(raised.value))
            assert got_row and got_row[1] == want_row[1]
        return
    got = dataset_from_csv_bytes(data)
    for a, b in ((got.features, want.features), (got.labels, want.labels)):
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


matrix_shapes = st.tuples(st.integers(1, 4), st.integers(0, 12))
# every float64, plain-decimal ones drawn often: orjson writes those
float64_matrices = (
    hnp.arrays(np.uint64, matrix_shapes).map(lambda bits: bits.view(np.float64))
    | hnp.arrays(np.float64, matrix_shapes,
                 elements=st.floats() | st.floats(1e-4, 1e16) | st.floats(-1e16, -1e-4)))
other_matrices = (hnp.arrays(np.float32, matrix_shapes, elements=st.floats(width=32))
                  | hnp.arrays(np.int64, matrix_shapes) | hnp.arrays(np.bool_, matrix_shapes))


def labelled(features: np.ndarray):
    """A Dataset of ``features`` with drawn 0/1 labels, as bools or floats."""
    return (hnp.arrays(np.bool_, features.shape[0])
            .flatmap(lambda y: st.sampled_from([y, y.astype(np.float64)]))
            .map(lambda y: Dataset(features, y)))


# the edges of repr's plain-decimal range on both sides, the values orjson
# spells otherwise and an integer that rounds; first and last in a row, and
# next to each other
EDGES = [0.0, -0.0, 5e-324, 1e-4, np.nextafter(1e-4, 0), -1e-4, 1e16,
         np.nextafter(1e16, 0), -1e16, np.nan, np.inf, -np.inf, 2.0**53 + 1]
EDGE_DATASETS = [
    Dataset(np.array([EDGES, EDGES[::-1]]), np.array([0.0, 1.0])),
    Dataset(np.array([[1e-5, 1.5], [0.25, 1e300]]), np.array([1.0, 0.0])),
    Dataset(np.zeros((2, 0)), np.array([True, False])),
    Dataset(np.arange(12.0).reshape(3, 4)[:, ::2] / 7, np.ones(3)),  # strided
]


def with_edge_datasets(test):
    for dataset in EDGE_DATASETS:
        test = example(dataset)(test)
    return test


@FUZZ
@given(float64_matrices.flatmap(labelled) | other_matrices.flatmap(labelled))
@with_edge_datasets
def test_dataset_to_csv_bytes_matches_reference(dataset):
    assert dataset_to_csv_bytes(dataset) == reference_dataset_to_csv_bytes(dataset)


@FUZZ
@given(st.binary(max_size=200))
@example(b'{"seq":1e400}')  # a sequence number that overflows to infinity
@example(b'{"entry_hash":"00","kind":"k","payload":{},"prev_hash":"00","seq":1,'
         b'"timestamp":' + b"1" * 401 + b"}")  # a timestamp past the float range
def test_verify_audit_always_gives_a_verdict(tmp_path_factory, tail):
    path = tmp_path_factory.mktemp("audit") / "audit.log"
    AuditLog(path).append("session-start", {"round": 0})
    with open(path, "ab") as fh:
        fh.write(tail)
    verdict = verify_audit(path)
    assert verdict.ok or verdict.first_break >= 1
    try:
        AuditLog(path)
    except FedShieldError:
        pass


def prefixed(prefix: bytes, tail_size: int):
    """``prefix`` and a random tail, short or of exactly ``tail_size`` bytes:
    the magic, version and algorithm checks pass, so the length and field
    checks run."""
    tails = (st.binary(max_size=tail_size + 2)
             | st.binary(min_size=tail_size, max_size=tail_size))
    return tails.map(lambda tail: prefix + tail)


QUOTE_HEAD = struct.pack(">HBB", enclave.QUOTE_VERSION, enclave.HASH_SHA256,
                         enclave.SIG_ED25519)
SHIELD_HEAD = shield.MAGIC + struct.pack(">H", shield.VERSION)


@st.composite
def sealed_blobs(draw):
    """The sealed-blob layout with a length field that mostly matches."""
    ciphertext = draw(st.binary(max_size=40))
    length = draw(mostly(st.just(len(ciphertext)), st.integers(0, 2**64 - 1)))
    return (enclave.SEALED_MAGIC + draw(st.binary(min_size=14, max_size=14))
            + struct.pack(">Q", length) + ciphertext)


# (decoder, inputs, what an accepted value must satisfy)
FIXED_LAYOUTS = {
    "quote": (enclave.Quote.from_bytes,
              st.binary(max_size=300) | prefixed(QUOTE_HEAD, enclave.QUOTE_LEN - 4),
              lambda quote, data: quote.to_bytes() == data),
    "sealed-blob": (enclave.SealedBlob.from_bytes,
                    prefixed(enclave.SEALED_MAGIC, 22) | sealed_blobs(),
                    lambda blob, data: blob.to_bytes() == data),
    "shield-header": (shield.ShieldHeader.from_bytes,
                      st.binary(max_size=120)
                      | prefixed(SHIELD_HEAD, shield.HEADER_LEN - 6),
                      lambda header, data: header.to_bytes() == data[:shield.HEADER_LEN]),
    "shielded-file": (shield.ShieldedFile.from_bytes,
                      st.binary(max_size=120)
                      | prefixed(SHIELD_HEAD, shield.HEADER_LEN - 6 + 20),
                      lambda sfl, data: sfl.to_bytes() == data),
    "counter-token": (CounterToken.from_bytes,
                      st.binary(max_size=150)
                      | st.binary(min_size=TOKEN_LEN, max_size=TOKEN_LEN),
                      lambda token, data: len(data) == TOKEN_LEN
                      and CounterToken.from_bytes(token.to_bytes()) == token),
}


@pytest.mark.parametrize("layout", sorted(FIXED_LAYOUTS))
@FUZZ
@given(data=st.data())
def test_fixed_layout_decoders_refuse_only_with_fedshield_error(layout, data):
    decode, inputs, accepted = FIXED_LAYOUTS[layout]
    raw = data.draw(inputs)
    try:
        value = decode(raw)
    except FedShieldError:
        return
    assert accepted(value, raw)


BASE_POLICY = author_policy("fuzz", role_measurements(), [("client-1", bytes(32))],
                            SessionConfig(rng_seed=4), validation_hash=bytes(32))
policy_values = json_values | st.floats() | st.integers() | st.sampled_from(
    ["random-hex-8", "symmetric-key-256", "provided-value", "$$dataset-key$$",
     "client", "environment-variable", "00" * 32])


@st.composite
def mutated_policies(draw):
    """The standard policy with one value, at any depth, replaced or removed."""
    doc = copy.deepcopy(json.loads(BASE_POLICY))
    node = doc
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
        elif isinstance(node, dict) and draw(st.integers(0, 4)) == 0:
            del node[key]
            return json.dumps(doc)
        else:
            node[key] = draw(policy_values)
            return json.dumps(doc)


@FUZZ
@given(st.text(max_size=200) | mutated_policies())
@example(BASE_POLICY.replace('"rng_seed":4', '"rng_seed":1e400'))  # int(inf)
@example(BASE_POLICY.replace('"rng_seed":4', '"rng_seed":NaN'))  # no canonical form
@example(BASE_POLICY.replace('symmetric-key-256', 'random-hex-' + '2' * 5000))  # int() limit
@example(BASE_POLICY.replace('"name":"fuzz"', '"name":"\\ud800"'))  # a lone surrogate
def test_parse_policy_gives_a_policy_or_policy_invalid_error(text):
    try:
        policy = parse_policy(text)
    except PolicyInvalidError:
        return
    assert parse_policy(policy.document) == policy
