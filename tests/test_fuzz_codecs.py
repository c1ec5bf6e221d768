"""Property tests: the message, parameter, dataset, audit, quote, sealed-blob,
shielded-file, counter-token and checkpoint-body decoders on arbitrary bytes,
the policy parser on arbitrary text, the dataset encoder on arbitrary
matrices, the checkpoint body on arbitrary models, each handshake stage on
edited frames from an attested peer, and every manager call on arbitrary
replies.

Whatever bytes arrive, decoding either succeeds or raises a FedShieldError;
audit verification always returns a verdict; a policy document parses or
raises PolicyInvalidError; a handshake given an edited frame ends in a
FedShieldError; a manager call returns or raises a FedShieldError. The
dataset codec gives the bytes and arrays of its reference implementation,
and a checkpoint body decodes to the model it was encoded from, bit for bit.
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

from fedshield import enclave, fl, protocol, shield  # noqa: E402
from fedshield.attestation import (  # noqa: E402
    MSG_FINISH,
    MSG_HELLO,
    MSG_KEYSHARE,
    MSG_QUOTE,
    ROLE_CLIENT,
    ROLE_POLICY_MANAGER,
    AttestationPolicy,
)
from fedshield.audit import AuditLog, verify_audit  # noqa: E402
from fedshield.counters import TOKEN_LEN, CounterToken  # noqa: E402
from fedshield.demo import author_policy, role_measurements  # noqa: E402
from fedshield.encoding import b64, canonical_bytes  # noqa: E402
from fedshield.errors import (  # noqa: E402
    DecodeError,
    FedShieldError,
    InvalidInputError,
    PolicyInvalidError,
)
from fedshield.fl import (  # noqa: E402
    Dataset,
    GlobalModel,
    dataset_from_csv_bytes,
    dataset_to_csv_bytes,
    deserialize_params,
    serialize_params,
)
from fedshield.orchestrator import checkpoint_model, checkpoint_plaintext  # noqa: E402
from fedshield.policy import SessionConfig, parse_policy  # noqa: E402
from fedshield.services import ManagerChannel  # noqa: E402

from conftest import quote_binding, run_handshake_pair  # noqa: E402

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


# tokens orjson reads otherwise than float(), or refuses, or reads only
# through an int: a sign lost, an overflow, a 64-bit and a wider integer,
# an integer float64 must round, non-numbers and non-JSON spellings
orjson_fields = st.sampled_from([
    "-0", " -0 ", "-0e5", "-0.0", "1e-0", "1e400", "-1e-400",
    "18446744073709551616", "18446744073709551615", "9007199254740993",
    "true", "null", "[1]", "+1", "1e+16", "00", ".5", "1.",
])
# numbers both JSON and float() spell, with up to 40 digits and exponents
# past both ends of the float64 range
numerals = st.builds("{}{}{}{}".format, st.sampled_from(["", "-"]), st.integers(0, 10**40),
                     st.sampled_from(["", ".5", ".05"]),
                     st.just("") | st.integers(-345, 307).map("e{}".format))
feature_fields = mostly(st.floats().map(repr) | numerals, odd_fields | orjson_fields)
label_fields = mostly(st.sampled_from(["0", "1", "1.0", "-0.0", "1e0", "-0"]), odd_fields)
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
    b"x0,y\n1." + b"0" * 131_072 + b",1\n",      # ... which orjson reads as 1.0
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
@example(b"x0,y\n-0,1\n")                     # orjson reads -0 as the integer 0
@example(b"x0,y\n1.0,-0\n")                   # ... and -0 as a label
@example(b"x0,y\n1.0,-0  \n")                 # ... with spaces after it
@example(b"y\n-0\n")                          # ... with no comma before it
@example(b"x0,y\n0.5, -0\n")                  # ... with a space before it
@example(b"x0,x1,y\n1.0,2.0,1\n0.5,-0,0\n")   # a -0 feature in a later row
@example(b"x0,y\n1e-0,1\n")                   # not a -0 token
@example(b"x0,y\n1,,0\n")                     # an empty field
@example(b"x0,x1,y\ntrue,null,1\n")           # JSON literals float() refuses
@example(b"x0,y\n[1],1\n")                    # a JSON array in a field
@example(b"x0,y\n")                           # a header and no rows
@example(b"x0,y\n1.0,1")                      # no final LF
@example(b"\n0\n")                            # an empty header is 0 columns to csv
@example(b"x0,y\r\n1.0,1\r\n")               # CRLF line ends
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


@pytest.mark.parametrize("budget", [1, 16])
def test_dataset_from_csv_bytes_matches_reference_in_small_blocks(monkeypatch, budget):
    # the differential fuzz again, with every row a block of its own, or a
    # few short rows to a block: drawn files span several blocks, and rows
    # straddle a budget
    monkeypatch.setattr(fl, "_BLOCK_BYTES", budget)
    test_dataset_from_csv_bytes_matches_reference()


# the header check as a regex, before a translate replaced it
CLEAN_HEADER = re.compile(rb"[ !#-~]+")


@FUZZ
@given(st.binary(max_size=12) | st.text(alphabet="01.,-e\r \x1c_\"xyinfa\x00\x7f~!#\u2028",
                                        max_size=12).map(str.encode))
@example(b"")
def test_clean_header_is_the_regex(header):
    assert fl._clean_header(header) == bool(CLEAN_HEADER.fullmatch(header))


def test_clean_header_is_the_regex_on_every_byte():
    for one in map(bytes, zip(range(256))):
        assert fl._clean_header(one) == bool(CLEAN_HEADER.fullmatch(one))


# up to 40 rows, so that rows with and without an exponent-form or
# non-finite value interleave
matrix_shapes = st.tuples(st.integers(1, 40), st.integers(0, 12))
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


finite = st.floats(allow_nan=False, allow_infinity=False)
histories = st.lists(st.tuples(st.integers(0, 2**31), finite, finite), max_size=6)


def history_bits(history) -> list:
    return [(r, struct.pack(">dd", acc, loss)) for r, acc, loss in history]


@FUZZ
@given(hnp.arrays(np.float64, st.integers(0, 40), elements=finite),
       histories, st.integers(0, 2**40), st.binary(min_size=32, max_size=32))
@example(np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-05]),
         [(1, -0.0, 5e-324), (2, 1e16, 1e-05)], 2, bytes(32))
@example(np.zeros(0), [], 0, bytes(32))
def test_checkpoint_body_round_trips(params, history, round_index, policy_hash):
    model = GlobalModel(round_index, params, serialize_params(params), history)
    body = checkpoint_plaintext(model, policy_hash)
    decoded = checkpoint_model(body, policy_hash)
    assert decoded.round_index == round_index
    assert decoded.blob == model.blob
    assert decoded.params.tobytes() == np.asarray(params, np.float64).tobytes()
    assert history_bits(decoded.history) == history_bits(history)
    with pytest.raises(InvalidInputError, match="different policy"):
        checkpoint_model(body, bytes(b ^ 1 for b in policy_hash))


@pytest.mark.parametrize("column", [1, 2])  # accuracy, loss
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_metric_refused_as_by_reference(column, value):
    entry = [1, 0.5, 0.25]
    entry[column] = value
    params = np.array([0.5, -1.0])
    model = GlobalModel(1, params, serialize_params(params), [(2, 0.5, 0.25), tuple(entry)])
    with pytest.raises(InvalidInputError):
        checkpoint_plaintext(model, bytes(32))


CHECKPOINT_PARAMS = np.array([0.5, -1.0, 2.0])
CHECKPOINT_BODY = checkpoint_plaintext(
    GlobalModel(2, CHECKPOINT_PARAMS, serialize_params(CHECKPOINT_PARAMS),
                [(1, 0.5, 0.75), (2, 0.625, 0.5)]), bytes(32))
CHECKPOINT_HEAD_END = 4 + struct.unpack(">I", CHECKPOINT_BODY[:4])[0]


def with_head(head: bytes, tail: bytes = CHECKPOINT_BODY[CHECKPOINT_HEAD_END:]) -> bytes:
    return struct.pack(">I", len(head)) + head + tail


# near-valid heads: each field absent, of another JSON type, or well-typed
head_docs = st.dictionaries(
    st.sampled_from(["history", "policy_hash", "round", "params"]),
    json_values
    | st.lists(st.lists(json_values, max_size=4) | json_values, max_size=3)
    | st.lists(st.tuples(st.integers(-2, 2**64), finite, finite).map(list), max_size=3)
    | st.just(bytes(32).hex()),
    max_size=4)
checkpoint_bytes = (
    st.binary(max_size=200)
    | st.builds(lambda cut: CHECKPOINT_BODY[:cut], st.integers(0, 80))
    | st.builds(lambda prefix: prefix + CHECKPOINT_BODY[4:], st.binary(max_size=5))
    | st.builds(with_head, st.binary(max_size=80))
    | st.builds(lambda doc: with_head(canonical_bytes(doc)), head_docs)
    | st.builds(lambda tail: CHECKPOINT_BODY[:CHECKPOINT_HEAD_END] + tail, param_bytes))


@FUZZ
@given(checkpoint_bytes)
@example(CHECKPOINT_BODY)
@example(with_head(b'{"history":[1],"policy_hash":"00","round":1}'))  # a row not a list
@example(with_head(b'{"history":[],"policy_hash":1,"round":1}'))  # a hash not a string
@example(with_head(b"[]"))  # a head not an object
def test_checkpoint_model_returns_a_model_or_refuses_typed(data):
    try:
        model = checkpoint_model(data, bytes(32))
    except (DecodeError, InvalidInputError):
        return
    assert isinstance(model, GlobalModel)
    assert model.blob == data[4 + struct.unpack(">I", data[:4])[0]:]


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
    """The sealed-blob layout with algorithm ids and a length field that
    mostly match, so most blobs reach the length check."""
    ciphertext = draw(st.binary(max_size=40))
    algorithms = draw(mostly(st.just(struct.pack(">BB", enclave.HASH_SHA256,
                                                 enclave.AEAD_AES_256_GCM)),
                             st.binary(min_size=2, max_size=2)))
    length = draw(mostly(st.just(len(ciphertext)), st.integers(0, 2**64 - 1)))
    return (enclave.SEALED_MAGIC + algorithms + draw(st.binary(min_size=12, max_size=12))
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


# The policy manager's side of a handshake pins no measurement, so a peer on
# any enclave of the platform gets through quote verification.
PLATFORM = enclave.generate_platform()
MANAGER = enclave.spawn_enclave(PLATFORM, b"fuzz: policy manager", b"mode=fuzz\n")
PEER = enclave.spawn_enclave(PLATFORM, b"fuzz: unpinned peer", b"mode=fuzz\n")
UNPINNED = AttestationPolicy(PLATFORM.root_public_key, None)


def manager_outcome(edit_b, quote_provider=None):
    """What the manager's side ends in when the peer's side of an otherwise
    honest handshake applies ``edit_b``, a ``(message_type, edit)`` pair."""
    outcome, _ = run_handshake_pair(
        MANAGER, ROLE_POLICY_MANAGER, UNPINNED, PEER, ROLE_CLIENT, UNPINNED,
        quote_provider_b=quote_provider, edit_b=edit_b, timeout=5)
    return outcome


# raw bytes in place of a frame, or the frame with one byte changed, cut
# short or extended
frame_edits = (st.tuples(st.just("replace"), st.binary(max_size=300))
               | st.tuples(st.just("flip"), st.integers(0, 300), st.integers(1, 255))
               | st.tuples(st.just("cut"), st.integers(0, 300))
               | st.tuples(st.just("extend"), st.binary(min_size=1, max_size=8)))


def edited(frame: bytes, edit) -> bytes:
    kind, *args = edit
    if kind == "replace":
        return args[0]
    if kind == "flip":
        at = args[0] % len(frame)
        return frame[:at] + bytes([frame[at] ^ args[1]]) + frame[at + 1:]
    if kind == "cut":
        return frame[:args[0] % len(frame)]
    return frame + args[0]


@pytest.mark.parametrize("stage", [MSG_HELLO, MSG_KEYSHARE, MSG_QUOTE, MSG_FINISH],
                         ids=["hello", "keyshare", "quote", "finish"])
@FUZZ
@given(edit=frame_edits)
@example(edit=("extend", b"\x00"))  # a trailing byte the HELLO parse once ignored
def test_edited_handshake_frame_ends_in_fedshield_error(stage, edit):
    outcome = manager_outcome((stage, lambda frame: edited(frame, edit)))
    assert isinstance(outcome, FedShieldError)


@FUZZ
@given(st.binary(min_size=32, max_size=32) | st.binary(max_size=40))
@example(bytes(32))                      # low-order points: an all-zero secret
@example((1).to_bytes(32, "little"))
def test_keyshare_bound_by_a_genuine_quote_ends_in_fedshield_error(key):
    outcome = manager_outcome((MSG_KEYSHARE, lambda frame: bytes([MSG_KEYSHARE]) + key),
                              quote_binding(key))
    assert isinstance(outcome, FedShieldError)


COUNTER_KEY = enclave.generate_signing_key()
ASKED = b"\x0a" * 16  # the counter every increment and read asks for


def signed_token(counter_id: bytes, value: int) -> bytes:
    payload = CounterToken(counter_id, value, b"").signed_payload()
    return payload + COUNTER_KEY.sign(payload)


# tokens the counter key signed, for the counter asked for or another, and
# tokens of the right length with a forged or a garbled signed part
counter_ids = st.sampled_from([ASKED, b"\x0b" * 16]) | st.binary(min_size=16, max_size=16)
token_bytes = (st.builds(signed_token, counter_ids, st.integers(0, 2**64 - 1))
               | st.builds(lambda cid, sig: cid + bytes(8) + b"\x01" + sig,
                           counter_ids, st.binary(min_size=64, max_size=64))
               | st.binary(min_size=TOKEN_LEN, max_size=TOKEN_LEN))
reply_bodies = bodies | st.builds(lambda body, token: {**body, "token": b64(token)},
                                  bodies, token_bytes)
reply_types = mostly(st.sampled_from([protocol.RESPONSE_OK, protocol.RESPONSE_ERR]),
                     st.integers(0, 255))


class CannedChannel:
    """A channel that answers every request with one fixed reply."""

    def __init__(self, reply: bytes):
        self.reply = reply

    def send(self, frame):
        pass

    def recv(self, timeout=None, max_size=None):
        return self.reply


MANAGER_CALLS = {
    "upload_policy": lambda m, path: m.upload_policy("{}"),
    "generate_secrets": lambda m, path: m.generate_secrets(bytes(32)),
    "request_secrets": lambda m, path: m.request_secrets(bytes(32), "client"),
    "counter_create": lambda m, path: m.counter_create(),
    "counter_increment": lambda m, path: m.counter_increment(ASKED),
    "counter_read": lambda m, path: m.counter_read(ASKED),
    "stable_value": lambda m, path: m.stable_value(ASKED),
    "provision": lambda m, path: m.provision(bytes(32), "client", path, b"rows"),
}


@FUZZ
@given(call=st.sampled_from(sorted(MANAGER_CALLS)), rtype=reply_types, body=reply_bodies)
@example(call="counter_read", rtype=protocol.RESPONSE_OK,
         body={"token": b64(signed_token(ASKED, 2))})
@example(call="counter_increment", rtype=protocol.RESPONSE_OK,
         body={"token": b64(signed_token(b"\x0b" * 16, 2))})
def test_manager_call_returns_or_raises_fedshield_error(tmp_path_factory, call,
                                                         rtype, body):
    manager = ManagerChannel(CannedChannel(protocol.encode_message(rtype, body)),
                             enclave.public_key_bytes(COUNTER_KEY))
    try:
        MANAGER_CALLS[call](manager, tmp_path_factory.getbasetemp() / "data.sfl")
    except FedShieldError:
        pass
