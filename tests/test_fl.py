"""Training substrate oracles: gradients, aggregation, evaluation, stopping."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedshield.errors import InvalidInputError, NumericalDivergenceError
from fedshield.fl import (
    Dataset,
    GlobalModel,
    aggregate,
    converged,
    dataset_from_csv_bytes,
    dataset_to_csv_bytes,
    deserialize_params,
    evaluate,
    gradient,
    local_train,
    logistic_loss,
    make_update,
    params_hash,
    serialize_params,
    sigmoid,
    synthetic_dataset,
)
from fedshield.policy import SessionConfig


def cfg(**overrides):
    base = dict(learning_rate=0.1, local_epochs=1, batch_size=32)
    base.update(overrides)
    return SessionConfig(**base)


def scalar_loss_oracle(params, features, labels):
    """Independent per-example reimplementation of the logistic loss."""
    total = 0.0
    for x, y in zip(features, labels):
        z = sum(float(w) * float(v) for w, v in zip(params[:-1], x)) + float(params[-1])
        p = 1.0 / (1.0 + math.exp(-z))
        total += -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))
    return total / len(labels)


def finite_difference_gradient(params, features, labels, h=1e-6):
    grad = np.zeros_like(params)
    for i in range(params.size):
        hi, lo = params.copy(), params.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (logistic_loss(hi, features, labels)
                   - logistic_loss(lo, features, labels)) / (2 * h)
    return grad


def per_step_checked_train(start, data, config, seed):
    """SGD as ``local_train`` runs it, each batch gathered on its own and
    raising as soon as a step leaves a non-finite parameter."""
    params, rng = start.copy(), np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        for _ in range(config.local_epochs):
            order = rng.permutation(data.n)
            for lo in range(0, data.n, config.batch_size):
                batch = order[lo:lo + config.batch_size]
                params -= config.learning_rate * gradient(
                    params, data.features[batch], data.labels[batch])
                if not np.isfinite(params).all():
                    raise NumericalDivergenceError("non-finite step")
    return params


class TestGradient:
    def test_zero_learning_rate_keeps_params(self):
        data = synthetic_dataset(50, 4, seed=1)
        start = np.arange(5, dtype=np.float64) / 10
        update = local_train(start, data, cfg(learning_rate=0.0), seed=0)
        assert np.array_equal(update.params, start)

    def test_single_example_moves_only_bias(self):
        # x = 0, y = 1, start = 0: gradient is (0, sigma(0) - 1) = (0, -0.5),
        # so one full-batch step moves the bias by exactly 0.5 * lr
        data = Dataset(np.zeros((1, 3)), np.ones(1))
        lr = 0.2
        update = local_train(np.zeros(4), data,
                             cfg(learning_rate=lr, batch_size=1), seed=0)
        expected = np.array([0.0, 0.0, 0.0, 0.5 * lr])
        assert np.allclose(update.params, expected, atol=0, rtol=0)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, d = rng.integers(3, 20), rng.integers(1, 6)
            features = rng.standard_normal((n, d))
            labels = rng.integers(0, 2, n).astype(np.float64)
            params = rng.standard_normal(d + 1)
            analytic = gradient(params, features, labels)
            numeric = finite_difference_gradient(params, features, labels)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
            assert rel <= 1e-5

    def test_divergence_raises(self):
        data = Dataset(np.full((4, 2), 1e200), np.ones(4))
        with pytest.raises(NumericalDivergenceError):
            local_train(np.zeros(3), data, cfg(learning_rate=1e250, batch_size=4,
                                               local_epochs=3), seed=0)

    def test_divergence_in_a_later_batch_raises(self):
        # the step on the 1e200 row makes the weights infinite whichever row
        # comes first: first, its residual is 0.5; second, the zero row's
        # step has pushed the bias to 5e249 against its label 0
        data = Dataset(np.array([[0.0, 0.0], [1e200, 1e200]]), np.array([1.0, 0.0]))
        seeds = range(8)
        # both batch orders occur, so the large row is the later batch at least once
        assert {tuple(np.random.default_rng(s).permutation(2)) for s in seeds} == {
            (0, 1), (1, 0)}
        for seed in seeds:
            with pytest.raises(NumericalDivergenceError):
                local_train(np.zeros(3), data,
                            cfg(learning_rate=1e250, batch_size=1), seed=seed)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data(), st.integers(1, 9), st.integers(1, 4), st.integers(1, 5),
           st.integers(1, 3), st.integers(0, 2**32 - 1),
           st.floats(0.0, 1e300) | st.sampled_from([0.1, 1.0, 1e10, 1e150]))
    def test_one_finiteness_check_decides_as_a_check_per_step(
            self, data, n, dim, batch_size, local_epochs, seed, lr):
        # the reference checks after every step; local_train checks once,
        # after the last: a non-finite weight stays non-finite, so both raise
        # on the same runs and return the same bits on the others
        values = st.floats(-1e3, 1e3) | st.sampled_from(
            [1e200, -1e200, 1e300, math.inf, -math.inf])
        features = data.draw(arrays(np.float64, (n, dim), elements=values))
        labels = data.draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
        start = data.draw(arrays(np.float64, dim + 1, elements=values))
        config = cfg(learning_rate=lr, batch_size=batch_size, local_epochs=local_epochs)
        dataset = Dataset(features, labels)
        try:
            expected = serialize_params(per_step_checked_train(start, dataset, config, seed))
        except NumericalDivergenceError:
            with pytest.raises(NumericalDivergenceError):
                local_train(start, dataset, config, seed=seed)
        else:
            assert local_train(start, dataset, config, seed=seed).blob == expected

    def test_sigmoid_stable_at_extremes(self):
        z = np.array([-1e6, -50.0, 0.0, 50.0, 1e6])
        out = sigmoid(z)
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0 and out[2] == 0.5


class TestGoldenBits:
    """The training arithmetic's exact bits. Any rewrite of the SGD loop
    must keep these digests: they are what clients send and the audit log
    hashes."""

    @pytest.mark.parametrize("n, dim, batch_size, local_epochs, seed, golden", [
        # 1000 = 31 * 32 + 8: the last batch is ragged
        (1000, 100, 32, 1, 11,
         "bf3753b33ee51e2812e49f2505f7bf82c308c70f1a522e0069baa1a8463c7e6a"),
        # n below the batch size: one full-data batch per epoch
        (8, 2000, 32, 1, 12,
         "3e21ccec5766cf081a178c38cb518d89bcc7a9cb3d19e97eae6462639c707cbe"),
        (7, 3, 1, 3, 13,
         "730f6e7ea2dff28f52a39dabe592f7306ebfd14e4f8b7ed64ce47c1fe0ce26d4"),
    ], ids=["1000x100-ragged", "8x2000-one-batch", "7x3-batch-1"])
    def test_local_train_golden(self, n, dim, batch_size, local_epochs, seed, golden):
        data = synthetic_dataset(n, dim, seed=seed)
        start = np.random.default_rng(seed + 1).standard_normal(dim + 1) / 10
        update = local_train(start, data, cfg(learning_rate=0.3, batch_size=batch_size,
                                              local_epochs=local_epochs), seed=seed + 2)
        assert update.params_hash.hex() == golden

    @pytest.mark.parametrize("n, dim, batch_size, local_epochs", [
        (97, 13, 10, 2), (5, 40, 32, 3), (64, 2, 64, 1), (33, 7, 1, 1)])
    def test_local_train_matches_the_per_batch_gather(self, n, dim, batch_size,
                                                      local_epochs):
        # the reference loop: each batch gathers its rows from the dataset
        data = synthetic_dataset(n, dim, seed=n)
        start = np.random.default_rng(dim).standard_normal(dim + 1)
        config = cfg(learning_rate=0.7, batch_size=batch_size, local_epochs=local_epochs)
        params, rng = start.copy(), np.random.default_rng(5)
        for _ in range(local_epochs):
            order = rng.permutation(n)
            for lo in range(0, n, batch_size):
                batch = order[lo:lo + batch_size]
                params -= config.learning_rate * gradient(
                    params, data.features[batch], data.labels[batch])
        trained = local_train(start, data, config, seed=5)
        assert trained.blob == serialize_params(params)

    def test_gradient_golden(self):
        rng = np.random.default_rng(14)
        features = rng.standard_normal((45, 9))
        labels = rng.integers(0, 2, 45).astype(np.float64)
        params = rng.standard_normal(10)
        digest = hashlib.sha256(gradient(params, features, labels).tobytes()).hexdigest()
        assert digest == "87972d8c4ad1be31889f1c7dda10e568531234bd19db56aea7f34180dca523e9"

    def test_sigmoid_golden_at_extremes(self):
        z = np.array([-np.inf, -1e308, -745.2, -36.7, -1.0, -5e-324, -0.0,
                      0.0, 5e-324, 1.0, 36.7, 745.2, 1e308, np.inf])
        bits = [f"{v:016x}" for v in sigmoid(z).view(np.uint64).tolist()]
        assert bits == [
            "0000000000000000", "0000000000000000", "0000000000000000",
            "3ca0998b04bdd18f", "3fd136561454ba86", "3fe0000000000000",
            "3fe0000000000000", "3fe0000000000000", "3fe0000000000000",
            "3fe764d4f5d5a2bd", "3feffffffffffffe", "3ff0000000000000",
            "3ff0000000000000", "3ff0000000000000"]

    def test_sigmoid_golden_across_magnitudes(self):
        signs = np.random.default_rng(15).standard_normal(4096)
        z = signs * np.exp(np.random.default_rng(16).uniform(-20, 7, 4096))
        digest = hashlib.sha256(sigmoid(z).tobytes()).hexdigest()
        assert digest == "901236be9b18a548aafb7ff6308acd1588f717101f113dcf8f46c8b0b8efb5b8"


class TestAggregate:
    def test_single_update_identity(self):
        params = np.array([1.0, -2.0, 3.0])
        agg = aggregate([make_update("a", 1, params, 17)])
        assert np.array_equal(agg, params)

    def test_symmetric_updates_cancel(self):
        u = np.array([0.5, -1.5, 2.5])
        agg = aggregate([make_update("a", 1, u, 10), make_update("b", 1, -u, 10)])
        assert np.array_equal(agg, np.zeros(3))

    def test_weighted_mean_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        vectors = [rng.standard_normal(8) for _ in range(3)]
        counts = [1, 2, 3]
        updates = [make_update(f"c{i}", 2, v, n)
                   for i, (v, n) in enumerate(zip(vectors, counts))]
        agg = aggregate(updates)
        expected = np.zeros(8)
        for v, n in zip(vectors, counts):  # independent scalar accumulation
            for j in range(8):
                expected[j] += n * v[j]
        expected /= sum(counts)
        assert np.max(np.abs(agg - expected) / np.maximum(np.abs(expected), 1e-300)) <= 1e-12

    def test_permutation_bit_identical(self):
        rng = np.random.default_rng(5)
        updates = [make_update(f"c{i}", 1, rng.standard_normal(6), int(n))
                   for i, n in enumerate(rng.integers(1, 100, size=7))]
        reference = aggregate(updates)
        for _ in range(10):
            rng.shuffle(updates)
            assert np.array_equal(aggregate(updates), reference)

    def test_identical_updates_regardless_of_weights(self):
        params = np.array([0.25, -0.5])
        updates = [make_update(f"c{i}", 1, params, n)
                   for i, n in enumerate([1, 999, 40])]
        assert np.array_equal(aggregate(updates), params)

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(InvalidInputError):
            aggregate([])
        with pytest.raises(InvalidInputError):
            aggregate([make_update("a", 1, np.zeros(3), 1),
                       make_update("b", 1, np.zeros(4), 1)])
        with pytest.raises(InvalidInputError):
            aggregate([make_update("a", 1, np.zeros(3), 1),
                       make_update("b", 2, np.zeros(3), 1)])


class TestEvaluate:
    def test_zero_params_predict_class_one(self):
        data = synthetic_dataset(101, 3, seed=9)
        accuracy, loss = evaluate(np.zeros(4), data)
        assert accuracy == pytest.approx(float(np.mean(data.labels == 1.0)))
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_separated_fixture_reaches_accuracy_one(self):
        features = np.array([[-2.0], [-1.5], [1.5], [2.0]])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        accuracy, _ = evaluate(np.array([10.0, 0.0]), Dataset(features, labels))
        assert accuracy == 1.0

    def test_loss_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n, d = 30, 5
            features = rng.standard_normal((n, d))
            labels = rng.integers(0, 2, n).astype(np.float64)
            params = rng.standard_normal(d + 1) * 0.5
            _, loss = evaluate(params, Dataset(features, labels))
            oracle = scalar_loss_oracle(params, features, labels)
            assert abs(loss - oracle) / abs(oracle) <= 1e-12

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.zeros((0, 2)), np.zeros(0))


class TestConverged:
    def test_target_accuracy_reached(self):
        assert converged([(1, 0.97, 0.3)],
                         cfg(target_accuracy=0.95)) == "target-reached"

    def test_loss_plateau(self):
        history = [(1, 0.5, 0.50), (2, 0.5, 0.4999), (3, 0.5, 0.4998),
                   (4, 0.5, 0.4998)]
        assert converged(history, cfg(target_accuracy=0.99,
                                      convergence_epsilon=1e-3,
                                      patience=3)) == "loss-plateau"

    def test_not_converged_early(self):
        history = [(1, 0.5, 0.7), (2, 0.55, 0.6)]
        assert converged(history, cfg(target_accuracy=0.99, patience=3,
                                      max_rounds=10)) is None

    def test_max_rounds(self):
        history = [(r, 0.5, 0.7 - 0.01 * r) for r in range(1, 11)]
        assert converged(history, cfg(target_accuracy=0.99, patience=3,
                                      max_rounds=10)) == "max-rounds"


class TestDeterminism:
    def test_bit_identical_update_hashes(self):
        data = synthetic_dataset(80, 6, seed=3)
        start = np.zeros(7)
        first = local_train(start, data, cfg(local_epochs=3), seed=42)
        second = local_train(start, data, cfg(local_epochs=3), seed=42)
        assert first.params_hash == second.params_hash
        assert np.array_equal(first.params, second.params)
        different_seed = local_train(start, data, cfg(local_epochs=3), seed=43)
        assert different_seed.params_hash != first.params_hash

    def test_loss_non_increasing_on_separable_fixture(self):
        rng = np.random.default_rng(17)
        n, d = 60, 3
        features = rng.standard_normal((n, d))
        labels = (features[:, 0] > 0).astype(np.float64)
        features[:, 0] += np.where(labels == 1.0, 0.5, -0.5)  # margin
        data = Dataset(features, labels)
        params = np.zeros(d + 1)
        losses = [logistic_loss(params, features, labels)]
        training = cfg(learning_rate=0.1, batch_size=n, local_epochs=1)
        for _ in range(50):
            params = local_train(params, data, training, seed=0).params
            losses.append(logistic_loss(params, features, labels))
        deltas = np.diff(losses)
        assert np.all(deltas <= 0)


class TestSerialization:
    def test_params_round_trip(self):
        vec = np.array([1.5, -2.25, 1e-300, 3e200, 0.0])
        assert np.array_equal(deserialize_params(serialize_params(vec)), vec)

    def test_params_hash_is_serialization_hash(self):
        import hashlib
        blob = serialize_params(np.array([0.1, 0.2]))
        assert params_hash(blob) == hashlib.sha256(blob).digest()

    def test_update_blob_belongs_to_its_vector(self):
        update = make_update("a", 1, np.array([0.5, -1.0]), 3)
        assert update.blob == serialize_params(np.array([0.5, -1.0]))
        assert update.params_hash == params_hash(serialize_params(update.params))
        flipped = replace(update, params=update.params * -10)
        assert flipped.blob == serialize_params(np.array([-5.0, 10.0]))
        assert flipped.params_hash == params_hash(serialize_params(flipped.params))
        received = make_update("a", 1, update.params, 3, params_hash=update.params_hash)
        assert received.params_hash is update.params_hash

    def test_a_vector_with_a_blob_is_read_only(self):
        start = np.array([0.5, -1.0])
        update = make_update("a", 1, start, 3)
        model = GlobalModel(1, start, serialize_params(start))
        for params in (update.params, model.params):
            with pytest.raises(ValueError, match="read-only"):
                params[0] = 2.0
        assert start.flags.writeable  # the caller's array keeps its flags

    def test_bad_lengths(self):
        with pytest.raises(InvalidInputError):
            deserialize_params(b"\x00\x00\x00\x02" + b"\x00" * 8)

    def test_params_golden_bytes(self):
        # u32 BE dimension, then IEEE-754 binary64 BE entries; -0.0 keeps its sign
        assert serialize_params(np.array([1.0, -0.0, 2.5])).hex() == (
            "00000003" "3ff0000000000000" "8000000000000000" "4004000000000000")

    def test_deserialized_params_are_native_writable_float64(self):
        vec = deserialize_params(serialize_params(np.array([1.0, -0.0, 2.5])))
        assert vec.dtype == np.float64 and vec.dtype.isnative
        assert vec.flags.writeable
        assert np.signbit(vec[1])
        vec[0] = 7.0

    def test_empty_params_round_trip(self):
        blob = serialize_params(np.zeros(0))
        assert blob == b"\x00" * 4
        assert deserialize_params(blob).shape == (0,)

    def test_csv_round_trip(self):
        data = synthetic_dataset(25, 4, seed=11)
        blob = dataset_to_csv_bytes(data)
        parsed = dataset_from_csv_bytes(blob)
        assert np.array_equal(parsed.features, data.features)
        assert np.array_equal(parsed.labels, data.labels)
        # identical content gives identical bytes (dataset identity)
        assert dataset_to_csv_bytes(parsed) == blob

    # bytes of the csv.writer encoder that first defined the format
    CSV_GOLDEN = [
        (np.array([[-0.0, 5e-324, 1e-05, 1e16], [0.1, np.nan, np.inf, -np.inf]]),
         np.array([0.0, 1.0]),
         b"x0,x1,x2,x3,y\n-0.0,5e-324,1e-05,1e+16,0\n0.1,nan,inf,-inf,1\n"),
        (np.array([[0.1, -2.5], [3.4028235e38, 1e-45]], dtype=np.float32),
         np.array([1.0, 0.0], dtype=np.float32),
         b"x0,x1,y\n0.10000000149011612,-2.5,1\n"
         b"3.4028234663852886e+38,1.401298464324817e-45,0\n"),
        (np.array([[1, -2], [0, 2**53 + 1]]), np.array([1, 1]),
         b"x0,x1,y\n1.0,-2.0,1\n0.0,9007199254740992.0,1\n"),
        (np.zeros((2, 0)), np.array([True, False]), b"y\n1\n0\n"),
    ]

    @pytest.mark.parametrize("features,labels,golden", CSV_GOLDEN)
    def test_csv_golden_bytes(self, features, labels, golden):
        assert dataset_to_csv_bytes(Dataset(features, labels)) == golden
        parsed = dataset_from_csv_bytes(golden)
        for got, want in ((parsed.features, features), (parsed.labels, labels)):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            want = np.asarray(want, dtype=np.float64)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_csv_decode_peaks_below_one_and_a_half_file_sizes(self):
        # rows are parsed one at a time: the decoder holds the features and
        # one row's scratch, never a parsed copy of the whole file
        blob = dataset_to_csv_bytes(synthetic_dataset(16, 50_000, seed=5))
        tracemalloc.start()
        try:
            dataset_from_csv_bytes(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(blob)

    def test_csv_decode_of_a_tall_file_peaks_below_one_and_a_half_file_sizes(self):
        # blocks are parsed one at a time: the decoder holds the features,
        # the line ends and one block's scratch
        blob = dataset_to_csv_bytes(synthetic_dataset(20_000, 20, seed=5))
        tracemalloc.start()
        try:
            dataset_from_csv_bytes(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(blob)

    def test_csv_rejects_bad_labels(self):
        blob = b"x0,y\n1.0,2\n"
        with pytest.raises(InvalidInputError):
            dataset_from_csv_bytes(blob)

    def test_csv_rejects_ragged_rows(self):
        blob = b"x0,x1,y\n1.0,2.0,1\n3.0,0\n"
        with pytest.raises(InvalidInputError):
            dataset_from_csv_bytes(blob)
