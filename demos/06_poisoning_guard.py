"""Clone-and-sample defense: catching a client that poisons its updates.

One of nine clients rescales its trained parameters by -10 before
submitting. The coordinator clones the aggregation leave-one-out, scores
each client's influence on validation accuracy, and flags the outlier.

Run with: python demos/06_poisoning_guard.py
"""

import tempfile

import numpy as np

from fedshield import clone_aggregate, flag_outliers, local_train, score_clients
from fedshield.demo import run_demo
from fedshield.fl import make_update, synthetic_dataset
from fedshield.policy import SessionConfig

# -- scoring mechanics on one round's updates, outside any session --------

cfg = SessionConfig(learning_rate=0.1, local_epochs=2, batch_size=32,
                    clone_count=9, clone_subset_size=8,
                    outlier_threshold=0.02, rng_seed=3)
validation = synthetic_dataset(300, 8, seed=999)

updates = []
for i in range(9):
    data = synthetic_dataset(100, 8, seed=i)
    update = local_train(np.zeros(9), data, cfg, seed=i,
                         client_id=f"client-{i}", round_index=1)
    if i == 0:  # the attacker
        update = make_update(update.client_id, 1, update.params * -10.0,
                             update.num_examples)
    updates.append(update)

runs = clone_aggregate(updates, validation, cfg, round_seed=1)
print("clone utilities (leave-one-out):")
for run in runs:
    omitted = ({u.client_id for u in updates} - run.subset).pop()
    print(f"  without {omitted:9s}: accuracy={run.utility:.3f}")

scores = score_clients(runs, [u.client_id for u in updates])
print("\ninfluence scores (in-mean minus out-mean):")
for s in scores:
    print(f"  {s.client_id}: {s.score:+.3f}")

flags = flag_outliers(scores, cfg.outlier_threshold)
print("\nflagged:", sorted(flags))

# -- the same defense inside a live session --------------------------------

session = SessionConfig(min_clients=4, max_rounds=3, target_accuracy=0.99,
                        learning_rate=0.1, local_epochs=2, batch_size=32,
                        clone_count=5, clone_subset_size=4,
                        outlier_threshold=0.02, rng_seed=17)
with tempfile.TemporaryDirectory() as workdir:
    result = run_demo(workdir, num_clients=5, rows_per_client=120, dim=8,
                      seed=17, session=session, attacker_id="client-2")
    print("\nlive session with client-2 poisoning:")
    for record in result.coordinator.records:
        print(f"  round {record.round_index}: accuracy={record.accuracy:.3f} "
              f"flagged={record.flags}")
    print("final model excluded the attacker every round:",
          all(record.flags == ["client-2"] for record in result.coordinator.records))
