"""E3 — Fig. 4: the DPS usage finite state machine.

Every per-site observation sequence produced by the measurement must be
explainable by the FSM, and the behaviours emitted by the detector must
equal the FSM's edge labels.
"""

from collections import defaultdict

from repro.core.fsm import DpsUsageFsm


def _site_sequences(study):
    sequences = defaultdict(list)
    for table in study.days:
        for observation in table.observations():
            sequences[observation.www].append(observation)
    return sequences


def test_fig4_all_sequences_fsm_legal(study):
    sequences = _site_sequences(study)
    assert sequences
    labelled_edges = 0
    for www, sequence in sequences.items():
        labels = DpsUsageFsm.validate_sequence(sequence)  # raises if illegal
        labelled_edges += sum(1 for label in labels if label)
    # The study window contains real transitions, not just self-loops.
    assert labelled_edges > 0


def test_fig4_validation_benchmark(benchmark, study):
    sequences = list(_site_sequences(study).values())

    def validate_all():
        return [DpsUsageFsm.validate_sequence(seq) for seq in sequences]

    results = benchmark(validate_all)
    assert len(results) == len(sequences)
