"""Pinned end-to-end outputs: experiment CSV digests and path-sum witnesses.

The digests and witnesses were recorded with the partition-enumeration
ccw solver, so they hold every later solver to the same lex-min
witnesses and the same CSV bytes.
"""

import hashlib

import pytest

from ccwidth import ExperimentConfig, path_sum_instance, run_experiment

EXPERIMENT_SHA256 = {
    0: "f17237a8f31169307c86110f390c6c201f9268a140e4ed49236a24f534c4bcd0",
    1: "cfdae36101346fad71a8d97b604ef41e0a08d048bdedc85f806aec48c20ed173",
    2: "89c5e98e6beb4d3a65ee8700a80ebf191b652fe0bf86790680344e221a0458ba",
    3: "f1a0dd7d52a99dcda7522a8b07d475507eb4dddc6e49b8760a9ecaab748807b1",
}

PATH_SUM_WITNESSES = {
    1: ((0,), (1,), (2,)),
    2: ((0,), (1,), (2,), (3,), (4,)),
    3: ((0,), (1,), (2,), (3,), (4,), (5,), (6,)),
    4: ((0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,)),
}


@pytest.mark.parametrize("seed", sorted(EXPERIMENT_SHA256))
def test_experiment_csv_digest(seed):
    text = run_experiment(ExperimentConfig(count=50, seed=seed))
    assert len(text.splitlines()) == 51
    assert hashlib.sha256(text.encode()).hexdigest() == EXPERIMENT_SHA256[seed]


@pytest.mark.parametrize("t", sorted(PATH_SUM_WITNESSES))
def test_path_sum_witnesses(t):
    inst = path_sum_instance(t)
    assert inst.c1.as_sorted_tuples() == PATH_SUM_WITNESSES[t]
    assert inst.c2.as_sorted_tuples() == PATH_SUM_WITNESSES[t]
