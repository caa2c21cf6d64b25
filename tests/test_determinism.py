"""Pinned end-to-end outputs: experiment CSVs, path-sum witnesses, certificates.

The CSV digests and witnesses were recorded with the partition-enumeration
ccw solver, so they hold every later solver to the same lex-min
witnesses and the same CSV bytes.  The certificate digest was recorded
before the composition skeleton was built once per compose, so it holds
every later composition to the same certificate bytes.
"""

import hashlib
import random

import pytest

from ccwidth import (
    ExperimentConfig,
    compose_covers,
    format_certificate,
    path_sum_instance,
    random_clique_sum_instance,
    run_experiment,
)

EXPERIMENT_SHA256 = {
    0: "f17237a8f31169307c86110f390c6c201f9268a140e4ed49236a24f534c4bcd0",
    1: "cfdae36101346fad71a8d97b604ef41e0a08d048bdedc85f806aec48c20ed173",
    2: "89c5e98e6beb4d3a65ee8700a80ebf191b652fe0bf86790680344e221a0458ba",
    3: "f1a0dd7d52a99dcda7522a8b07d475507eb4dddc6e49b8760a9ecaab748807b1",
}

CERTIFICATE_SHA256 = "65b71502a96b0755be6db1b25290070715e81ef6c2f13cab54ba79a9d84bc1dc"

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


def test_certificate_digest():
    """Certificates of path sums t = 1..6 and 240 seeded random instances."""
    instances = [path_sum_instance(t) for t in range(1, 7)]
    instances += [
        random_clique_sum_instance(random.Random(f"certificate-pin-{i}"), shared_max=4)
        for i in range(240)
    ]
    digest = hashlib.sha256()
    for inst in instances:
        cert = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
        digest.update(format_certificate(cert).encode())
    assert digest.hexdigest() == CERTIFICATE_SHA256
