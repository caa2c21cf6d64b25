"""Pinned end-to-end outputs: experiment CSVs, witnesses, certificates.

The CSV digests and witnesses were recorded with the partition-enumeration
ccw solver, so they hold every later solver to the same lex-min
witnesses and the same CSV bytes.  The certificate digest and the
fallback certificates were recorded when compose's repair ladder gave
way to one fallback: when the best insertion of the shared clique
misses the bound, keep the shared set inside side 1's own cliques,
then side 2's, order each clique set by the least width a capped
search on its quotient reaches, and take the narrower, side 1 on ties.
Certificates whose best insertion fits were byte-identical across that
change; certificate-pin-62 dropped from achieved 3 to 2.  The layout
digest was recorded while strips were still built as a partition of
each cover around its anchor block and zipped pairwise, so it holds the
strip-key sort that replaced them to the same sequences and span
checks.  The bandwidth witness digest was recorded with the
position-by-position bandwidth DFS, before the bandwidth search moved
onto the ordered-cover search.  The bandwidth reach digest (n = 13, p
up to 0.8) was recorded with the per-entry room check, before the
bounded search checked the window's unplaced neighbors cumulatively
and by distance, so it holds those prunes to the same values and
witnesses on graphs the old check took seconds on.  The ``gen`` output
digest was recorded while ``ccwidth gen`` still went through a
``generate(kind, **params)`` dispatcher, so it holds the direct
generator calls that replaced it to the same bytes, exit codes and
error lines.
"""

import csv
import dataclasses
import hashlib
import io
import random
from collections import Counter

import pytest

import ccwidth.composition
import ccwidth.experiment
from ccwidth import (
    ExperimentConfig,
    OrderedCliqueCover,
    bandwidth_exact,
    ccw_exact,
    clique_sum,
    compose_covers,
    cover_width,
    edge_span_claim_check,
    format_bandwidth_result,
    format_certificate,
    path_sum_instance,
    random_clique_sum_instance,
    random_graph,
    run_experiment,
    verify_certificate,
)
from ccwidth.cli import main
from ccwidth.experiment import _row
from conftest import band_sum_instance, fallback_instance, sorted_cover, wide_side_sum

EXPERIMENT_SHA256 = {
    0: "f17237a8f31169307c86110f390c6c201f9268a140e4ed49236a24f534c4bcd0",
    1: "cfdae36101346fad71a8d97b604ef41e0a08d048bdedc85f806aec48c20ed173",
    2: "89c5e98e6beb4d3a65ee8700a80ebf191b652fe0bf86790680344e221a0458ba",
    3: "f1a0dd7d52a99dcda7522a8b07d475507eb4dddc6e49b8760a9ecaab748807b1",
}

LAYOUT_SHA256 = "d3fd083939da7225ce081dfd01d0459a009a921faa2e405c72f266c1b7cae8ae"

CERTIFICATE_SHA256 = "ee1fe686ed57f85f19bf7390ed9d27549c02d53b71b67a8b5a3dfad1fd0fe356"

GEN_OUTPUT_SHA256 = "d9b86a763d351a793b7f5e8e61cd8f517b99878723ea62a0cbbe8e23e9b4caf5"

BANDWIDTH_WITNESS_SHA256 = (
    "ceb7b9b8451fa23a39f38bbd63a11ee7fd852f456af97415c2a7f382aaadd2d3"
)

BANDWIDTH_REACH_SHA256 = (
    "43c27b20baeb33182a398a84f6f7ea6b7e30fb6f6fdbb8b33f90399372feccaf"
)

# The fb-* instances whose best insertion misses the bound, so compose
# orders a side-kept clique set instead: (achieved, certificate sha256).
# (1, 725) and (0, 777) fit only at the bound, and (2, 1549) has a
# width-0 side.
FALLBACK_CERTIFICATES = {
    (1, 725): (
        3,
        "2fd7235a619c89db5d8785812a3389353859ee666ef2eab2490af3347cba8253",
    ),
    (1, 809): (
        2,
        "fe47da923aa07ae325448e49d29585d1f66ebb0748307ebe74ee01f8a94b4a58",
    ),
    (2, 679): (
        2,
        "482ff24baba289ea20e2ff0c1998cac0d7784c46c9d1d9a2c589d5fcaa0e2b4c",
    ),
    (2, 1549): (
        2,
        "f4f2fec0c2f368a752be077ec858dfa26150a9da1cba9161828050713c4058e3",
    ),
    (0, 777): (
        3,
        "5d6f0386150519670c9cb2382134cdac1be4027e50def38baf9b92e8b2df837a",
    ),
    (2, 952): (
        2,
        "1477de15bddf809eb585d919b11cc0e1eda401f0e2ff3a83a69495f4534ed0c7",
    ),
    (2, 1009): (
        2,
        "00a4f5c244ab5d03ca9bbbde00b0373bb65cd4d243ee41ca0c8576fa52f38e00",
    ),
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
    assert sorted_cover(inst.c1) == PATH_SUM_WITNESSES[t]
    assert sorted_cover(inst.c2) == PATH_SUM_WITNESSES[t]


def _certificate_pin_instances():
    """Path sums t = 1..6 and 240 seeded random instances."""
    instances = [path_sum_instance(t) for t in range(1, 7)]
    instances += [
        random_clique_sum_instance(random.Random(f"certificate-pin-{i}"), shared_max=4)
        for i in range(240)
    ]
    return instances


def test_certificate_digest():
    """Certificates of the certificate-pin instances."""
    digest = hashlib.sha256()
    for inst in _certificate_pin_instances():
        cert = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
        digest.update(format_certificate(cert).encode())
    assert digest.hexdigest() == CERTIFICATE_SHA256


def test_achieved_is_the_cover_width():
    """``achieved`` from the construction equals the width of the cover built.

    Over the certificate pins, also glued along no shared vertex, the
    fb-* fallbacks, the width-0 side that vanishes into the wide one, and
    band sums with short and long covers.
    """
    instances = _certificate_pin_instances()
    instances += [dataclasses.replace(inst, shared={}) for inst in instances[:40]]
    instances += [fallback_instance(*key) for key in FALLBACK_CERTIFICATES]
    instances.append(wide_side_sum())
    instances += [
        band_sum_instance(random.Random(f"band-miss-{i}"), 3, 9, 1) for i in range(100)
    ]
    instances += [
        band_sum_instance(random.Random(f"long-{w}-{i}"), 8, 25, w)
        for w in (1, 2)
        for i in range(25)
    ]
    for inst in instances:
        cert = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
        rebuilt = OrderedCliqueCover(cert.graph, cert.cliques)
        assert cert.achieved == cover_width(rebuilt)


def test_row_matches_public_replay(monkeypatch):
    """Rows that share compose's interleave equal a replay through the public calls.

    Seeds 0-3, 200 rows each.  Sides of up to 10 vertices against ccw
    limit 9 give skipped rows, and every seventh instance has its shared
    map dropped, which gives empty-shared rows.
    """
    real = ccwidth.experiment._instance

    def instance(cfg, index):
        inst = real(cfg, index)
        return dataclasses.replace(inst, shared={}) if index % 7 == 3 else inst

    monkeypatch.setattr(ccwidth.experiment, "_instance", instance)
    kinds = Counter()
    for seed in range(4):
        cfg = ExperimentConfig(count=200, seed=seed, n_hi=10)
        for index in range(cfg.count):
            row = _row(cfg, index)
            try:
                inst = instance(cfg, index)
            except ValueError:
                assert row == [""] * 9 + ["skipped"]
                kinds["skipped"] += 1
                continue
            args = (inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
            cert = compose_covers(*args)
            check = edge_span_claim_check(*args)
            claim = "vacuous" if check.vacuous else ("pass" if check.ok else "fail")
            n = cert.graph.n
            ccw = str(ccw_exact(cert.graph).value) if n <= cfg.ccw_limit else ""
            status = "ok" if verify_certificate(cert).ok else "invalid"
            replay = [inst.g1.n, inst.g2.n, len(inst.shared), cert.w1, cert.w2]
            replay += [cert.achieved, cert.bound, ccw, claim, status]
            assert row == [str(x) for x in replay], (seed, index)
            if not inst.shared:
                kinds["empty-shared"] += 1
            elif (cert.w1 == 0) != (cert.w2 == 0):
                kinds["one-side-zero"] += 1
            else:
                kinds["plain"] += 1
    routes = ("skipped", "empty-shared", "one-side-zero", "plain")
    assert min(kinds[route] for route in routes) >= 10


@pytest.mark.parametrize("limit", [9, 16])
def test_ccw_column_is_bracketed_and_exact(limit):
    """The ccw_exact column is ccw_exact's value, within [max(w1, w2), achieved].

    A row decides only the widths between those bounds, so both ends
    must be reached: rows whose value is the lower end below the upper
    one, and rows whose value is below the upper end.
    """
    configs = [
        ExperimentConfig(count=200, seed=seed, ccw_limit=limit) for seed in range(4)
    ]
    configs.append(ExperimentConfig(kind="path-sum", count=4, ccw_limit=limit))
    reached = Counter()
    for cfg in configs:
        for index, row in enumerate(csv.DictReader(io.StringIO(run_experiment(cfg)))):
            if not row["ccw_exact"]:
                continue
            inst = ccwidth.experiment._instance(cfg, index)
            composed = clique_sum(inst.g1, inst.g2, inst.shared)
            value = int(row["ccw_exact"])
            assert value == ccw_exact(composed, limit=limit).value, (cfg, index)
            low = max(int(row["w1"]), int(row["w2"]))
            high = int(row["achieved"])
            assert low <= value <= high, (cfg, index)
            reached["lower end"] += low == value < high
            reached["below upper end"] += value < high
    assert min(reached["lower end"], reached["below upper end"]) >= 10, reached


def test_interleave_layout_digest():
    """Interleave layouts and span checks of the certificate-pin instances."""
    digest = hashlib.sha256()
    for inst in _certificate_pin_instances():
        args = (inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
        layout = ccwidth.composition._interleave(inst.c1, inst.c2, inst.shared)
        digest.update(
            repr((layout.seq, layout.block_start, layout.block_length)).encode()
        )
        digest.update(repr(edge_span_claim_check(*args)).encode())
    assert digest.hexdigest() == LAYOUT_SHA256


def test_bandwidth_witness_digest():
    """Values and lex-min witnesses of 420 seeded graphs, n 6-12."""
    digest = hashlib.sha256()
    for n in range(6, 13):
        for p in (0.2, 0.35, 0.5):
            for i in range(20):
                g = random_graph(n, p, random.Random(f"bw-witness-{n}-{p}-{i}"))
                digest.update(format_bandwidth_result(bandwidth_exact(g)).encode())
    assert digest.hexdigest() == BANDWIDTH_WITNESS_SHA256


def test_bandwidth_reach_digest():
    """Values and lex-min witnesses of 50 seeded graphs, n 13, p 0.15-0.8."""
    digest = hashlib.sha256()
    for p in (0.15, 0.3, 0.5, 0.65, 0.8):
        for i in range(10):
            g = random_graph(13, p, random.Random(f"bw-reach-13-{p}-{i}"))
            result = bandwidth_exact(g, limit=13)
            digest.update(format_bandwidth_result(result).encode())
    assert digest.hexdigest() == BANDWIDTH_REACH_SHA256


@pytest.mark.parametrize("key", list(FALLBACK_CERTIFICATES))
def test_reorder_fallback_certificates(key, monkeypatch):
    expected_achieved, expected_sha = FALLBACK_CERTIFICATES[key]
    insertion = ccwidth.composition._best_insertion
    widths = []

    def spy(*args):
        width, final = insertion(*args)
        widths.append(width)
        return width, final

    monkeypatch.setattr(ccwidth.composition, "_best_insertion", spy)
    inst = fallback_instance(*key)
    cert = compose_covers(inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
    assert len(widths) == 1 and widths[0] > cert.bound
    assert cert.achieved == expected_achieved
    assert hashlib.sha256(format_certificate(cert).encode()).hexdigest() == expected_sha


def _gen_cases():
    """Every ``gen`` kind with ordinary arguments and with each rejected one."""
    cases = [["--kind", "path", "--t", t] for t in ("1", "2", "5", "0", "-3")]
    cases += [["--kind", "path-sum", "--t", t] for t in ("1", "3", "0")]
    cases += [["--kind", "complete", "--n", n] for n in ("0", "1", "4", "-1")]
    cases += [["--kind", "star", "--leaves", k] for k in ("0", "3", "-2")]
    cases += [
        ["--kind", "random", "--n", n, "--p", p, "--seed", s]
        for n, p, s in [
            ("0", "0.5", "0"),
            ("6", "0.3", "0"),
            ("6", "0.3", "1"),
            ("7", "1.0", "2"),
            ("5", "1.5", "0"),
            ("-1", "0.5", "0"),
        ]
    ]
    cases += [["--kind", "random-clique-sum", "--seed", s] for s in ("0", "1", "2")]
    cases += [
        ["--kind", "random-clique-sum", *extra]
        for extra in [
            ["--seed", "4", "--n-min", "2", "--n-max", "5", "--shared-max", "1"],
            ["--seed", "5", "--min-total-width", "0", "--limit-ccw", "12"],
            ["--n-min", "5", "--n-max", "3"],
            ["--n-min", "0"],
            ["--shared-max", "0"],
            ["--n-max", "3", "--min-total-width", "10"],
            ["--n-min", "9", "--n-max", "9", "--limit-ccw", "4"],
        ]
    ]
    return [["gen", *case] for case in cases]


def test_gen_output_digest(capsys):
    """Output, exit code and stderr of ``gen`` over every kind and its errors."""
    digest = hashlib.sha256()
    for argv in _gen_cases():
        code = main(argv)
        out, err = capsys.readouterr()
        digest.update(repr((argv, code, out, err)).encode())
    assert digest.hexdigest() == GEN_OUTPUT_SHA256
