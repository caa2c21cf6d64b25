"""Seeded experiment runner producing stable CSV reports.

Each row records one clique-sum instance: side sizes, shared-set size,
input cover widths, the achieved and claimed composition widths, the
exact clique cover width of the composed graph when it is within the
solver limit (blank otherwise), and the edge-span check outcome.  The
header and column order are part of the contract; a fixed seed yields a
byte-identical file.

The exact width is :func:`ccw_exact`'s value, but a row decides only
the widths from max(w1, w2) up to below the verified ``achieved``,
bounds it already holds (see ``_row``).
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

from .composition import compose_covers, edge_span_claim_check, verify_certificate
from .generators import (
    CliqueSumInstance,
    path_sum_instance,
    random_clique_sum_instance,
)
from .graph import MAX_VERTICES
from .solvers import DEFAULT_CCW_LIMIT, _least_width_cover, ccw_exact

CSV_HEADER = [
    "n1",
    "n2",
    "shared_size",
    "w1",
    "w2",
    "achieved",
    "bound",
    "ccw_exact",
    "claim_check",
    "status",
]

EXPERIMENT_KINDS = ("random-clique-sum", "path-sum")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment run; validated on construction."""

    kind: str = "random-clique-sum"
    count: int = 200
    seed: int = 0
    n_lo: int = 3
    n_hi: int = 8
    shared_max: int = 3
    p_lo: float = 0.2
    p_hi: float = 0.8
    min_total_width: int = 1
    t_start: int = 1
    ccw_limit: int = DEFAULT_CCW_LIMIT

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment kind {self.kind!r}; "
                f"expected one of {EXPERIMENT_KINDS}"
            )
        if self.count < 1:
            raise ValueError(f"instance count must be >= 1, got {self.count}")
        if not 1 <= self.n_lo <= self.n_hi:
            raise ValueError(f"bad side size range [{self.n_lo}, {self.n_hi}]")
        if self.n_hi > MAX_VERTICES:
            raise ValueError(
                f"side size range [{self.n_lo}, {self.n_hi}] asks for "
                f"{self.n_hi} vertices; at most {MAX_VERTICES} vertices allowed"
            )
        if self.shared_max < 1:
            raise ValueError("shared clique size must be at least 1")
        if self.t_start < 1:
            raise ValueError("path half-length must start at >= 1")


def _instance(cfg: ExperimentConfig, index: int) -> CliqueSumInstance:
    if cfg.kind == "path-sum":
        return path_sum_instance(cfg.t_start + index)
    rng = random.Random(f"ccwidth-experiment-{cfg.seed}-{index}")
    return random_clique_sum_instance(
        rng,
        n_lo=cfg.n_lo,
        n_hi=cfg.n_hi,
        shared_max=cfg.shared_max,
        p_lo=cfg.p_lo,
        p_hi=cfg.p_hi,
        min_total_width=cfg.min_total_width,
        ccw_limit=cfg.ccw_limit,
    )


def _row(cfg: ExperimentConfig, index: int) -> list[str]:
    try:
        inst = _instance(cfg, index)
    except ValueError:
        return [""] * (len(CSV_HEADER) - 1) + ["skipped"]
    args = (inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
    cert = compose_covers(*args)
    check = edge_span_claim_check(*args)  # reuses the compose's interleave
    if check.vacuous:
        claim = "vacuous"
    else:
        claim = "pass" if check.ok else "fail"
    composed = cert.graph
    verified = verify_certificate(cert).ok
    if composed.n > cfg.ccw_limit:
        ccw_value = ""
    elif verified:
        # Both instance kinds take their side covers from ccw_exact, so w1
        # and w2 are the sides' ccw.  The sides are induced subgraphs of
        # the sum, on which ccw cannot grow, so ccw >= max(w1, w2); the
        # verified cover shows ccw <= achieved.
        low = max(cert.w1, cert.w2)
        value, _ = _least_width_cover(composed._bits, False, low, cert.achieved)
        ccw_value = str(value)
    else:
        ccw_value = str(ccw_exact(composed, limit=cfg.ccw_limit).value)
    status = "ok" if verified else "invalid"
    return [
        str(inst.g1.n),
        str(inst.g2.n),
        str(len(inst.shared)),
        str(cert.w1),
        str(cert.w2),
        str(cert.achieved),
        str(cert.bound),
        ccw_value,
        claim,
        status,
    ]


def run_experiment(cfg: ExperimentConfig) -> str:
    """Run the configured corpus and return the CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for index in range(cfg.count):
        writer.writerow(_row(cfg, index))
    return buf.getvalue()
