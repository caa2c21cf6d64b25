"""The three benchmark workloads and the checks on their answers.

Each workload draws every input from the benchmark seed and the op
index, so each op of a run gets its own input.  ``op`` is the untraced
operation; ``traced_op`` makes the same public calls, each one through
``trace.call(layer_name, fn, ...)`` so that a tracer can put a span
around it, and reports counts through ``trace.count``.
``check`` and ``check_traced`` run outside the timed region and return
a list of problems (empty when the answer is correct).

Every solver limit is passed explicitly (bandwidth 12, ccw 9), so a
change of the library's defaults does not silently change a workload.
"""

from __future__ import annotations

import csv
import io
import random
from itertools import combinations
from math import ceil
from typing import NamedTuple

from tracing import UNTRACED

BW_LIMIT = 12
CCW_LIMIT = 9


def _maxdeg(g) -> int:
    return max((g.degree(v) for v in range(g.n)), default=0)


def _claimed_bound(w1: int, w2: int, shared_size: int) -> int:
    """The composition bound as the README states it, re-derived here."""
    if shared_size == 0:
        return max(w1, w2)
    if w1 + w2 == 0:
        return 1
    return (3 * (w1 + w2) + 1) // 2


class Experiment:
    """One op is one corpus row of ``run_experiment``.

    About 94% of a row is exact ccw: the generator's two side solves and
    the solve of the composed graph; composition is the rest.
    """

    name = "experiment"
    # p99 rests on the 25 or so rows of a run whose composed graph is
    # densest, and spread by 0.12 over ten seeds; p95 by about 0.05.
    tail_pct = 95.0
    setup_repeats = 5
    # Fixed so that a change of ExperimentConfig's defaults does not
    # change the workload.
    PARAMS = dict(n_lo=3, n_hi=8, shared_max=3, p_lo=0.2, p_hi=0.8, min_total_width=1)

    def setup(self, lib, seed: int) -> None:
        self.lib = lib
        self.seed = seed

    def make_input(self, i: int) -> int:
        return self.seed * 1_000_000 + i

    def op(self, row_seed: int) -> str:
        lib = self.lib
        cfg = lib.ExperimentConfig(
            kind="random-clique-sum", count=1, seed=row_seed, ccw_limit=CCW_LIMIT,
            **self.PARAMS,
        )
        return lib.run_experiment(cfg)

    def traced_op(self, trace, row_seed: int):
        """Rebuild the row through the public calls the experiment makes.

        Returns the CSV text and the composed graph (None when skipped).
        """
        lib = self.lib
        # The seed string the experiment runner uses for row 0 of a run.
        rng = random.Random(f"ccwidth-experiment-{row_seed}-0")
        try:
            inst = trace.call(
                "generators.random_clique_sum_instance",
                lib.random_clique_sum_instance, rng, ccw_limit=CCW_LIMIT, **self.PARAMS,
            )
            args = (inst.g1, inst.c1, inst.g2, inst.c2, inst.shared)
            cert = trace.call("composition.compose_covers", lib.compose_covers, *args)
        except ValueError:
            row = [""] * (len(lib.CSV_HEADER) - 1) + ["skipped"]
            return _csv_text(lib.CSV_HEADER, row), None
        trace.count("composition.compose_covers.cliques", len(cert.cliques))
        check = trace.call(
            "composition.edge_span_claim_check", lib.edge_span_claim_check, *args
        )
        claim = "vacuous" if check.vacuous else ("pass" if check.ok else "fail")
        ccw = ""
        if cert.graph.n <= CCW_LIMIT:
            solved = trace.call(
                "solvers.ccw_exact", lib.ccw_exact, cert.graph, limit=CCW_LIMIT
            )
            ccw = str(solved.value)
            trace.count("experiment.ccw_filled_rows")
        ok = trace.call("composition.verify_certificate", lib.verify_certificate, cert).ok
        row = [
            inst.g1.n, inst.g2.n, len(inst.shared), cert.w1, cert.w2,
            cert.achieved, cert.bound, ccw, claim, "ok" if ok else "invalid",
        ]
        return _csv_text(lib.CSV_HEADER, [str(x) for x in row]), cert.graph

    def check(self, row_seed: int, out: str) -> list[str]:
        return self.check_traced(row_seed, self.traced_op(UNTRACED, row_seed), out)

    def check_traced(self, row_seed: int, traced, out: str) -> list[str]:
        text, composed = traced
        if text != out:
            return [f"row seed {row_seed}: replayed row {text!r} != written row {out!r}"]
        f = dict(zip(self.lib.CSV_HEADER, out.splitlines()[1].split(",")))
        if f["status"] != "ok":
            return [f"row seed {row_seed}: status {f['status']}"]
        problems = []
        w1, w2, achieved, bound = (int(f[k]) for k in ("w1", "w2", "achieved", "bound"))
        if f["claim_check"] == "fail":
            problems.append(f"row seed {row_seed}: edge-span claim failed")
        if achieved > bound:
            problems.append(f"row seed {row_seed}: achieved {achieved} > bound {bound}")
        if bound != _claimed_bound(w1, w2, int(f["shared_size"])):
            problems.append(f"row seed {row_seed}: bound {bound} does not follow from w1, w2")
        if f["ccw_exact"]:
            ccw, s = int(f["ccw_exact"]), self.lib.star_number(composed)
            if not ceil(s / 2) - 1 <= ccw <= achieved:
                problems.append(
                    f"row seed {row_seed}: ccw {ccw} outside [ceil({s}/2)-1, {achieved}]"
                )
        return problems


def _csv_text(header, row) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerow(row)
    return buf.getvalue()


class Bandwidth:
    """One op is exact bandwidth, clique number and star number of one graph.

    Graphs have 10 to 12 vertices, above the ccw limit, so bandwidth is
    the only exact width; ops cycle through the (n, p) cells below.
    """

    name = "bandwidth"
    tail_pct = 90.0
    setup_repeats = 5
    # Denser graphs (p 0.65 and 0.8) are left out: at n = 12 one of them
    # can take 1-2.7 s, and their heavy tail kept a run of this length
    # from measuring throughput or tail latency steadily.  So is the cell
    # (12, 0.5): about one graph in a hundred there takes 0.3-1 s, and
    # that cell alone held 90% of the variance of op time, enough to make
    # ops per second spread by a sixth from seed to seed.
    CELLS = [(n, p) for n in (10, 11, 12) for p in (0.2, 0.35, 0.5) if (n, p) != (12, 0.5)]

    def setup(self, lib, seed: int) -> None:
        self.lib = lib
        self.seed = seed

    def make_input(self, i: int):
        n, p = self.CELLS[i % len(self.CELLS)]
        rng = random.Random(f"perfbench-bandwidth-{self.seed}-{i}")
        return self.lib.random_graph(n, p, rng)

    def op(self, g):
        return self.traced_op(UNTRACED, g)

    def traced_op(self, trace, g):
        lib = self.lib
        bw = trace.call("solvers.bandwidth_exact", lib.bandwidth_exact, g, limit=BW_LIMIT)
        omega = trace.call("graph.clique_number", lib.clique_number, g)
        star = trace.call("graph.star_number", lib.star_number, g)
        return bw.value, bw.witness.order, omega, star

    def check(self, g, out) -> list[str]:
        value, order, omega, star = out
        problems = []
        if self.lib.ordering_width(g, order) != value:
            problems.append(f"{g}: witness width differs from bandwidth {value}")
        if value < ceil(_maxdeg(g) / 2):
            problems.append(f"{g}: bandwidth {value} below ceil(maxdeg/2)")
        if not (g.edge_count == 0 or 2 <= omega <= g.n) or star > _maxdeg(g):
            problems.append(f"{g}: clique number {omega} or star number {star} out of range")
        return problems

    def check_traced(self, g, traced, out) -> list[str]:
        if traced != out:
            return [f"{g}: traced answer {traced} != untraced answer {out}"]
        return self.check(g, traced)


class CertifyInput(NamedTuple):
    texts: list[str]  # edge list and cover of side 1, then of side 2
    shared: dict[int, int]
    graphs: list  # the two relabelled side graphs the texts were written from
    widths: tuple[int, int]  # cover widths solved in set-up


class Certify:
    """One op is the ``compose --instance`` plus ``verify`` path.

    Set-up solves optimal covers for a fixed grid of random side graphs
    (n 4..9, p 0.15..0.6), so all solver work lands there.  Op i glues
    two of those sides, drawn at random, along a random shared clique of
    size up to SHARED_MAX (picked as the instance generator picks one),
    relabels both sides by random permutations and writes them as
    edge-list and cover text, outside the timed region.  Every op thus
    gets its own instance, and the tail of op time rests on many side
    pairs rather than on a few large instances.
    """

    name = "certify"
    tail_pct = 99.0
    setup_repeats = 2
    # A grid rather than random draws keeps the set-up's solver work
    # from swinging with the seed.
    SIDE_GRID = [
        (n, p) for n in range(4, 10) for p in (0.15, 0.24, 0.33, 0.42, 0.51, 0.6)
    ]
    SIDES_PER_CELL = 5
    SHARED_MAX = 4

    def setup(self, lib, seed: int) -> None:
        self.lib = lib
        self.seed = seed
        self.sides = []  # (graph, solved cover, its width, cliques by size)
        for j in range(self.SIDES_PER_CELL):
            for n, p in self.SIDE_GRID:
                rng = random.Random(f"perfbench-certify-{seed}-{n}-{p}-{j}")
                g = lib.random_graph(n, p, rng)
                c = lib.ccw_exact(g, limit=CCW_LIMIT).witness
                cliques = [
                    [q for q in combinations(range(n), k) if lib.is_clique(g, q)]
                    for k in range(self.SHARED_MAX + 1)
                ]
                self.sides.append((g, c, lib.cover_width(c), cliques))

    def make_input(self, i: int) -> CertifyInput:
        lib = self.lib
        rng = random.Random(f"perfbench-certify-{self.seed}-op-{i}")
        (g1, c1, w1, q1), (g2, c2, w2, q2) = rng.choice(self.sides), rng.choice(self.sides)
        k = rng.randint(1, min(self.SHARED_MAX, g1.n, g2.n))
        while not (q1[k] and q2[k]):
            k -= 1
        side2 = list(rng.choice(q2[k]))
        rng.shuffle(side2)
        glue = zip(rng.choice(q1[k]), side2)
        texts, graphs, perms = [], [], []
        for g, c in ((g1, c1), (g2, c2)):
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabelled = lib.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            texts.append(lib.format_edge_list(relabelled))
            texts.append(lib.format_cover([[perm[v] for v in cl] for cl in c.cliques]))
            graphs.append(relabelled)
            perms.append(perm)
        shared = {perms[0][u]: perms[1][v] for u, v in glue}
        return CertifyInput(texts, shared, graphs, (w1, w2))

    def op(self, inp: CertifyInput):
        return self.traced_op(UNTRACED, inp)

    def traced_op(self, trace, inp: CertifyInput):
        lib = self.lib
        g1_text, c1_text, g2_text, c2_text = inp.texts
        g1 = trace.call("graph.parse_edge_list", lib.parse_edge_list, g1_text)
        c1 = trace.call("layout.parse_cover", lib.parse_cover, c1_text, g1)
        g2 = trace.call("graph.parse_edge_list", lib.parse_edge_list, g2_text)
        c2 = trace.call("layout.parse_cover", lib.parse_cover, c2_text, g2)
        args = (g1, c1, g2, c2, inp.shared)
        cert = trace.call("composition.compose_covers", lib.compose_covers, *args)
        trace.count("composition.compose_covers.cliques", len(cert.cliques))
        claim = trace.call(
            "composition.edge_span_claim_check", lib.edge_span_claim_check, *args
        )
        text = trace.call("composition.format_certificate", lib.format_certificate, cert)
        parsed = trace.call("composition.parse_certificate", lib.parse_certificate, text)
        verdict = trace.call("composition.verify_certificate", lib.verify_certificate, parsed)
        return (c1, c2), cert, claim, text, parsed, verdict

    def check(self, inp: CertifyInput, out) -> list[str]:
        lib = self.lib
        (c1, c2), cert, claim, text, parsed, verdict = out
        g1, g2 = inp.graphs
        w1, w2 = inp.widths
        problems = []
        if (c1.graph, c2.graph) != (g1, g2):
            problems.append("graphs read back from text differ from the written ones")
        if not verdict.ok:
            problems.append(f"certificate read back from text fails: {verdict.reason}")
        if not lib.verify_certificate(cert).ok:
            problems.append("certificate fails verification before the text round trip")
        fields = ("graph", "cliques", "w1", "w2", "bound", "achieved")
        if any(getattr(parsed, f) != getattr(cert, f) for f in fields):
            problems.append("certificate changed in the text round trip")
        if cert.graph != lib.clique_sum(g1, g2, inp.shared):
            problems.append("certificate graph is not the clique sum of the inputs")
        widths = (cert.w1, cert.w2)
        if widths != (lib.cover_width(c1), lib.cover_width(c2)) or widths != (w1, w2):
            problems.append(f"widths {widths} are not the input widths {w1}, {w2}")
        if cert.bound != _claimed_bound(w1, w2, len(inp.shared)):
            problems.append(f"bound {cert.bound} does not follow from w1 {w1}, w2 {w2}")
        if cert.achieved > cert.bound:
            problems.append(f"achieved {cert.achieved} > bound {cert.bound}")
        if not claim.ok:
            problems.append(f"edge-span claim failed: {claim}")
        return problems

    def check_traced(self, inp: CertifyInput, traced, out) -> list[str]:
        if traced[3] != out[3]:
            return ["traced and untraced certificates differ"]
        return self.check(inp, traced)


WORKLOADS = {w.name: w for w in (Experiment, Bandwidth, Certify)}
