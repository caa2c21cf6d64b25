"""Command-line interface.

Subcommands: gen, bw, ccw, star, compose, verify, check-chain,
experiment.  Graphs travel in the edge-list text format ("n m" then one
"u v" line per edge), covers in the cover block format, certificates in
the certificate format; "-" means standard input.  Exit status is 0 on
success or a passing check, nonzero otherwise with the reason on
stderr.
"""

from __future__ import annotations

import argparse
import random
import sys

from .composition import (
    compose_covers,
    edge_span_claim_check,
    format_certificate,
    parse_certificate,
    verify_certificate,
)
from .experiment import EXPERIMENT_KINDS, ExperimentConfig, run_experiment
from .generators import (
    CliqueSumInstance,
    complete_graph,
    path_graph,
    path_sum_instance,
    random_clique_sum_instance,
    random_graph,
    star_graph,
)
from .graph import (
    MAX_VERTICES,
    Graph,
    LineReader,
    format_edge_list,
    parse_edge_list,
    read_edge_list,
    star_number,
)
from .layout import OrderedCliqueCover, format_cover, parse_cover, read_cover
from .solvers import (
    DEFAULT_BW_LIMIT,
    DEFAULT_CCW_LIMIT,
    bandwidth_exact,
    ccw_exact,
    check_inequality_chain,
    format_bandwidth_result,
    format_ccw_result,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _read_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _parse_shared(text: str) -> dict[int, int]:
    """Parse a shared-vertex map like "0=3,1=4" (g1 vertex = g2 vertex)."""
    mapping: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            u, v = map(int, part.split("="))
        except ValueError:
            raise ValueError(f"bad shared map entry {part!r}; expected 'u=v'")
        if u in mapping:
            raise ValueError(f"shared map lists side-1 vertex {u} twice")
        mapping[u] = v
    return mapping


def _format_instance(inst: CliqueSumInstance) -> str:
    shared_lines = "".join(
        f"{u} {v}\n" for u, v in sorted(inst.shared.items())
    )
    return (
        format_edge_list(inst.g1)
        + format_cover(inst.c1.cliques)
        + format_edge_list(inst.g2)
        + format_cover(inst.c2.cliques)
        + f"shared {len(inst.shared)}\n"
        + shared_lines
    )


def _parse_instance(text: str) -> CliqueSumInstance:
    """Read the instance bundle written by :func:`_format_instance`."""
    r = LineReader(text, "instance bundle")
    g1 = read_edge_list(r)
    c1 = OrderedCliqueCover(g1, read_cover(r))
    g2 = read_edge_list(r)
    c2 = OrderedCliqueCover(g2, read_cover(r))
    shared: dict[int, int] = {}
    for _ in range(r.expect("shared")):
        u, v = r.ints(2)
        if u in shared:
            raise r.error(f"side-1 vertex {u} is already shared")
        shared[u] = v
    return CliqueSumInstance(g1=g1, c1=c1, g2=g2, c2=c2, shared=shared)


def _cmd_gen(args) -> int:
    size = {  # vertices per graph of each size-driven kind, before any is built
        "path": 2 * args.t + 1,
        "path-sum": 2 * args.t + 1,
        "complete": args.n,
        "random": args.n,
        "star": args.leaves + 1,
    }.get(args.kind, 0)
    if size > MAX_VERTICES:
        raise ValueError(
            f"--kind {args.kind} asks for {size} vertices; "
            f"at most {MAX_VERTICES} vertices allowed"
        )
    if args.kind == "path":
        if args.t < 1:
            raise ValueError("path half-length t must be >= 1")
        result = path_graph(2 * args.t + 1)
    elif args.kind == "complete":
        result = complete_graph(args.n)
    elif args.kind == "star":
        result = star_graph(args.leaves)
    elif args.kind == "random":
        rng = random.Random(f"ccwidth-random-{args.seed}")
        result = random_graph(args.n, args.p, rng)
    elif args.kind == "path-sum":
        result = path_sum_instance(args.t)
    else:
        rng = random.Random(f"ccwidth-instance-{args.seed}")
        result = random_clique_sum_instance(
            rng,
            n_lo=args.n_min,
            n_hi=args.n_max,
            shared_max=args.shared_max,
            min_total_width=args.min_total_width,
            ccw_limit=args.limit_ccw,
        )
    if isinstance(result, Graph):
        _write_text(args.out, format_edge_list(result))
    else:
        _write_text(args.out, _format_instance(result))
    return 0


def _cmd_bw(args) -> int:
    g = _read_graph(args.graph)
    result = bandwidth_exact(g, limit=args.limit_bw)
    _write_text(args.out, format_bandwidth_result(result))
    return 0


def _cmd_ccw(args) -> int:
    g = _read_graph(args.graph)
    result = ccw_exact(g, limit=args.limit_ccw)
    _write_text(args.out, format_ccw_result(result))
    return 0


def _cmd_star(args) -> int:
    g = _read_graph(args.graph)
    _write_text(args.out, f"value {star_number(g)}\n")
    return 0


def _cmd_compose(args) -> int:
    if args.instance:
        inst = _parse_instance(_read_text(args.instance))
        g1, c1, g2, c2, shared = inst.g1, inst.c1, inst.g2, inst.c2, inst.shared
    else:
        if not (args.graph1 and args.graph2 and args.shared):
            print(
                "compose needs either --instance or --graph1/--graph2/--shared",
                file=sys.stderr,
            )
            return 2
        g1 = _read_graph(args.graph1)
        g2 = _read_graph(args.graph2)
        shared = _parse_shared(args.shared)
        if args.cover1:
            c1 = parse_cover(_read_text(args.cover1), g1)
        else:
            c1 = ccw_exact(g1, limit=args.limit_ccw).witness
        if args.cover2:
            c2 = parse_cover(_read_text(args.cover2), g2)
        else:
            c2 = ccw_exact(g2, limit=args.limit_ccw).witness
    cert = compose_covers(g1, c1, g2, c2, shared)
    _write_text(args.out, format_certificate(cert))
    if args.check_claim:
        check = edge_span_claim_check(g1, c1, g2, c2, shared)
        if not check.ok:
            print(f"edge span check failed: {check}", file=sys.stderr)
            return 1
    return 0


def _cmd_verify(args) -> int:
    cert = parse_certificate(_read_text(args.certificate))
    check = verify_certificate(cert)
    if check.ok:
        print(f"ok: achieved {cert.achieved} <= bound {cert.bound}")
        return 0
    print(f"invalid certificate: {check.reason}", file=sys.stderr)
    return 1


def _cmd_check_chain(args) -> int:
    g = _read_graph(args.graph)
    report = check_inequality_chain(
        g, bw_limit=args.limit_bw, ccw_limit=args.limit_ccw
    )
    for line in report.lines():
        print(line)
    return 0 if report.all_pass else 1


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig(
        kind=args.kind,
        count=args.count,
        seed=args.seed,
        n_lo=args.n_min,
        n_hi=args.n_max,
        shared_max=args.shared_max,
        min_total_width=args.min_total_width,
        t_start=args.t_start,
        ccw_limit=args.limit_ccw,
    )
    _write_text(args.out, run_experiment(cfg))
    return 0


_LIMITS = {
    "bw": (DEFAULT_BW_LIMIT, "bandwidth"),
    "ccw": (DEFAULT_CCW_LIMIT, "clique cover width"),
}


def _add_limits(parser: argparse.ArgumentParser, *solvers: str) -> None:
    """Add ``--limit-<solver>`` for each exact solver the subcommand runs."""
    for solver in solvers:
        default, name = _LIMITS[solver]
        parser.add_argument(
            f"--limit-{solver}",
            type=int,
            default=default,
            help=f"{name} solver size limit (default %(default)s)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccwidth",
        description="Exact clique cover width, bandwidth, and clique-sum "
        "composition certificates for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph or clique-sum instance")
    p.add_argument(
        "--kind",
        required=True,
        choices=["path", "complete", "star", "random", "path-sum", "random-clique-sum"],
    )
    p.add_argument("--t", type=int, default=1, help="path half-length")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--leaves", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--shared-max", type=int, default=3)
    p.add_argument("--min-total-width", type=int, default=1)
    _add_limits(p, "ccw")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bw", help="exact bandwidth with witness ordering")
    p.add_argument("graph", help="edge-list file or - for stdin")
    _add_limits(p, "bw")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bw)

    p = sub.add_parser("ccw", help="exact clique cover width with witness cover")
    p.add_argument("graph")
    _add_limits(p, "ccw")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ccw)

    p = sub.add_parser("star", help="induced star number")
    p.add_argument("graph")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("compose", help="compose covers into a width certificate")
    p.add_argument("--instance", help="instance bundle file (from gen)")
    p.add_argument("--graph1")
    p.add_argument("--cover1", help="cover file; omitted = exact witness")
    p.add_argument("--graph2")
    p.add_argument("--cover2")
    p.add_argument("--shared", help="vertex map like '0=3,1=4'")
    p.add_argument("--check-claim", action="store_true")
    _add_limits(p, "ccw")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("verify", help="verify a width certificate file")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-chain", help="check the width inequality chain")
    p.add_argument("graph")
    _add_limits(p, "bw", "ccw")
    p.set_defaults(func=_cmd_check_chain)

    p = sub.add_parser("experiment", help="run a seeded corpus, emit CSV")
    p.add_argument("--kind", default="random-clique-sum", choices=EXPERIMENT_KINDS)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--shared-max", type=int, default=3)
    p.add_argument("--min-total-width", type=int, default=1)
    p.add_argument("--t-start", type=int, default=1)
    _add_limits(p, "ccw")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input, or a path it cannot use
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
