"""Command-line front end.

Commands: ``invariants`` (report rows for input graphs), ``family`` (emit a
constructed family as graph6), ``enumerate`` (emit a sweep as graph6),
``verify`` (run claim checks over a sweep), ``ud`` (UD certificates for
input graphs).  Every command takes ``--output FILE``; ``--format``,
``--workers``, ``--seed`` and ``--verbose`` go only to the commands that read
them (``invariants --format``, ``enumerate --seed``, and all four on
``verify``), so any other option is a usage error.  ``--seed`` overrides the
seed of a ``diam2:`` sweep and is an error on any other sweep.  The
``--output`` file is opened at the first write, so a command that exits 2
before writing leaves an existing file as it was; a file that cannot be
opened is an error (exit 2).

``invariants`` and ``ud`` read each input line by line (an edge list, one
graph, whole), and ``LANE_BLOCK`` graphs at a time.  A window holds each
graph as its order and pair bits ``(n, pairs)`` (``graphs.decode_graph6``;
an edge-list graph's from its rows), and each of its orders becomes one lane
block built from the pairs (``Block.of_pairs``) for the lane kernel
(``lane_reports``) or the lane UD scan (``ud.lane_ud_certificates``), so no
graph6 line of a block becomes a :class:`Graph`; rows on stdout and error
lines on stderr come out in input order.  A graph the kernel reports
disconnected (a None where its report or certificate would be) gets the
per-graph path's error, ``graph is disconnected``, with no second BFS.  A
graph takes the per-graph path (``full_report``, ``find_ud_certificate``),
as a :class:`Graph` built from its pairs, in two cases: it is the only graph
of its order in the window, or its order is 0 or above ``LANE_MAX_N``; a
one-lane block costs more than the per-graph path (P_255's report, K_255's
UD scan).  Only the graphs of order 1..``LANE_MAX_N`` wait for the end of
their window; every other graph and every unreadable line becomes its output
or error line as it is read.
Each row is formatted from a template (``InvariantReport.csv_row`` and
``json_row``, ``UdCertificate.json_row``); a JSON row is the text of
``json.dumps(to_json_dict(), sort_keys=True)``.

Exit codes: 0 success, 1 a claim check found a counterexample, 2 usage or
input error, or stdout closed before the command finished (``distinv ud
FILE | head -1``: one error line, no traceback).  Output is byte-identical
for identical inputs, seed and format, independent of the worker count.

Each command imports the modules it runs in its handler, so ``--version``
loads no other module of the package, and ``invariants`` and ``ud`` load
neither ``sweeps``, ``theorems`` nor ``families``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__


# add_argument keywords of the options only some commands read; each command
# names the ones its handler reads, so no command accepts an option it ignores
_OPTIONS = {
    "--format": {"choices": ("csv", "json"), "default": "csv", "help": "output format"},
    "--workers": {"type": int, "default": 1, "help": "parallel workers"},
    "--seed": {"type": int, "default": None, "help": "seed of a diam2: sweep"},
    "--verbose": {"action": "store_true", "help": "list equality cases on stderr"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distinv",
        description="Exact distance-based graph invariants and claim checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *options):
        p = sub.add_parser(name, help=help)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.add_argument("--output", default=None, help="write output to a file")
        return p

    p = command("invariants", "invariant report per input graph", "--format")
    p.add_argument("files", nargs="*", help="graph6 or edge-list files (default stdin)")

    p = command("family", "emit a graph family")
    p.add_argument("spec", help="e.g. path:7, ak:3, cartesian(path:3,cycle:5)")

    p = command("enumerate", "emit a sweep as graph6", "--seed")
    p.add_argument("sweep", help="e.g. trees:2..12, connected:3..7")

    p = command(
        "verify", "check claims over a sweep",
        "--format", "--workers", "--seed", "--verbose",
    )
    p.add_argument("--sweep", required=True, help="sweep spec")
    p.add_argument(
        "--theorems",
        required=True,
        help="comma-separated claim ids, or all-unary",
    )

    p = command("ud", "UD certificate per input graph")
    p.add_argument("files", nargs="*", help="graph6 or edge-list files (default stdin)")
    return parser


def _read_graphs(files):
    """Yield (source_label, i, (n, pairs) or GraphError) per input graph, with
    ``pairs`` the graph's pair bits in graph6's order and i its payload line
    number (0 for a whole input), reading each input line by line.

    An input whose first payload line has more than one field (an edge
    list's ``n m`` header; graph6 bytes are never whitespace) is one
    edge-list graph, read whole; anything else is one graph6 line per graph.
    """
    from .graphs import GraphError, _pairs_from_rows, decode_graph6, parse_edge_list

    for name in files or ["-"]:
        label = "<stdin>" if name == "-" else name
        try:
            fh = sys.stdin if name == "-" else open(name, "r", encoding="utf-8")
        except OSError as exc:
            yield name, 0, GraphError(str(exc))
            continue
        try:
            lines = (ln for chunk in fh for ln in chunk.splitlines()
                     if ln.strip() and not ln.lstrip().startswith("#"))
            for i, line in enumerate(lines, start=1):
                if i == 1 and len(line.split()) > 1:
                    try:
                        g = parse_edge_list("\n".join([line, *lines]))
                        yield label, 0, (g.n, _pairs_from_rows(g.bits))
                    except GraphError as exc:
                        yield label, 0, exc
                    break
                try:
                    yield label, i, decode_graph6(line)
                except GraphError as exc:
                    yield label, i, exc
        except OSError as exc:
            yield label, 0, GraphError(str(exc))
        finally:
            if fh is not sys.stdin:
                fh.close()


def _per_graph(files, out, compute, block, render) -> int:
    """One output line per input graph; an input or compute error goes to
    stderr, the loop goes on, and the exit code becomes 2.

    The input is read in windows of ``LANE_BLOCK`` items.  A graph of order
    1..``LANE_MAX_N`` waits, as ``(n, pairs)``, for the end of its window,
    where ``block`` maps the ``Block`` of the window's graphs of one order to
    one value each, None for a disconnected graph; every other item is turned
    into its output line or error as it is read, so no larger graph is held.
    ``compute`` takes the graphs of the two per-graph cases in the module
    docstring one by one.
    """
    from .graphs import DisconnectedGraphError, Graph, GraphError, _rows_from_pairs
    from .invariants import LANE_BLOCK, LANE_MAX_N, Block

    disconnected = DisconnectedGraphError("graph is disconnected")

    def line(n, pairs):
        # the output line of one graph on the per-graph path, or its error
        try:
            return render(compute(Graph._raw(n, _rows_from_pairs(n, pairs))))
        except GraphError as exc:
            return exc

    def flush(window, by_order) -> bool:
        # write the window in input order; True when it held an error
        for n, idx in by_order.items():
            if len(idx) < 2:
                continue
            lanes = Block.of_pairs(n, [window[i][2][1] for i in idx])
            for i, value in zip(idx, block(lanes)):
                # None: disconnected, the error all_pairs_distances raises
                window[i][2] = disconnected if value is None else render(value)
        failed = False
        for label, i, item in window:
            if isinstance(item, tuple):
                item = line(*item)
            if isinstance(item, GraphError):
                where = f"{label}:{i}" if i else label
                print(f"error: {where}: {item}", file=sys.stderr)
                failed = True
            else:
                out.write(item + "\n")
        return failed

    failed = False
    window = []  # [label, line number, output line, error or a waiting graph's (n, pairs)]
    by_order = {}  # order -> the window indices of its waiting graphs
    for label, i, item in _read_graphs(files):
        if isinstance(item, tuple):
            if 1 <= item[0] <= LANE_MAX_N:
                by_order.setdefault(item[0], []).append(len(window))
            else:
                item = line(*item)
        window.append([label, i, item])
        if len(window) == LANE_BLOCK:
            failed |= flush(window, by_order)
            window, by_order = [], {}
    if window:
        failed |= flush(window, by_order)
    return 2 if failed else 0


def _cmd_invariants(args, out) -> int:
    from .invariants import CSV_HEADER, InvariantReport, full_report, lane_reports

    render = InvariantReport.json_row
    if args.format == "csv":
        print(CSV_HEADER, file=out)
        render = InvariantReport.csv_row
    return _per_graph(
        args.files, out, full_report, lambda block: lane_reports(block, [()])[1], render
    )


def _cmd_family(args, out) -> int:
    from .families import build_family, parse_family_spec
    from .graphs import emit_graph6

    g = build_family(parse_family_spec(args.spec))
    print(emit_graph6(g), file=out)
    return 0


def _sweep_spec(text, seed):
    # the spec as parsed, with ``--seed`` overriding a diam2: sweep's seed
    import dataclasses

    from .sweeps import SweepError, parse_sweep_spec

    spec = parse_sweep_spec(text)
    if seed is not None:
        if spec.target != "diameter2_graphs":
            raise SweepError(f"--seed applies only to a diam2: sweep, not {text!r}")
        spec = dataclasses.replace(spec, seed=seed)
        spec.validate()
    return spec


def _cmd_enumerate(args, out) -> int:
    from .sweeps import iter_sweep

    for block in iter_sweep(_sweep_spec(args.sweep, args.seed), blocks=True):
        out.write(block.graph6()[0])
    return 0


def _cmd_verify(args, out) -> int:
    import json

    from .theorems import ALL_UNARY_IDS, CHECK_CSV_HEADER, hunt

    spec = _sweep_spec(args.sweep, args.seed)
    token = args.theorems.strip()
    ids = list(ALL_UNARY_IDS) if token == "all-unary" else [
        t.strip() for t in token.split(",") if t.strip()
    ]
    reports = hunt(spec, ids, workers=args.workers)
    if args.format == "csv":
        print(CHECK_CSV_HEADER, file=out)
        for rep in reports:
            print(rep.csv_row(), file=out)
    else:
        print(
            json.dumps([rep.to_json_dict() for rep in reports], sort_keys=True),
            file=out,
        )
    found = False
    for rep in reports:
        for cex in rep.counterexamples:
            found = True
            print(
                f"counterexample {rep.theorem_id} {cex.graph_id} "
                f"{json.dumps(cex.detail, sort_keys=True)}",
                file=sys.stderr,
            )
        if args.verbose and rep.equality_cases:
            print(
                f"equality {rep.theorem_id}: {' '.join(rep.equality_cases)}",
                file=sys.stderr,
            )
    return 1 if found else 0


def _cmd_ud(args, out) -> int:
    from .ud import UdCertificate, find_ud_certificate, lane_ud_certificates

    return _per_graph(
        args.files, out, find_ud_certificate, lane_ud_certificates, UdCertificate.json_row
    )


_COMMANDS = {
    "invariants": _cmd_invariants,
    "family": _cmd_family,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "ud": _cmd_ud,
}


class _OutputError(Exception):
    """The ``--output`` file cannot be opened."""


class _OutputFile:
    """The ``--output`` file, opened (and so truncated) at the first write:
    a command that fails before writing leaves an existing file untouched."""

    def __init__(self, path):
        self._path = path
        self._fh = None

    def write(self, text):
        if self._fh is None:
            try:
                self._fh = open(self._path, "w", encoding="utf-8")
            except OSError as exc:
                raise _OutputError(f"cannot open output file: {exc}") from exc
        return self._fh.write(text)

    def close(self, create: bool) -> None:
        # create: a command that succeeded without printing leaves a file
        if create or self._fh is not None:
            self.write("")
            self._fh.close()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from .graphs import GraphError  # a sweep's, a family's and an input's errors

    out = _OutputFile(args.output) if args.output else sys.stdout
    code = 2
    try:
        try:
            code = _COMMANDS[args.command](args, out)
            sys.stdout.flush()  # a closed stdout raises here, not at exit
        finally:
            if out is not sys.stdout:
                out.close(create=code != 2)
    except (GraphError, _OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except BrokenPipeError:
        # stdout closed early: at os.devnull, it takes the last flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before the command finished", file=sys.stderr)
        code = 2
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
