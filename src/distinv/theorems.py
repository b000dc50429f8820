"""Executable comparison claims and the sweep-driven counterexample hunter.

Every claim in the catalog is a hypothesis -> conclusion predicate over
exact integers; a claim with a tight non-strict bound also reports its
equality cases so "equality iff shape" statements are checked in both
directions.  Claims carry short opaque ids (``P2.1``, ``T2.3``,
``C2.8i``, ...) used by the CLI and the reports.

The unary claims (one graph in, one verdict out) form one table,
``CLAIMS``, keyed by id.  Each :class:`Claim` row is that claim's only
definition:

* ``predicate(g, rep, dist) -> (hypothesis_met, conclusion_held, equality)``
  over the exact :class:`InvariantReport` integers (``conclusion_held`` is
  ``None`` when the hypothesis fails; its docstring is the claim statement).
  Every predicate but L4.1's reads only ``rep`` (and T3.3's its
  complement's W and E1), so :func:`hunt` hands them ``g=None``;
* ``fields``, the report values a verdict's detail carries, named as in
  :meth:`InvariantReport.to_json_dict`;
* for T2.3, T3.3 and L4.1, ``extra(g, rep, dist, hypothesis_met)``, the
  derived values the detail adds (branch, disjunct, gap counts);
* ``gate``, a necessary condition of the hypothesis held as data: terms
  ``(column, op, bound)`` over hypothesis columns only, evaluated by
  ``invariants.lane_reports``.  L4.1, which every graph meets, has none.

:func:`hunt` reads each chunk of a sweep as the lane blocks its generator
makes (``blocks()``, at most ``LANE_BLOCK`` graphs each) through the lane
kernel, which takes every order a sweep makes, evaluates the gates and
builds a report only for a graph some gate selects.  A predicate runs only
where its gate holds, and re-checks its whole hypothesis.  The kernel
decides L4.1.  The complements of the trees T3.3's gate selects are taken
lane-wise from the block's rows and go through the kernel's BFS as one
more block, which yields only their W and E1.  A lane's key is its gate
word, its report and that (W, E1), and a predicate's result is a function
of the key: hunt makes one predicate call per distinct key of a block, and
goes back to the lanes only for a key with a counterexample, an equality
case or an L4.1 bit.  A disconnected graph, and a tree whose complement
decides T3.3 and is disconnected, end the sweep as the per-graph path does,
naming the first lane of the block with that key.  The lanes of a named
key are found by their word, and each one's graph6 is read from the
block's rows (``block.graph6()``).  A lane's :class:`Graph`
(``block.graph(j)``, unpacked from the block only then) is taken only for a
verdict or to name an error, on every sweep target.  A
detailed :class:`TheoremVerdict` is built only for a counterexample, from
the graph's BFS distances (and for T3.3 the complement's
:func:`full_report`).  The public ``check_p21`` ...
``check_l41`` (also ``UNARY_CHECKS``, by id) are thin wrappers that build
one graph's verdict from the same row; ``detail=False`` leaves a verdict's
graph6 id and detail unset.  The pendant and product claims take explicit
extra arguments, are exercised by dedicated generators instead, and their
verdicts always carry the graph6 id and the detail.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import compress
from math import isqrt
from typing import Callable

from .graphs import (
    DisconnectedGraphError,
    GraphError,
    all_pairs_distances,
    complement,
    emit_graph6,
)
from .invariants import (  # LANE_BLOCK, the most graphs a block of hunt holds, is re-exported
    LANE_BLOCK,
    Block,
    InvariantReport,
    Lanes,
    full_report,
    lane_reports,
    lane_wiener_e1,
)
from .sweeps import SweepSpec, fold_sweep, visit_error
from .ud import is_ud_pair, transmission_gap, transmission_gap_equality_set


@dataclass(frozen=True, slots=True)
class TheoremVerdict:
    """One claim applied to one graph (or pair/parameterization)."""

    theorem_id: str
    hypothesis_met: bool
    conclusion_held: bool | None
    equality: bool = False
    graph_id: str | None = None
    detail: dict | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


CHECK_CSV_HEADER = (
    "theorem_id,graphs_visited,hypothesis_hits,counterexamples,equality_cases"
)


@dataclass(frozen=True, slots=True)
class CheckReport:
    """Aggregated verdicts of one claim over one sweep."""

    theorem_id: str
    graphs_visited: int
    hypothesis_hits: int
    counterexamples: tuple[TheoremVerdict, ...] = field(default=())
    equality_cases: tuple[str, ...] = field(default=())

    def csv_row(self) -> str:
        return (
            f"{self.theorem_id},{self.graphs_visited},{self.hypothesis_hits},"
            f"{len(self.counterexamples)},{len(self.equality_cases)}"
        )

    def to_json_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "graphs_visited": self.graphs_visited,
            "hypothesis_hits": self.hypothesis_hits,
            "counterexample_count": len(self.counterexamples),
            "counterexamples": [v.to_json_dict() for v in self.counterexamples],
            "equality_count": len(self.equality_cases),
            "equality_cases": list(self.equality_cases),
        }


def _prep(g, rep, dist):
    if dist is None:
        dist = all_pairs_distances(g)
    if rep is None:
        rep = full_report(g, dist)
    return rep, dist


def _gid(*graphs):
    # a verdict's graph id: the graph6 of each graph, space separated
    return " ".join(map(emit_graph6, graphs))


@dataclass(frozen=True, slots=True)
class Claim:
    """One row of the unary claim table (see the module docstring); hunt
    calls its predicate once per distinct key of a block."""

    theorem_id: str
    predicate: Callable
    fields: tuple[str, ...]
    extra: Callable | None = None
    gate: tuple = ()

    def verdict(self, g, rep, dist, result, detail=True) -> TheoremVerdict:
        """The verdict on ``g`` from the predicate's ``result`` triple."""
        hyp, held, eq = result
        if not detail:
            return TheoremVerdict(self.theorem_id, hyp, held, eq)
        row = rep.to_json_dict()
        info = {key: row[key] for key in self.fields}
        if self.extra is not None:
            info.update(self.extra(g, rep, dist, hyp))
        return TheoremVerdict(self.theorem_id, hyp, held, eq, _gid(g), info)


_UNMET = (False, None, False)


def _is_cycle(rep: InvariantReport) -> bool:
    # asked only of a self-centered graph, and inputs are connected: a leaf
    # v with neighbour u has ecc(v) = ecc(u) + 1 when n >= 3, so every
    # degree is at least 2, and with m = n every degree is 2
    return rep.n >= 3 and rep.m == rep.n


def _is_tree(rep: InvariantReport) -> bool:
    # inputs are connected, so the edge count settles it
    return rep.m == rep.n - 1


def _gprime_edge_count(rep: InvariantReport) -> int:
    # edges inside the non-universal part, by subtracting the edge classes
    # incident to universal vertices
    np_ = rep.n_universal
    return rep.m - np_ * (np_ - 1) // 2 - np_ * (rep.n - np_)


# ---------------------------------------------------------------------------
# unary claims


def _p21(g, rep, dist):
    """Self-centered non-complete: E2 >= E1, equality exactly on cycles."""
    if not rep.self_centered or rep.m == rep.n * (rep.n - 1) // 2:
        return _UNMET
    eq = rep.e2 == rep.e1
    return True, rep.e2 >= rep.e1 and eq == _is_cycle(rep), eq


def _c22(g, rep, dist):
    """Self-centered with diameter 2: E2 >= E1, equality exactly on the
    4- and 5-cycles."""
    if not rep.self_centered or rep.diam != 2:
        return _UNMET
    eq = rep.e2 == rep.e1
    return True, rep.e2 >= rep.e1 and eq == (_is_cycle(rep) and rep.n in (4, 5)), eq


def _t23_branch(rep):
    np_ = rep.n_universal
    if np_ >= 3:
        return "i"
    x = _gprime_edge_count(rep)
    if np_ == 2 and x > 0:
        return "ii"
    if np_ == 1 and 4 * x > 2 * rep.n - 1:
        return "iii"
    return "otherwise"


def _t23(g, rep, dist):
    """Non-self-centered diameter-2 classification of E1 vs E2.

    E1 < E2 exactly when (i) n' >= 3, or (ii) n' = 2 with an edge among the
    non-universal vertices, or (iii) n' = 1 with avd(G') > 1 + 1/(2(n-1));
    otherwise E1 > E2.  The difference must also satisfy
    E2 - E1 = 2(n'-2)(n-n') + n'(n'-3)/2 + 4x with x the non-universal edge
    count, and a tie is never allowed.
    """
    n = rep.n
    if rep.diam != 2 or rep.self_centered or n < 3:
        return _UNMET
    np_ = rep.n_universal
    e1, e2 = rep.e1, rep.e2
    predicted = e1 > e2 if _t23_branch(rep) == "otherwise" else e1 < e2
    identity = 2 * (e2 - e1) == 4 * (np_ - 2) * (n - np_) + np_ * (
        np_ - 3
    ) + 8 * _gprime_edge_count(rep)
    return True, predicted and e1 != e2 and identity, False


def _t23_detail(g, rep, dist, hyp):
    return {"branch": _t23_branch(rep) if hyp else None}


def _p24(g, rep, dist):
    """Diameter 2: W = n(n-1) - m."""
    if rep.diam != 2 or rep.n < 3:
        return _UNMET
    return True, rep.wiener == rep.n * (rep.n - 1) - rep.m, False


def _t25(g, rep, dist):
    """Diameter 2 with n >= 9: W > E1."""
    if rep.diam != 2 or rep.n < 9:
        return _UNMET
    return True, rep.wiener > rep.e1, False


def _p26(g, rep, dist):
    """Self-centered diameter 2: W > E1 iff m < n(n-5), and
    W > E2 iff m < n(n-1)/5."""
    if not rep.self_centered or rep.diam != 2:
        return _UNMET
    n, m, w = rep.n, rep.m, rep.wiener
    return True, (w > rep.e1) == (m < n * (n - 5)) and (w > rep.e2) == (
        5 * m < n * (n - 1)
    ), False


def _t27(g, rep, dist):
    """Diameter 2 with more than (n-1)/2 universal vertices: E2 > W."""
    if rep.diam != 2 or rep.n < 3 or 2 * rep.n_universal <= rep.n - 1:
        return _UNMET
    return True, rep.e2 > rep.wiener, False


def _c28_margin(rep):
    # None outside the C2.8 gate (diameter 2, 0 < n' <= (n-1)/2); else the
    # sign of avd(G') - (2/5)(n-1-2n'), cross-multiplied as
    # 5x - (n-n')(n-1-2n')
    np_ = rep.n_universal
    if rep.diam != 2 or rep.n < 3 or np_ == 0 or 2 * np_ > rep.n - 1:
        return None
    return 5 * _gprime_edge_count(rep) - (rep.n - np_) * (rep.n - 1 - 2 * np_)


def _c28i(g, rep, dist):
    """Diameter 2, 0 < n' <= (n-1)/2, avd(G') above (2/5)(n-1-2n'): E2 > W."""
    margin = _c28_margin(rep)
    if margin is None or margin <= 0:
        return _UNMET
    return True, rep.e2 > rep.wiener, False


def _c28ii(g, rep, dist):
    """Diameter 2, 0 < n' <= (n-1)/2, avd(G') below (2/5)(n-1-2n'): E2 < W."""
    margin = _c28_margin(rep)
    if margin is None or margin >= 0:
        return _UNMET
    return True, rep.e2 < rep.wiener, False


def _t31(g, rep, dist):
    """Trees with d(d-1) <= n-1: E2 <= W, equality only for the 3-path."""
    d = rep.diam
    if not _is_tree(rep) or rep.n < 3 or d * (d - 1) > rep.n - 1:
        return _UNMET
    eq = rep.e2 == rep.wiener
    return True, rep.e2 <= rep.wiener and eq == (rep.n == 3 and d == 2), eq


def _t32(g, rep, dist):
    """Trees with n > 3 and 3*diam >= 2n: W < E1."""
    if not _is_tree(rep) or rep.n <= 3 or 3 * rep.diam < 2 * rep.n:
        return _UNMET
    return True, rep.wiener < rep.e1, False


def _t33_disjunct(rep):
    # None outside T3.3's hypothesis (a tree with n > 8); else the disjunct
    # that decides it: "tree" when the tree has W > E1, else "complement"
    if not _is_tree(rep) or rep.n <= 8:
        return None
    return "tree" if rep.wiener > rep.e1 else "complement"


def _t33(g, rep, dist, comp=None):
    """Trees with n > 8: W > E1 holds for the tree or for its complement.

    hunt hands ``g=None`` and ``comp``, the complement's (W, E1) or None."""
    disjunct = _t33_disjunct(rep)
    if disjunct is None:
        return _UNMET
    if disjunct == "tree":
        return True, True, False
    if comp is None:
        if g is None:
            raise DisconnectedGraphError("graph is disconnected")
        crep = full_report(complement(g))
        comp = crep.wiener, crep.e1
    return True, comp[0] > comp[1], False


def _t33_detail(g, rep, dist, hyp):
    disjunct = _t33_disjunct(rep)
    if disjunct is None:
        return {}
    if disjunct == "tree":
        return {"disjunct": "tree"}
    crep = full_report(complement(g))
    return {"disjunct": "complement", "W_comp": crep.wiener, "E1_comp": crep.e1}


def _l41(g, rep, dist):
    """Every vertex satisfies totecc - ecc(v) >= Tr(v), with equality exactly
    when all other vertices' eccentricities equal their distance from v."""
    gaps = [transmission_gap(dist, v, rep.total_ecc) for v in range(rep.n)]
    zero = sum(1 << v for v, gap in enumerate(gaps) if gap == 0)
    held = min(gaps) >= 0 and zero == transmission_gap_equality_set(dist.far)
    return True, held, zero != 0


def _l41_detail(g, rep, dist, hyp):
    gaps = [transmission_gap(dist, v, rep.total_ecc) for v in range(rep.n)]
    return {"min_gap": min(gaps), "zero_gap_vertices": gaps.count(0)}


# gate terms (see the module docstring); inputs are connected, so a tree is
# a graph with m = n - 1
_DIAM2 = ("diam", "==", 2)
_SELF_CENTERED = ("self_centered", "==", 1)
_TREE = ("m", "==", lambda n: n - 1)
_C28_GATE = (_DIAM2, ("nprime", ">=", 1), ("nprime", "<=", lambda n: (n - 1) // 2))

CLAIMS = {
    c.theorem_id: c
    for c in (
        Claim("P2.1", _p21, ("n", "m", "E1", "E2"),
              gate=(_SELF_CENTERED, ("m", "!=", lambda n: n * (n - 1) // 2))),
        Claim("C2.2", _c22, ("n", "m", "E1", "E2"), gate=(_SELF_CENTERED, _DIAM2)),
        Claim("T2.3", _t23, ("n", "m", "nprime", "E1", "E2"), _t23_detail,
              gate=(_DIAM2, ("self_centered", "==", 0))),
        Claim("P2.4", _p24, ("n", "m", "W"), gate=(_DIAM2,)),
        Claim("T2.5", _t25, ("n", "W", "E1"), gate=(_DIAM2, ("n", ">=", 9))),
        Claim("P2.6", _p26, ("n", "m", "W", "E1", "E2"), gate=(_SELF_CENTERED, _DIAM2)),
        Claim("T2.7", _t27, ("n", "nprime", "W", "E2"),
              gate=(_DIAM2, ("nprime", ">=", lambda n: (n - 1) // 2 + 1))),
        Claim("C2.8i", _c28i, ("n", "nprime", "W", "E2"), gate=_C28_GATE),
        Claim("C2.8ii", _c28ii, ("n", "nprime", "W", "E2"), gate=_C28_GATE),
        # d(d - 1) <= n - 1 exactly when d <= (1 + sqrt(4n - 3)) / 2
        Claim("T3.1", _t31, ("n", "diam", "W", "E2"),
              gate=(_TREE, ("n", ">=", 3), ("diam", "<=", lambda n: (1 + isqrt(4 * n - 3)) // 2))),
        Claim("T3.2", _t32, ("n", "diam", "W", "E1"),
              gate=(_TREE, ("n", ">=", 4), ("diam", ">=", lambda n: (2 * n + 2) // 3))),
        Claim("T3.3", _t33, ("n", "W", "E1"), _t33_detail, gate=(_TREE, ("n", ">=", 9))),
        Claim("L4.1", _l41, ("n",), _l41_detail),
    )
}

ALL_UNARY_IDS = tuple(CLAIMS)


def _checker(claim: Claim):
    def check(g, rep=None, dist=None, detail=True):
        rep, dist = _prep(g, rep, dist)
        return claim.verdict(g, rep, dist, claim.predicate(g, rep, dist), detail)

    check.__name__ = check.__qualname__ = "check_" + claim.theorem_id.lower().replace(
        ".", ""
    )
    check.__doc__ = claim.predicate.__doc__
    return check


UNARY_CHECKS = {tid: _checker(claim) for tid, claim in CLAIMS.items()}

check_p21 = UNARY_CHECKS["P2.1"]
check_c22 = UNARY_CHECKS["C2.2"]
check_t23 = UNARY_CHECKS["T2.3"]
check_p24 = UNARY_CHECKS["P2.4"]
check_t25 = UNARY_CHECKS["T2.5"]
check_p26 = UNARY_CHECKS["P2.6"]
check_t27 = UNARY_CHECKS["T2.7"]
check_c28i = UNARY_CHECKS["C2.8i"]
check_c28ii = UNARY_CHECKS["C2.8ii"]
check_t31 = UNARY_CHECKS["T3.1"]
check_t32 = UNARY_CHECKS["T3.2"]
check_t33 = UNARY_CHECKS["T3.3"]
check_l41 = UNARY_CHECKS["L4.1"]


# ---------------------------------------------------------------------------
# pendant-growth claims


def _pendant_growth_rate(d: int) -> int:
    # the quadratic margin 2d^2 + 9d + 6 that gates pendant growth
    return 2 * d * d + 9 * d + 6


def check_t42(g, u, v, rep=None, dist=None):
    """UD pair with 2d^2+9d+6 >= n and E1 > W: attaching one pendant at each
    pair vertex preserves E1 > W, and the exact growth bookkeeping
    (E1 grows by 2*totecc + n + 2(d+2)^2, W by Tr(u)+Tr(v)+2n+d+2) holds."""
    rep, dist = _prep(g, rep, dist)
    hyp, concl, info = _t42(g, u, v, rep, dist, None)
    return TheoremVerdict("T4.2", hyp, concl, False, _gid(g), info)


def _t42(g, u, v, rep, dist, grep):
    # check_t42's (hypothesis, conclusion, detail), given the grown graph's
    # report, or None to build it if gated
    n = rep.n
    d = rep.diam
    ud = is_ud_pair(g, dist, u, v)
    hyp = ud and _pendant_growth_rate(d) >= n and rep.e1 > rep.wiener
    concl = None
    info = {"n": n, "diam": d, "ud_pair": ud, "E1": rep.e1, "W": rep.wiener}
    if hyp:
        if grep is None:
            from .families import attach_pendants_at

            grep = full_report(attach_pendants_at(g, u, v))
        e1_expected = rep.e1 + 2 * rep.total_ecc + n + 2 * (d + 2) ** 2
        w_expected = rep.wiener + dist.tr[u] + dist.tr[v] + 2 * n + d + 2
        identities = grep.e1 == e1_expected and grep.wiener == w_expected
        concl = grep.e1 > grep.wiener and identities
        info.update(E1_grown=grep.e1, W_grown=grep.wiener,
                    E1_expected=e1_expected, W_expected=w_expected)
    return hyp, concl, info


def check_t43(g, u, v, rep=None, dist=None):
    """UD pair with m >= n+2d+4, min degree >= 2 and E2 > E1: the pendant
    growth preserves E2 > E1, and E2 grows by exactly
    2(d+2)(d+1) + m + xic."""
    rep, dist = _prep(g, rep, dist)
    n = rep.n
    d = rep.diam
    ud = is_ud_pair(g, dist, u, v)
    hyp = (
        ud
        and rep.m >= n + 2 * d + 4
        and g.min_degree() >= 2
        and rep.e2 > rep.e1
    )
    concl = None
    info = {"n": n, "m": rep.m, "diam": d, "ud_pair": ud, "E1": rep.e1, "E2": rep.e2}
    if hyp:
        from .families import attach_pendants_at

        grep = full_report(attach_pendants_at(g, u, v))
        e2_expected = 2 * (d + 2) * (d + 1) + rep.e2 + rep.m + rep.ecc_connectivity
        concl = grep.e2 > grep.e1 and grep.e2 == e2_expected
        info.update(E1_grown=grep.e1, E2_grown=grep.e2, E2_expected=e2_expected)
    return TheoremVerdict("T4.3", hyp, concl, False, _gid(g), info)


def check_c44(g, u, v, length, rep=None, dist=None):
    """UD pair with 2(d+2L-2)^2+9(d+2L-2)+6 >= n+2L-2 and E1 > W: attaching a
    pendant path of length L at each pair vertex preserves E1 > W.

    Also cross-checks the L-fold single-pendant iteration: the iterated
    graph must equal the direct construction, and every iteration step whose
    own gate holds must preserve the inequality.
    """
    if length < 1:
        raise GraphError(f"pendant path length must be >= 1, got {length}")
    rep, dist = _prep(g, rep, dist)
    n = rep.n
    d = rep.diam
    ud = is_ud_pair(g, dist, u, v)
    shifted = d + 2 * length - 2
    hyp = ud and _pendant_growth_rate(shifted) >= n + 2 * length - 2 and (
        rep.e1 > rep.wiener
    )
    concl = None
    info = {"n": n, "diam": d, "length": length, "ud_pair": ud}
    if hyp:
        from .families import attach_pendant_paths_at, attach_pendants_at

        grown = attach_pendant_paths_at(g, u, v, length)
        # each step's grown graph is the next step's input: one BFS per graph
        cur, cu, cv, crep, cdist = g, u, v, rep, dist
        steps_gated = 0
        steps_ok = True
        for _ in range(length):
            nxt = attach_pendants_at(cur, cu, cv)
            nrep, ndist = _prep(nxt, None, None)
            step_hyp, step_held, _ = _t42(cur, cu, cv, crep, cdist, nrep)
            if step_hyp:
                steps_gated += 1
                steps_ok = steps_ok and bool(step_held)
            cur, cu, cv, crep, cdist = nxt, nxt.n - 2, nxt.n - 1, nrep, ndist
        grep = crep if cur == grown else full_report(grown)
        concl = grep.e1 > grep.wiener and cur == grown and steps_ok
        info.update(E1_grown=grep.e1, W_grown=grep.wiener, steps_gated=steps_gated)
    return TheoremVerdict("C4.4", hyp, concl, False, _gid(g), info)


# ---------------------------------------------------------------------------
# product claims


def _product_report(g, h):
    """The box product's report, refused above 10^4 vertices."""
    if g.n * h.n > 10**4:
        raise GraphError("product too large to verify by direct BFS")
    from .families import cartesian_product

    return full_report(cartesian_product(g, h))


def check_product_identities(g, h):
    """Closed forms on the box product against direct BFS:
    E1 = n(H)E1(G) + n(G)E1(H) + 2 totecc(G) totecc(H),
    E2 = m(H)E1(G) + n(H)E2(G) + m(G)E1(H) + n(G)E2(H)
         + totecc(G)xic(H) + totecc(H)xic(G),
    W  = n(H)^2 W(G) + n(G)^2 W(H)."""
    rp = _product_report(g, h)
    rg = full_report(g)
    rh = full_report(h)
    e1_expected = h.n * rg.e1 + g.n * rh.e1 + 2 * rg.total_ecc * rh.total_ecc
    e2_expected = (
        rh.m * rg.e1
        + h.n * rg.e2
        + rg.m * rh.e1
        + g.n * rh.e2
        + rg.total_ecc * rh.ecc_connectivity
        + rh.total_ecc * rg.ecc_connectivity
    )
    w_expected = h.n * h.n * rg.wiener + g.n * g.n * rh.wiener
    concl = (
        rp.e1 == e1_expected and rp.e2 == e2_expected and rp.wiener == w_expected
    )
    info = {"E1": rp.e1, "E1_expected": e1_expected, "E2": rp.e2,
            "E2_expected": e2_expected, "W": rp.wiener, "W_expected": w_expected}
    return TheoremVerdict("L5.1/L5.3", True, concl, False, _gid(g, h), info)


def check_t52(g, h):
    """Factors with W >= E1 and a factor of order > 2: the box product
    satisfies W > E1 strictly."""
    rg = full_report(g)
    rh = full_report(h)
    hyp = rg.wiener >= rg.e1 and rh.wiener >= rh.e1 and max(g.n, h.n) > 2
    concl = info = None
    if hyp:
        rp = _product_report(g, h)
        concl = rp.wiener > rp.e1
        info = {"W": rp.wiener, "E1": rp.e1}
    return TheoremVerdict("T5.2", hyp, concl, False, _gid(g, h), info)


def check_t54(g, h):
    """Factors with W >= max(E1, E2) and average transmission above
    4*d_G^2*d_H (resp. 4*d_H^2*d_G): the box product satisfies W > E2."""
    rg = full_report(g)
    rh = full_report(h)
    dg, dh = rg.diam, rh.diam
    # avt(X) = 2W/n compared exactly: 2W > 4 d^2 d' n  <=>  W > 2 d^2 d' n
    hyp = (
        rg.wiener >= rg.e1
        and rg.wiener >= rg.e2
        and rh.wiener >= rh.e1
        and rh.wiener >= rh.e2
        and rg.wiener > 2 * dg * dg * dh * g.n
        and rh.wiener > 2 * dh * dh * dg * h.n
    )
    concl = info = None
    if hyp:
        rp = _product_report(g, h)
        concl = rp.wiener > rp.e2
        info = {"W": rp.wiener, "E2": rp.e2}
    return TheoremVerdict("T5.4", hyp, concl, False, _gid(g, h), info)


# ---------------------------------------------------------------------------
# the hunter


def _t33_complements(block, words, bit):
    """The complement's (W, E1) of each tree of a block whose word has T3.3's
    gate ``bit``, and None for a disconnected complement and for every other
    lane.  The complements are taken lane-wise from the block's rows: row u
    of a gated lane's complement is every vertex but u and u's tree
    neighbours, and the other lanes are empty.  They go through the
    kernel's BFS as one block, which yields only their W and E1."""
    n, k = block.n, block.k
    lanes = Lanes(n, k)
    keep = (lanes.pack(words) >> bit.bit_length() - 1 & lanes.ones) * ((1 << n) - 1)
    if not keep:
        return [None] * k
    rows = [keep & ~(row | lanes.ones << u) for u, row in enumerate(block.rows)]
    return lane_wiener_e1(Block(n, k, rows))


def hunt(spec: SweepSpec, theorem_ids, *, workers: int = 1) -> list[CheckReport]:
    """Run the named unary claims over a sweep; one report per claim.

    A counterexample is not an error here: it lands in the report with the
    offending graph6 string and full detail, and the caller decides.  An
    error raised on a graph becomes ``SweepVisitError`` naming that graph.
    """
    ids = list(theorem_ids)
    if not ids:
        raise GraphError("no theorem ids given")
    for tid in ids:
        if tid not in CLAIMS:
            raise GraphError(f"unknown or non-unary theorem id {tid!r}")
    claims = [CLAIMS[tid] for tid in ids]
    # bit j of a lane's word is the gate of gated[j], the next two bits
    # L4.1's failure and equality, which the kernel decides, and the bit
    # after them a disconnected graph
    gated = [tid for tid in dict.fromkeys(ids) if tid != "L4.1"]
    gates = [CLAIMS[tid].gate for tid in gated]
    bits = {tid: 1 << j for j, tid in enumerate(gated)}
    l41 = [i for i, tid in enumerate(ids) if tid == "L4.1"]
    # L4.1's bits are read only when it is asked for
    failed, equal = (1 << len(gated), 2 << len(gated)) if l41 else (0, 0)
    disconnected = 4 << len(gated)
    t33 = bits.get("T3.3")
    plans = {}

    def plan(word):
        # (index, predicate, is T3.3) of each claim the word's gates select
        if word not in plans:
            plans[word] = [
                (i, claim.predicate, tid == "T3.3")
                for i, (tid, claim) in enumerate(zip(ids, claims))
                if word & bits.get(tid, 0)
            ]
        return plans[word]

    def zero():
        # per claim: hypothesis hits, counterexample verdicts, equality graph6
        return [0] * len(ids), [[] for _ in ids], [set() for _ in ids]

    def fold(acc, stream):
        hits = acc[0]
        for block in stream.blocks():
            words, reports = lane_reports(block, gates)
            for i in l41:
                hits[i] += block.k
            comps = _t33_complements(block, words, t33) if t33 else [None] * block.k
            named = {}  # the results of each key that a verdict or an equality case names
            # every result is a function of the lane's key: one predicate
            # call per claim per distinct key, in order of first occurrence
            for key, count in Counter(zip(words, reports, comps)).items():
                word, rep, comp = key
                if not word:
                    continue
                try:
                    if word & disconnected:
                        raise DisconnectedGraphError("graph is disconnected")
                    results = [
                        (i, predicate(None, rep, None, comp) if is_t33 else predicate(None, rep, None))
                        for i, predicate, is_t33 in plan(word)
                    ]
                except Exception as exc:
                    # name the key's first lane, the one a lane-by-lane pass
                    # would have failed on first
                    j = list(zip(words, reports, comps)).index(key)
                    raise visit_error(block.graph(j), exc) from exc
                names = word & (failed | equal)
                for i, (hyp, held, eq) in results:
                    if hyp:
                        hits[i] += count
                        names = names or not held
                    names = names or eq
                if names:  # with L4.1's results, read from the word
                    l41s = [(i, (True, not word & failed, word & equal != 0)) for i in l41]
                    named[key] = results + l41s
            if not named:
                continue
            # one pass in lane order over the lanes of a named word: each
            # lane's graph6 is a record of the block's, and its Graph is
            # built only for a verdict
            named_words = {word for word, _, _ in named}
            text, size = block.graph6()
            for j in compress(range(block.k), map(named_words.__contains__, words)):
                rep = reports[j]
                try:
                    for i, result in named.get((words[j], rep, comps[j]), ()):
                        if result[0] and not result[1]:
                            g = block.graph(j)
                            rep, dist = _prep(g, rep, None)
                            acc[1][i].append(claims[i].verdict(g, rep, dist, result))
                        if result[2]:
                            acc[2][i].add(text[j * size : (j + 1) * size - 1])
                except Exception as exc:
                    raise visit_error(block.graph(j), exc) from exc
        return acc

    def combine(a, b):
        for i in range(len(ids)):
            a[0][i] += b[0][i]
            a[1][i].extend(b[1][i])
            a[2][i] |= b[2][i]
        return a

    (hits, cexs, eqs), summary = fold_sweep(spec, fold, combine, zero, workers=workers)
    return [
        CheckReport(
            theorem_id=tid,
            graphs_visited=summary.visited,
            hypothesis_hits=hits[i],
            counterexamples=tuple(sorted(cexs[i], key=lambda v: v.graph_id)),
            equality_cases=tuple(sorted(eqs[i])),
        )
        for i, tid in enumerate(ids)
    ]
