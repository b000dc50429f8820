"""Deterministic constructors for named graph families.

Vertex numbering conventions are fixed so that emitted graph6 output is
reproducible: paths and cycles use consecutive edges, the star center is
vertex 0, products index ``(i, j)`` as ``i * n(h) + j``, and pendant
constructions append new vertices after the existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import MAX_INPUT_ORDER, Graph, GraphError, from_edge_list
from .invariants import full_report


class FamilyError(GraphError):
    """Invalid family parameters or an unparsable family spec."""


def path(n: int) -> Graph:
    if n < 1:
        raise FamilyError(f"path needs n >= 1, got {n}")
    rows = [0] * n
    for v in range(n - 1):
        rows[v] |= 1 << (v + 1)
        rows[v + 1] |= 1 << v
    return Graph._raw(n, rows)


def cycle(n: int) -> Graph:
    if n < 3:
        raise FamilyError(f"cycle needs n >= 3, got {n}")
    rows = [0] * n
    for v in range(n):
        w = (v + 1) % n
        rows[v] |= 1 << w
        rows[w] |= 1 << v
    return Graph._raw(n, rows)


def complete(n: int) -> Graph:
    if n < 1:
        raise FamilyError(f"complete needs n >= 1, got {n}")
    full = (1 << n) - 1
    return Graph._raw(n, [full ^ (1 << v) for v in range(n)])


def star(n: int) -> Graph:
    """Star on n vertices (one center, n-1 leaves), center = vertex 0."""
    if n < 2:
        raise FamilyError(f"star needs n >= 2, got {n}")
    rows = [((1 << n) - 1) ^ 1] + [1] * (n - 1)
    return Graph._raw(n, rows)


def double_star(a: int, b: int) -> Graph:
    """Two adjacent centers (0 and 1) carrying a and b leaves."""
    if a < 1 or b < 1:
        raise FamilyError(f"double star needs a, b >= 1, got ({a},{b})")
    n = a + b + 2
    edges = [(0, 1)]
    edges += [(0, k) for k in range(2, 2 + a)]
    edges += [(1, k) for k in range(2 + a, n)]
    return from_edge_list(n, edges)


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube: bitstring vertices, edges at Hamming
    distance 1."""
    if not 1 <= d <= 20:
        raise FamilyError(f"hypercube needs 1 <= d <= 20, got {d}")
    n = 1 << d
    rows = [0] * n
    for v in range(n):
        rows[v] = sum(1 << (v ^ (1 << i)) for i in range(d))
    return Graph._raw(n, rows)


def a_k(k: int) -> Graph:
    """C4 with k pendant vertices on each of two opposite cycle vertices.

    Cycle vertices are 0..3 with the pendants attached at 0 and 2; pendants
    on 0 are 4..3+k, pendants on 2 are 4+k..3+2k.
    """
    if k < 1:
        raise FamilyError(f"a_k needs k >= 1, got {k}")
    n = 4 + 2 * k
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    edges += [(0, 4 + i) for i in range(k)]
    edges += [(2, 4 + k + i) for i in range(k)]
    return from_edge_list(n, edges)


def figure1() -> Graph:
    """The 16-vertex fixture: a 12-vertex path 0..11 plus four gadget
    vertices 12..15 hanging off it; diameter 11 is realized by (0, 11)."""
    edges = [(i, i + 1) for i in range(11)]
    edges += [(1, 12), (2, 12), (3, 12)]
    edges += [(4, 13), (5, 13), (6, 13)]
    edges += [(7, 14), (8, 14), (9, 14)]
    edges += [(10, 15), (11, 15)]
    return from_edge_list(16, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (i, j) gets index i * n(h) + j."""
    ng, nh = g.n, h.n
    n = ng * nh
    rows = [0] * n
    for i in range(ng):
        base = i * nh
        gb = g.bits[i]
        for j in range(nh):
            row = 0
            hb = h.bits[j]
            while hb:
                low = hb & -hb
                row |= 1 << (base + low.bit_length() - 1)
                hb ^= low
            gb2 = gb
            while gb2:
                low = gb2 & -gb2
                row |= 1 << ((low.bit_length() - 1) * nh + j)
                gb2 ^= low
            rows[base + j] = row
    return Graph._raw(n, rows)


def attach_pendants_at(g: Graph, u: int, v: int) -> Graph:
    """Add one pendant vertex to u and one to v (new indices n and n+1)."""
    if u == v:
        raise FamilyError("pendant anchors must be distinct")
    n = g.n
    if not (0 <= u < n and 0 <= v < n):
        raise FamilyError(f"anchors ({u},{v}) out of range for n={n}")
    rows = list(g.bits) + [1 << u, 1 << v]
    rows[u] |= 1 << n
    rows[v] |= 1 << (n + 1)
    return Graph._raw(n + 2, rows)


def attach_pendant_paths_at(g: Graph, u: int, v: int, length: int) -> Graph:
    """Attach a pendant path of the given length to each of u and v.

    Vertex n+2i joins u (n+2i-2 when i > 0) and n+2i+1 joins v (n+2i-1):
    the numbering of the length-fold :func:`attach_pendants_at` on the tips.
    """
    if length < 1:
        raise FamilyError(f"pendant path length must be >= 1, got {length}")
    n = g.n
    if u == v:
        raise FamilyError("pendant anchors must be distinct")
    if not (0 <= u < n and 0 <= v < n):
        raise FamilyError(f"anchors ({u},{v}) out of range for n={n}")
    rows = list(g.bits) + [0] * (2 * length)
    for x in range(n, n + 2 * length):
        tip = x - 2 if x >= n + 2 else (u, v)[x - n]
        rows[x] |= 1 << tip
        rows[tip] |= 1 << x
    return Graph._raw(n + 2 * length, rows)


def thm29_construction(n: int, n_prime: int) -> Graph:
    """Diameter-2 graph with exactly ``n_prime`` universal vertices and
    E2 > W.

    Vertices 0..n_prime-1 are universal; the rest induce a complete graph
    minus a set of removed edges covering every one of them (a perfect
    matching when the part is even, a near-perfect matching plus one extra
    edge at the leftover vertex when odd), which keeps them all non-universal
    while the universal part holds the diameter at 2.  The three stated
    postconditions are verified before returning.
    """
    if n < 3 or not 0 < n_prime <= n - 2:
        raise FamilyError(f"need n >= 3 and 0 < n' <= n-2, got (n={n}, n'={n_prime})")
    s = n - n_prime
    full = (1 << n) - 1
    rows = [full ^ (1 << v) for v in range(n)]
    part = list(range(n_prime, n))

    def drop(a: int, b: int) -> None:
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a

    for i in range(0, s - 1, 2):
        drop(part[i], part[i + 1])
    if s % 2:
        drop(part[s - 1], part[0])
    g = Graph._raw(n, rows)

    rep = full_report(g)
    if rep.n_universal != n_prime or rep.diam != 2:
        raise FamilyError(
            f"construction broke its contract: n'={rep.n_universal}, diam={rep.diam}"
        )
    if rep.e2 <= rep.wiener:
        raise FamilyError("construction broke its contract: E2 <= W")
    return g


# kind -> (constructor, arity, order of the graph it builds); an order may
# read anything for parameters its constructor rejects
_SIMPLE_KINDS = {
    "path": (path, 1, lambda n: n),
    "cycle": (cycle, 1, lambda n: n),
    "complete": (complete, 1, lambda n: n),
    "star": (star, 1, lambda n: n),
    "double_star": (double_star, 2, lambda a, b: a + b + 2),
    "hypercube": (hypercube, 1, lambda d: 1 << d if 0 <= d <= 20 else 0),
    "ak": (a_k, 1, lambda k: 4 + 2 * k),
}

_MAX_DEPTH = 4


@dataclass(frozen=True, slots=True)
class FamilySpec:
    """Parsed textual family description (kind, integer params, operands)."""

    kind: str
    params: tuple[int, ...] = ()
    operands: tuple["FamilySpec", ...] = field(default=())

    def __str__(self) -> str:
        if self.operands:
            inner = ",".join(str(op) for op in self.operands)
            tail = "".join(f",l={p}" for p in self.params)
            return f"{self.kind}({inner}{tail})"
        if self.kind == "thm29":
            return f"thm29:n={self.params[0]},np={self.params[1]}"
        if self.params:
            return f"{self.kind}:{','.join(str(p) for p in self.params)}"
        return self.kind


def _split_top_level(text: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FamilyError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise FamilyError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return parts


def parse_family_spec(text: str, _depth: int = 0) -> FamilySpec:
    """Parse forms like ``path:7``, ``cartesian(path:3,cycle:5)``,
    ``pendant_ud(ak:1,l=2)``, ``thm29:n=10,np=1``."""
    if _depth > _MAX_DEPTH:
        raise FamilyError("family spec nested too deeply")
    text = text.strip()
    if not text:
        raise FamilyError("empty family spec")
    if "(" in text:
        name, _, rest = text.partition("(")
        name = name.strip()
        if not rest.endswith(")"):
            raise FamilyError(f"unbalanced parentheses in {text!r}")
        args = _split_top_level(rest[:-1])
        operands = []
        params = []
        for arg in args:
            arg = arg.strip()
            if arg.startswith("l="):
                params.append(_parse_int(arg[2:], text))
            else:
                operands.append(parse_family_spec(arg, _depth + 1))
        if name == "cartesian":
            if len(operands) != 2 or params:
                raise FamilyError("cartesian takes exactly two operand specs")
            return FamilySpec("cartesian", (), tuple(operands))
        if name in ("pendant_ud", "pendant_path_ud"):
            if len(operands) != 1 or len(params) > 1:
                raise FamilyError(f"{name} takes one operand and an optional l=")
            length = params[0] if params else 1
            return FamilySpec("pendant_ud", (length,), tuple(operands))
        raise FamilyError(f"unknown family kind {name!r}")
    name, _, rest = text.partition(":")
    name = name.strip()
    if name == "figure1":
        if rest:
            raise FamilyError("figure1 takes no parameters")
        return FamilySpec("figure1")
    if name == "thm29":
        kv = dict()
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key in kv:
                raise FamilyError(f"repeated key {key!r} in family spec {text!r}")
            kv[key] = _parse_int(val, text)
        if set(kv) != {"n", "np"}:
            raise FamilyError("thm29 takes n= and np=")
        return FamilySpec("thm29", (kv["n"], kv["np"]))
    if name in _SIMPLE_KINDS:
        _, arity, _ = _SIMPLE_KINDS[name]
        params = tuple(_parse_int(p, text) for p in rest.split(",")) if rest else ()
        if len(params) != arity:
            raise FamilyError(f"{name} takes {arity} integer parameter(s)")
        return FamilySpec(name, params)
    raise FamilyError(f"unknown family kind {name!r}")


def _parse_int(text: str, context: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise FamilyError(f"bad integer {text!r} in family spec {context!r}") from None


def family_order(spec: FamilySpec) -> int:
    """The order of the graph a parsed spec describes, without building it."""
    if spec.kind in _SIMPLE_KINDS:
        _, _, order = _SIMPLE_KINDS[spec.kind]
        return order(*spec.params)
    if spec.kind == "figure1":
        return 16
    if spec.kind == "thm29":
        return spec.params[0]
    if spec.kind == "cartesian":
        # below 0 only for parameters the constructor rejects
        a, b = (max(family_order(op), 0) for op in spec.operands)
        return a * b
    if spec.kind == "pendant_ud":
        return family_order(spec.operands[0]) + 2 * spec.params[0]
    raise FamilyError(f"unknown family kind {spec.kind!r}")


def build_family(spec: FamilySpec) -> Graph:
    """Construct the graph a parsed spec describes.

    A spec whose graph would have more than ``MAX_INPUT_ORDER`` vertices,
    the largest order the graph parsers read back, is refused before
    anything is built.
    """
    n = family_order(spec)
    if n > MAX_INPUT_ORDER:
        raise FamilyError(
            f"family {spec} has {n} vertices, above the bound of {MAX_INPUT_ORDER}"
        )
    if spec.kind in _SIMPLE_KINDS:
        fn, _, _ = _SIMPLE_KINDS[spec.kind]
        return fn(*spec.params)
    if spec.kind == "figure1":
        return figure1()
    if spec.kind == "thm29":
        return thm29_construction(*spec.params)
    if spec.kind == "cartesian":
        return cartesian_product(
            build_family(spec.operands[0]), build_family(spec.operands[1])
        )
    if spec.kind == "pendant_ud":
        from .ud import find_ud_certificate

        base = build_family(spec.operands[0])
        cert = find_ud_certificate(base)
        if not cert.is_ud or cert.pair is None:
            raise FamilyError("pendant_ud operand is not universally diametrical")
        u, v = cert.pair
        return attach_pendant_paths_at(base, u, v, spec.params[0])
    raise FamilyError(f"unknown family kind {spec.kind!r}")
