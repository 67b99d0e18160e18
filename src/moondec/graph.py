"""Relation graphs between catalog q-series.

An edge src -> dst with labels (d, r) records src(q^r) = f(dst(q)) with
deg f = d.  Building runs the relation search over every ordered catalog
pair whose area quotient is a natural number; refinement repeatedly splits
edges whose f decomposes as g o h, introducing the intermediate series
h(dst(q)) (re-indexed through its power support) as a new node, until every
edge is degree-wise unsplittable.

Catalog format: one JSON record per line with fields ``name`` (text
without '"', backslash, control characters or line breaks),
``area`` (rational text "p" or "p/q"), ``coeffs`` (array of rational text,
index k = coefficient of q^k).  The 1/q term is implicit and must not be
listed; an optional ``lead`` field (default "1") exists only so that
documents claiming a different principal part are rejected explicitly.
Blank lines and lines starting with '#' are ignored.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from moondec.bivariate import PolyOverPoly
from moondec.decompose import decompose_one_level
from moondec.errors import (
    CatalogParseError,
    DuplicateNameError,
    IdenticalPowersError,
    InsufficientPrecisionError,
    MoondecError,
    NonMonicPrincipalPartError,
    UnknownNodeError,
    VerificationFailureError,
)
from moondec.parsing import parse_ratfun
from moondec.polynomials import Poly, combine
from moondec.ratfun import RatFun, compose, ratfun_text, unit, unit_inverse
from moondec.relations import _diff_series, degree_from_areas, find_relation
from moondec.series import (
    ZERO_SERIES,
    GeneralLaurent,
    QSeries,
    combine_powers,
    eval_ratfun_at_series,
    power_support,
    series_powers,
)

# ASCII digits only: \d and int() also take '٣' and the other Nd digits
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
# '"', backslash, the C0 and C1 controls and the Unicode line breaks
_BAD_NAME_RE = re.compile(r'["\\\x00-\x1f\x7f-\x9f\u2028\u2029]')


def _parse_rational(text, lineno) -> int | Fraction:
    """An int for an integer literal, a Fraction for p/q."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise CatalogParseError(f"not a rational literal: {text!r}", lineno)
    try:
        return Fraction(text) if "/" in text else int(text)
    except ZeroDivisionError:
        raise CatalogParseError(f"zero denominator: {text!r}", lineno) from None
    except ValueError as exc:  # more digits than int() accepts
        raise CatalogParseError(str(exc), lineno) from None


def _parse_coeffs(value, lineno) -> list[int | Fraction]:
    """_parse_rational of each entry.  A list of strings made of ASCII
    digits and '-' only is read in bulk by int(), which takes exactly the
    literals -?[0-9]+ among such strings; any other list is read entry by
    entry, and its first bad entry raises its error."""
    if not isinstance(value, list):
        raise CatalogParseError("coeffs must be an array", lineno)
    try:
        if not "".join(value).encode("ascii").translate(None, b"0123456789-"):
            return list(map(int, value))
    except (TypeError, ValueError):  # non-strings, non-ASCII, bad literals
        pass
    return [_parse_rational(c, lineno) for c in value]


def _parse_name(value, field, lineno) -> str:
    """A name that DOT quotes and one-line output carry verbatim."""
    if not isinstance(value, str) or not value or _BAD_NAME_RE.search(value):
        raise CatalogParseError(f"{field} must be a nonempty string without "
                                "quotes, backslashes or control characters, "
                                f"got {value!r}", lineno)
    return value


def _parse_count(value, field, lineno) -> int:
    if type(value) is not int or value < 1:
        raise CatalogParseError(
            f"{field} must be a positive integer, got {value!r}", lineno)
    return value


def _check_fields(rec, required, optional, lineno):
    missing = required - rec.keys()
    if missing:
        raise CatalogParseError(f"missing fields {sorted(missing)}", lineno)
    unknown = rec.keys() - required - optional
    if unknown:
        raise CatalogParseError(f"unknown fields {sorted(unknown)}", lineno)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    area: int | Fraction
    series: QSeries


@dataclass(frozen=True)
class GraphNode:
    name: str
    series: QSeries
    origin: str  # "catalog" or "synthetic"


@dataclass(frozen=True)
class GraphEdge:
    src: str
    dst: str
    degree: int
    power: int
    fun: RatFun


@dataclass(frozen=True)
class RelationGraph:
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]

    def node(self, name: str) -> GraphNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise UnknownNodeError(f"unknown node {name!r}")


def _records(source):
    """(line number, JSON object) for each record line of a document."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CatalogParseError(
                "invalid UTF-8", source.count(b"\n", 0, exc.start) + 1) from None
    for lineno, raw in enumerate(source.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CatalogParseError(f"bad JSON ({exc.msg}, offset {exc.pos})",
                                    lineno) from exc
        except (ValueError, RecursionError) as exc:
            # integers longer than int() accepts; nesting deeper than the stack
            raise CatalogParseError(f"bad JSON ({exc})", lineno) from None
        if not isinstance(rec, dict):
            raise CatalogParseError("record must be an object", lineno)
        yield lineno, rec


def load_catalog(source) -> list[CatalogEntry]:
    """Parse and validate a catalog document (see module docstring)."""
    entries = []
    seen = set()
    for lineno, rec in _records(source):
        _check_fields(rec, {"name", "area", "coeffs"}, {"lead"}, lineno)
        name = _parse_name(rec["name"], "name", lineno)
        if name in seen:
            raise DuplicateNameError(f"duplicate catalog name {name!r}")
        lead = _parse_rational(rec.get("lead", "1"), lineno)
        if lead != 1:
            raise NonMonicPrincipalPartError(
                f"entry {name!r} has principal part {lead}/q; must be 1/q")
        area = _parse_rational(rec["area"], lineno)
        if area <= 0:
            raise CatalogParseError(f"area must be positive, got {area}", lineno)
        coeffs = _parse_coeffs(rec["coeffs"], lineno)
        seen.add(name)
        entries.append(CatalogEntry(name, area, QSeries.from_coeffs(coeffs)))
    return entries


def _edge_sort_key(e: GraphEdge):
    return (e.src, e.dst, e.power)


def _relate_pair(task):
    """One ordered catalog pair; safe to run in a separate process."""
    src, dst, e_max = task

    def skip(reason):
        return None, [{"kind": "skip", "from": src.name, "to": dst.name,
                       "reason": reason}]

    e = degree_from_areas(src.area, dst.area)
    if e is None:
        return skip("area-quotient-not-natural")
    if e > e_max:
        return skip(f"degree-{e}-exceeds-emax-{e_max}")
    try:
        rel = find_relation(src.series, dst.series, e)
    except InsufficientPrecisionError:
        return skip("insufficient-precision")
    if rel is None:
        return skip("no-relation")
    return GraphEdge(src.name, dst.name, rel.e, rel.r, rel.f), []


def build_graph(catalog, e_max: int, jobs: int = 1):
    """Pairwise relation search; returns (graph, report records).

    Self-pairs are skipped (identity relations carry no information);
    per-pair failures become skip records, never errors.  Pairs are
    independent, so jobs > 1 runs them in worker processes, at most one
    per pair and per CPU; the merged edge list is sorted, making the output
    schedule-independent.
    """
    nodes = tuple(GraphNode(c.name, c.series, "catalog") for c in catalog)
    tasks = [(src, dst, e_max) for src in catalog for dst in catalog
             if src.name != dst.name]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_relate_pair, tasks))
    else:
        results = [_relate_pair(t) for t in tasks]
    edges = []
    report = []
    for edge, records in results:
        if edge is not None:
            edges.append(edge)
        report.extend(records)
    edges.sort(key=_edge_sort_key)
    return RelationGraph(nodes, tuple(edges)), report


def _series_monic_unit(t: GeneralLaurent):
    """Deterministic unit w making w(t) monic with a pole: 1/q^s + ...

    Scales when t already has a pole, inverts (around the constant value
    when needed) otherwise.  None when t is constant to precision.
    """
    if t.is_zero:
        return None
    if t.lead < 0:
        return unit(1, 0, 0, t.coeff(t.lead))
    c0 = t.coeff(0)
    rest = t - GeneralLaurent.exact_scalar(c0)
    if rest.is_zero:
        return None
    return unit(0, rest.coeff(rest.lead), 1, -c0)


def _reindex(t: GeneralLaurent, s: int) -> QSeries:
    """t = j3(q^s) -> j3; requires monic lead -s and support in s*Z."""
    body = Poly.make(t.body.nums[::s], t.body.den)
    return QSeries(GeneralLaurent(-1, body, t.prec // s))


def _verified_fully(src_series: QSeries, dst_series: QSeries,
                    edge: GraphEdge) -> bool:
    """Edge check: the defining difference vanishes through its entire
    certified range, and that range reaches at least degree + 2.

    src(q^r) has a pole of order r and f(dst) one of order deg num(f) -
    deg den(f), so an edge whose orders differ fails before anything is
    evaluated (src(q^r) would hold r times as many terms as src)."""
    if edge.power != edge.fun.num.degree - edge.fun.den.degree:
        return False
    diff = _diff_series(src_series, dst_series, edge.power, edge.fun)
    return diff.is_zero and diff.prec >= edge.degree + 2


class _Refiner:
    def __init__(self, graph: RelationGraph):
        self.nodes = list(graph.nodes)
        self.by_name = {n.name: n for n in self.nodes}
        self.report: list[dict] = []
        self.synthetic: list[str] = []
        # ids of at most 600 digits, which int() converts under any setting
        self.next_id = 1 + max(
            (int(n.name[1:]) for n in self.nodes
             if n.origin == "synthetic" and re.match(r"^X\d{1,600}$", n.name)),
            default=0)

    def warn(self, edge: GraphEdge, reason: str):
        self.report.append({"kind": "warning", "from": edge.src,
                            "to": edge.dst, "r": edge.power, "reason": reason})

    def match_or_create(self, series: QSeries) -> str:
        """Node identity by the coefficients of q^0..q^key, a node
        certified through q^key; a match that diverges deeper is an
        inconsistency, not a new node."""
        if series.prec < 0:
            raise VerificationFailureError(
                "intermediate series has no certified coefficients")
        key = min(15, series.prec)
        for node in self.nodes:
            if node.series.prec < key or \
                    node.series.truncate(key) != series.truncate(key):
                continue
            overlap = min(node.series.prec, series.prec)
            if node.series.truncate(overlap) == series.truncate(overlap):
                return node.name
            raise VerificationFailureError(
                f"series agrees with node {node.name!r} on the identity "
                "prefix but diverges inside the certified overlap")
        while f"X{self.next_id}" in self.by_name:
            self.next_id += 1
        name = f"X{self.next_id}"
        self.next_id += 1
        node = GraphNode(name, series, "synthetic")
        self.nodes.append(node)
        self.by_name[name] = node
        self.synthetic.append(name)
        return name

    def try_split(self, edge: GraphEdge, dec):
        """One decomposition f = g o h of an edge -> two edges, or None."""
        outer, inner = dec
        dst_series = self.by_name[edge.dst].series
        t0 = eval_ratfun_at_series(inner, dst_series)
        w = _series_monic_unit(t0)
        if w is None:
            self.warn(edge, "inner-series-constant-to-precision")
            return None
        inner = compose(w, inner)
        outer = compose(outer, unit_inverse(w))
        t = eval_ratfun_at_series(inner, dst_series)
        s = power_support(t)
        if s != -t.lead:
            self.warn(edge, f"support-{s}-does-not-match-pole-order-{-t.lead}")
            return None
        if edge.power % s != 0:
            self.warn(edge, f"support-{s}-does-not-divide-r-{edge.power}")
            return None
        j3 = _reindex(t, s)
        name = self.match_or_create(j3)
        first = GraphEdge(edge.src, name, outer.degree, edge.power // s, outer)
        second = GraphEdge(name, edge.dst, inner.degree, s, inner)
        for new_edge in (first, second):
            if not _verified_fully(self.by_name[new_edge.src].series,
                                   self.by_name[new_edge.dst].series,
                                   new_edge):
                raise VerificationFailureError(
                    f"refined edge {new_edge.src}->{new_edge.dst} "
                    f"(d={new_edge.degree}, r={new_edge.power}) "
                    "does not verify against the node series")
        return first, second


def _one_level_splits(fun: RatFun, memo: dict):
    """decompose_one_level(fun), or () below degree 2, kept in the caller's
    memo so that one refinement or chain search decomposes each function
    once."""
    if fun.degree < 2:
        return ()
    if fun not in memo:
        memo[fun] = decompose_one_level(fun)
    return memo[fun]


def refine_graph(graph: RelationGraph):
    """Split decomposable edges until a fixpoint; returns (graph, report).

    Every inequivalent one-level decomposition of an edge is used, so all
    complete chains appear; splits whose intermediate series cannot be
    re-indexed (support or divisibility failure) are skipped with a
    warning and the original edge is kept.  An edge whose every split was
    skipped is kept as it is in later rounds, without a second try or
    warning.
    """
    state = _Refiner(graph)
    memo: dict = {}
    unsplittable: set[GraphEdge] = set()
    edges = sorted(graph.edges, key=_edge_sort_key)
    round_bound = 1 + sum(max(1, e.degree.bit_length())
                          for e in edges if e.degree >= 2)
    rounds = 0
    changed = True
    while changed:
        rounds += 1
        if rounds > round_bound:
            raise VerificationFailureError(
                "refinement failed to reach a fixpoint")
        changed = False
        emitted: dict[tuple, GraphEdge] = {}

        def emit(e: GraphEdge):
            key = (e.src, e.dst, e.power)
            if key in emitted:
                if emitted[key].fun != e.fun:
                    state.report.append({
                        "kind": "warning", "from": e.src, "to": e.dst,
                        "r": e.power,
                        "reason": "conflicting-duplicate-edge-dropped"})
                return
            emitted[key] = e

        for edge in edges:
            splits = (() if edge in unsplittable
                      else _one_level_splits(edge.fun, memo))
            if not splits:
                emit(edge)
                continue
            produced = []
            for dec in splits:
                result = state.try_split(edge, dec)
                if result is not None:
                    produced.extend(result)
            if produced:
                changed = True
                for e in produced:
                    emit(e)
            else:
                unsplittable.add(edge)
                emit(edge)
        edges = sorted(emitted.values(), key=_edge_sort_key)
    for name in state.synthetic:
        state.report.append({"kind": "synthetic", "name": name,
                             "matches_catalog": False})
    return RelationGraph(tuple(state.nodes), tuple(edges)), state.report


def _reachable(start: str, step: dict[str, list[str]]) -> set[str]:
    """The names reachable from start along step, start included."""
    seen, todo = {start}, [start]
    while todo:
        for name in step.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def maximal_chains(graph: RelationGraph, src: str, dst: str):
    """All simple directed paths src -> dst along indecomposable edges,
    sorted by length descending (ties broken lexicographically).

    Only edges on some src -> dst walk are decomposed: an edge whose
    source src cannot reach, or whose target cannot reach dst, lies on no
    such path, whether it decomposes or not."""
    names = {n.name for n in graph.nodes}
    for name in (src, dst):
        if name not in names:
            raise UnknownNodeError(f"unknown node {name!r}")
    if src == dst:
        return [[]]
    forward: dict[str, list[str]] = {}
    backward: dict[str, list[str]] = {}
    for e in graph.edges:
        forward.setdefault(e.src, []).append(e.dst)
        backward.setdefault(e.dst, []).append(e.src)
    from_src, to_dst = _reachable(src, forward), _reachable(dst, backward)
    memo: dict = {}
    adjacency: dict[str, list[GraphEdge]] = {}
    for e in sorted(graph.edges, key=_edge_sort_key):
        if e.src in from_src and e.dst in to_dst \
                and not _one_level_splits(e.fun, memo):
            adjacency.setdefault(e.src, []).append(e)
    paths, trail, visited = [], [], {src}
    # depth first on an explicit stack: no recursion limit on long paths
    stack = [iter(adjacency.get(src, ()))]
    while stack:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            if trail:
                visited.discard(trail.pop().dst)
        elif e.dst == dst:
            paths.append(trail + [e])
        elif e.dst not in visited:
            visited.add(e.dst)
            trail.append(e)
            stack.append(iter(adjacency.get(e.dst, ())))
    paths.sort(key=lambda p: (-len(p),
                              tuple((e.src, e.dst, e.power) for e in p)))
    return paths


def modular_polynomial(f1: RatFun, k1: int, f2: RatFun, k2: int) -> PolyOverPoly:
    """P(x, y) = num(f1)(x)*den(f2)(y) - num(f2)(y)*den(f1)(x), reduced.

    For two relations s1 = f1(s2(q^k1)) = f2(s2(q^k2)) with k1 != k2, the
    result vanishes identically at (s2(q^k1), s2(q^k2)).  The formula is
    the resultant of f1_N(x) - t*f1_D(x) and f2_N(y) - t*f2_D(y) with
    respect to the shared value t: chaining the two relations eliminates
    the series they have in common.
    """
    if k1 == k2:
        raise IdenticalPowersError("the two powers must differ")
    # times the positive constant den(num f1) * den(den f1), which
    # content_reduced divides out
    a, b = f1.num, f1.den
    coeffs = [Poly.make(*combine(((ai * b.den, 0, f2.den),
                                  (-bi * a.den, 0, f2.num))))
              for ai, bi in zip_longest(a.nums, b.nums, fillvalue=0)]
    return PolyOverPoly.from_coeffs(coeffs).content_reduced()


def eval_modular_polynomial(p: PolyOverPoly, xs: GeneralLaurent,
                            ys: GeneralLaurent) -> GeneralLaurent:
    """P(xs, ys) by Horner in the outer variable; each coefficient of P is
    a combination of one table of the powers of ys."""
    powers = series_powers(ys, max((len(c.nums) for c in p.coeffs),
                                   default=1) - 1)
    acc = ZERO_SERIES
    for c in reversed(p.coeffs):
        acc = acc * xs + combine_powers(c.nums, c.den, powers)
    return acc


def export_graph(graph: RelationGraph, fmt: str) -> bytes:
    """Deterministic serialization: 'dot' or 'jsonlines'."""
    if fmt == "dot":
        lines = ["digraph relations {"]
        for n in graph.nodes:
            attrs = " [shape=box style=dashed]" if n.origin == "synthetic" else ""
            lines.append(f'  "{n.name}"{attrs};')
        for e in graph.edges:
            lines.append(f'  "{e.src}" -> "{e.dst}" '
                         f'[label="d={e.degree},r={e.power}"];')
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "jsonlines":
        lines = []
        for n in graph.nodes:
            lines.append(json.dumps(
                {"type": "node", "name": n.name, "origin": n.origin,
                 "coeffs": [str(c) for c in n.series.coeffs]},
                separators=(",", ":")))
        for e in graph.edges:
            lines.append(json.dumps(
                {"type": "edge", "from": e.src, "to": e.dst,
                 "d": e.degree, "r": e.power, "f": ratfun_text(e.fun)},
                separators=(",", ":")))
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown export format {fmt!r}")


def load_graph(source) -> RelationGraph:
    """Re-ingest a jsonlines export; inverse of export_graph.

    Each edge's labels must agree with its function: d with deg f and r
    with the pole order deg num(f) - deg den(f) (see _verified_fully)."""
    nodes = []
    edges = []
    seen = set()
    for lineno, rec in _records(source):
        kind = rec.get("type")
        if kind == "node":
            _check_fields(rec, {"type", "name", "coeffs"}, {"origin"}, lineno)
            name = _parse_name(rec["name"], "name", lineno)
            if name in seen:
                raise DuplicateNameError(f"duplicate node {name!r}")
            seen.add(name)
            coeffs = _parse_coeffs(rec["coeffs"], lineno)
            origin = rec.get("origin", "catalog")
            if origin not in ("catalog", "synthetic"):
                raise CatalogParseError(f"bad origin {origin!r}", lineno)
            nodes.append(GraphNode(name, QSeries.from_coeffs(coeffs), origin))
        elif kind == "edge":
            _check_fields(rec, {"type", "from", "to", "d", "r", "f"}, set(),
                          lineno)
            src = _parse_name(rec["from"], "from", lineno)
            dst = _parse_name(rec["to"], "to", lineno)
            degree = _parse_count(rec["d"], "d", lineno)
            power = _parse_count(rec["r"], "r", lineno)
            if not isinstance(rec["f"], str):
                raise CatalogParseError("f must be a string", lineno)
            try:
                fun = parse_ratfun(rec["f"])
            except MoondecError as exc:
                raise CatalogParseError(f"bad function: {exc}", lineno) from exc
            if fun.degree != degree:
                raise CatalogParseError(
                    f"edge {src}->{dst}: function degree {fun.degree} "
                    f"does not match label d={degree}", lineno)
            order = fun.num.degree - fun.den.degree
            if power != order:
                raise CatalogParseError(
                    f"edge {src}->{dst}: power r={power} is not the pole "
                    f"order {order} of f", lineno)
            edges.append(GraphEdge(src, dst, degree, power, fun))
        else:
            raise CatalogParseError(f"unknown record type {kind!r}", lineno)
    graph = RelationGraph(tuple(nodes), tuple(edges))
    seen_edges = set()
    for e in edges:
        graph.node(e.src)
        graph.node(e.dst)
        key = (e.src, e.dst, e.power)
        if key in seen_edges:
            raise DuplicateNameError(
                f"duplicate edge ({e.src}, {e.dst}, r={e.power})")
        seen_edges.add(key)
    return graph
