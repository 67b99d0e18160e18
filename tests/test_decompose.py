import importlib.util
import json
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from conftest import FLAGSHIP_TEXT
from oracles import (
    candidates_by_both_factorizations,
    chains_by_recursion,
    outer_by_nullspace,
)

from moondec.decompose import (
    all_chains,
    candidate_components,
    chains_equivalent,
    decompose_one_level,
    left_component,
    unit_linking,
)
from moondec.errors import (
    DegreeMismatchError,
    InvalidInputError,
    NotNormalFormError,
    VerificationFailureError,
)
from moondec.parsing import parse_ratfun
from moondec.polynomials import Poly, poly_divrem
from moondec.ratfun import (
    RatFun,
    compose,
    is_normal_form,
    to_normal_form,
    unit,
    unit_inverse,
)


def test_candidates_power_of_x():
    cands = candidate_components(parse_ratfun("x^4"))
    assert [(str(c.num), str(c.den)) for c in cands] == [("x^2", "1")]


def test_candidates_require_normal_form():
    with pytest.raises(NotNormalFormError):
        candidate_components(parse_ratfun("(x^2+1)/x"))


def test_candidates_flagship_include_both_displayed_inners(flagship):
    cands = {(str(c.num), str(c.den))
             for c in candidate_components(flagship)}
    assert ("x^2+6*x", "x-3") in cands
    assert ("x^3-6*x^2+36*x", "x^2+3*x+9") in cands
    for c in candidate_components(flagship):
        assert 1 < c.num.degree < 12
        assert 12 % c.num.degree == 0
        assert c.num.coeff(0) == 0
        assert c.num.degree > c.den.degree
        assert poly_divrem(flagship.num, c.num)[1].is_zero
        assert poly_divrem(flagship.den, c.den)[1].is_zero


def test_candidates_prime_degree_empty():
    assert candidate_components(parse_ratfun("x^3")) == []
    assert candidate_components(parse_ratfun("x^5/(x^2+1)")) == []


def test_left_component_flagship_outer(flagship):
    h = parse_ratfun("x*(x^2-6*x+36)/(x^2+3*x+9)")
    assert left_component(flagship, h) == parse_ratfun("x^3*(x+24)/(x-3)")


def test_left_component_power():
    assert left_component(parse_ratfun("x^4"), parse_ratfun("x^2")) \
        == parse_ratfun("x^2")


def test_left_component_none_when_impossible():
    # brute force: g(x^2) only produces even-exponent terms, so no g of
    # degree 2 yields x^4 + x
    import sympy as sp
    xs, y = sp.symbols("xs y")
    a0, a1, a2, b0, b1 = sp.symbols("a0 a1 a2 b0 b1")
    g = (a2 * y ** 2 + a1 * y + a0) / (b1 * y + b0)
    eqs = sp.Poly(sp.expand(sp.numer(sp.together(
        g.subs(y, xs ** 2) - (xs ** 4 + xs)))), xs).all_coeffs()
    sols = sp.solve(eqs, [a0, a1, a2, b0, b1], dict=True)
    assert all(s[b0] == 0 and s.get(b1, 0) == 0 for s in sols) or not sols
    assert left_component(parse_ratfun("x^4+x"), parse_ratfun("x^2")) is None


def test_left_component_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        left_component(parse_ratfun("x^4"), parse_ratfun("x^3"))
    with pytest.raises(DegreeMismatchError):
        left_component(parse_ratfun("x^4"), parse_ratfun("x+1"))
    # h needs a pole at infinity: deg num(h) <= deg den(h) is rejected
    with pytest.raises(DegreeMismatchError):
        left_component(parse_ratfun("1/(x^4+1)"), parse_ratfun("1/(x^2+1)"))


def _inner_of_shape(rng, shape):
    """A random h of degree 2 or 3 with deg num(h) >, = or < deg den(h)
    for shape 1, 0, -1."""
    while True:
        deg = rng.randint(2, 3)
        low = rng.randint(0, deg - 1)
        num_deg, den_deg = {1: (deg, low), 0: (deg, deg), -1: (low, deg)}[shape]
        num = Poly.from_coeffs([rng.randint(-5, 5) for _ in range(num_deg)]
                               + [rng.choice([-2, 1, 3])])
        den = Poly.from_coeffs([rng.randint(-5, 5) for _ in range(den_deg)]
                               + [1])
        h = RatFun.make(num, den)
        nd, dd = h.num.degree, h.den.degree
        if h.degree == deg and (nd > dd) - (nd < dd) == shape:
            return h


def _outcome(f, h):
    """left_component and the null-space oracle side by side."""
    try:
        expected = outer_by_nullspace(f.num.coeffs, f.den.coeffs,
                                      h.num.coeffs, h.den.coeffs)
    except ValueError:
        with pytest.raises(DegreeMismatchError):
            left_component(f, h)
        return "mismatch"
    g = left_component(f, h)
    got = None if g is None else (list(g.num.coeffs), list(g.den.coeffs))
    assert got == expected, (f, h)
    return "none" if g is None else "match"


def test_left_component_matches_nullspace_oracle():
    """The h-expansion against the homogeneous linear system it replaced,
    for inner components with a pole at infinity: f = g o h recovers g,
    and f + x gets the oracle's answer, None or a degree mismatch.  An
    inner component of the other pole shapes is a degree mismatch."""
    rng = random.Random(2027)
    seen = set()
    for k in range(96):
        shape = k % 3 - 1
        h = _inner_of_shape(rng, shape)
        if k % 4:
            g = _inner_of_shape(rng, rng.choice([-1, 0, 1]))
        else:  # a unit: m = 1
            g = RatFun.make(Poly.from_coeffs([rng.randint(-3, 3), 1]),
                            Poly.from_coeffs([rng.randint(-3, 3) or 1]))
        f = compose(g, h)
        if shape != 1:
            with pytest.raises(DegreeMismatchError):
                left_component(f, h)
            continue
        assert _outcome(f, h) == "match"
        assert left_component(f, h) == g
        seen.add(_outcome(f + RatFun.identity(), h))
    assert seen == {"none", "mismatch"}


def test_one_level_power():
    decs = decompose_one_level(parse_ratfun("x^4"))
    assert decs == ((parse_ratfun("x^2"), parse_ratfun("x^2")),)


def test_one_level_prime_degree_empty():
    assert decompose_one_level(parse_ratfun("x^2+x+1")) == ()
    with pytest.raises(InvalidInputError):
        decompose_one_level(parse_ratfun("x+1"))


def test_one_level_flagship_classes(flagship):
    """The flagship function has four inequivalent one-level splits.

    Both splits displayed in the source material (inner degrees 2 and 3)
    are found; the additional inner-degree-3 split through x^3 and the
    inner-degree-4 split are genuine (they follow from the numerator and
    denominator being polynomials in x^3) and were verified independently.
    """
    decs = decompose_one_level(flagship)
    for dec in decs:
        assert type(dec) is tuple and len(dec) == 2
        assert reduce(compose, dec) == flagship
    inner_degrees = sorted(inner.degree for _, inner in decs)
    assert inner_degrees == [2, 3, 3, 4]
    inners = [inner for _, inner in decs]
    assert any(unit_linking(parse_ratfun("x*(x+6)/(x-3)"), h) for h in inners)
    assert any(unit_linking(
        parse_ratfun("x*(x^2-6*x+36)/(x^2+3*x+9)"), h) for h in inners)
    # pairwise inequivalent
    for i in range(len(decs)):
        for j in range(i + 1, len(decs)):
            assert not chains_equivalent(decs[i], decs[j])


def test_all_chains_flagship(flagship):
    """Both chains of different lengths from the source appear (the
    headline property), plus the Ritt-style swap x^3 o A = F o x^3 of the
    length-3 chain, which is a third complete chain."""
    chains = all_chains(flagship)
    for chain in chains:
        assert type(chain) is tuple
        assert reduce(compose, chain) == flagship
        degrees = 1
        for c in chain:
            degrees *= c.degree
        assert degrees == 12
    lengths = sorted(len(c) for c in chains)
    assert lengths == [2, 2, 3]
    displayed_long = [parse_ratfun("x^3"), parse_ratfun("x*(x-12)/(x-3)"),
                      parse_ratfun("x*(x+6)/(x-3)")]
    displayed_short = [parse_ratfun("x^3*(x+24)/(x-3)"),
                       parse_ratfun("x*(x^2-6*x+36)/(x^2+3*x+9)")]
    assert any(chains_equivalent(displayed_long, c) for c in chains)
    assert any(chains_equivalent(displayed_short, c) for c in chains)
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            assert not chains_equivalent(chains[i], chains[j])


def test_all_chains_x8():
    chains = all_chains(parse_ratfun("x^8"))
    assert len(chains) == 1
    assert tuple(c.degree for c in chains[0]) == (2, 2, 2)


def test_all_chains_x24_orderings():
    # polynomial chains all have the same length (the component multiset
    # {2,2,2,3} in every order); contrast with the flagship function
    chains = all_chains(parse_ratfun("x^24"))
    assert sorted(tuple(c.degree for c in chain) for chain in chains) == [
        (2, 2, 2, 3), (2, 2, 3, 2), (2, 3, 2, 2), (3, 2, 2, 2)]


# 1A(q^5) = f(25B(q)) from the generated q^120 catalog: the degree-30
# relation function that the benchmark's decompose workload leaves out
HEAVY_25B = (
    "(x^30+30*x^28+405*x^26+684*x^25+3250*x^24+17100*x^23"
    "+17250*x^22+188100*x^21+221190*x^20+1197000*x^19+3316925*x^18"
    "+4873500*x^17+27083550*x^16+25783380*x^15+126383250*x^14"
    "+212330700*x^13+358582250*x^12+1157704200*x^11+708103365*x^10"
    "+3469504500*x^9+1450116150*x^8+5649583500*x^7+3126774025*x^6"
    "+4869492444*x^5+4002912000*x^4+2407734720*x^3+1952256000*x^2"
    "+841374720*x+122023936)/(x^25+25*x^23+275*x^21-55*x^20"
    "+1750*x^19-1100*x^18+7125*x^17-9350*x^16+20585*x^15-44000*x^14"
    "+53775*x^13-125125*x^12+152650*x^11-233310*x^10+367125*x^9"
    "-366850*x^8+560125*x^7-603350*x^6+530080*x^5-699875*x^4"
    "+517275*x^3-332750*x^2+366025*x-161051)")


def test_all_chains_degree_30_relation_function():
    f = parse_ratfun(HEAVY_25B)
    chains = all_chains(f)
    assert [tuple(c.degree for c in chain) for chain in chains] \
        == [(5, 3, 2), (6, 5), (6, 5)]
    assert all(reduce(compose, chain) == f for chain in chains)


def test_all_chains_prime_degree():
    f = parse_ratfun("(x^3+2*x)/(x^2-5)")
    chains = all_chains(f)
    assert len(chains) == 1
    assert chains[0] == (f,)


def test_equivalent_by_explicit_unit():
    d1 = (parse_ratfun("x^2"), parse_ratfun("x^2"))
    d2 = (parse_ratfun("x^2/4"), parse_ratfun("2*x^2"))
    assert chains_equivalent(d1, d2)
    assert chains_equivalent(d1, d1)


def test_equivalent_rejects_flagship_cross_split(flagship):
    decs = decompose_one_level(flagship)
    two = next(d for d in decs if d[1].degree == 2)
    three = next(d for d in decs if d[1].degree == 3)
    assert not chains_equivalent(two, three)


def _random_unit(rng):
    while True:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if a * d - b * c != 0:
            return unit(a, b, c, d)


def test_equivalence_relation_on_twisted_family():
    rng = random.Random(41)
    g = parse_ratfun("(x^2+3)/(x+1)")
    h = parse_ratfun("x^2-2*x")
    f = compose(g, h)
    family = [(g, h)]
    for _ in range(4):
        w = _random_unit(rng)
        family.append((compose(g, unit_inverse(w)), compose(w, h)))
    for d in family:
        assert reduce(compose, d) == f
        assert chains_equivalent(d, d)                # reflexive
    for d1 in family:
        for d2 in family:
            assert chains_equivalent(d1, d2)          # symmetric + transitive
    # decompose_one_level and all_chains return plain tuples of components
    # that compose back to f, one of them in the family's class
    for found in (decompose_one_level(f), all_chains(f)):
        for d in found:
            assert type(d) is tuple and reduce(compose, d) == f
        assert sum(chains_equivalent(d, family[-1]) for d in found) == 1


def test_divisibility_theorem_on_normal_components(flagship):
    """For normal-form f = g o h with h in normal form, h's numerator and
    denominator divide f's."""
    targets = [flagship, parse_ratfun("x^4"), parse_ratfun("x^8"),
               parse_ratfun("x^6/(x^2+1)^2")]
    checked = 0
    for f in targets:
        if not is_normal_form(f):
            continue
        for _, inner in decompose_one_level(f):
            if not is_normal_form(inner):
                continue
            assert poly_divrem(f.num, inner.num)[1].is_zero
            assert poly_divrem(f.den, inner.den)[1].is_zero
            checked += 1
    assert checked >= 5


def test_soundness_small_planted_sample():
    rng = random.Random(42)
    for _ in range(20):
        g = _random_component(rng)
        h = _random_component(rng)
        f = compose(g, h)
        decs = decompose_one_level(f)
        assert any(chains_equivalent(d, (g, h)) for d in decs)


def _random_component(rng):
    while True:
        deg = rng.randint(2, 3)
        num = Poly.from_coeffs([rng.randint(-5, 5) for _ in range(deg)] + [1])
        dd = rng.randint(0, deg - 1)
        den = Poly.from_coeffs([rng.randint(-5, 5) for _ in range(dd)] + [1])
        try:
            f = RatFun.make(num, den)
        except Exception:
            continue
        if f.degree == deg:
            return f


def test_unit_linking_recovers_fractional_units_over_fractional_inners():
    rng = random.Random(43)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    for _ in range(30):
        deg = rng.randint(2, 4)
        h = RatFun.make(Poly.from_coeffs([frac() for _ in range(deg)] + [1]),
                        Poly.from_coeffs([frac() for _ in range(deg)]))
        if h.degree < 2:
            continue
        while True:
            a, b, c, d = (frac() for _ in range(4))
            if a * d - b * c != 0:
                break
        w = unit(a, b, c, d)
        assert unit_linking(h, compose(w, h)) == w


def test_prime_degree_returns_before_normal_form_and_factor(monkeypatch):
    """deg(g o h) = deg g * deg h with both at least 2, so a prime-degree
    function has no decomposition: none is normalized or factored."""
    from moondec import decompose as decompose_module

    calls = []

    def counted(name, real):
        def wrapper(arg):
            calls.append(name)
            return real(arg)
        return wrapper

    for name in ("factor", "to_normal_form"):
        monkeypatch.setattr(decompose_module, name,
                            counted(name, getattr(decompose_module, name)))
    for text in ["x^2+x", "(x^3+1)/(x-2)", "x^5+3*x", "(x^7+x)/(x^2+1)",
                 "(2*x^13-x)/(x^3+5)", "(x+1)/(x^11-4)"]:
        assert decompose_one_level(parse_ratfun(text)) == ()
    assert calls == []
    assert decompose_one_level(parse_ratfun("x^4+x^2"))  # degree 4 splits
    assert "factor" in calls and "to_normal_form" in calls


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _chain_inputs():
    """Functions with many chains: the benchmark's relation functions of
    the generated catalog with e >= 3 (the degree-30 one too; 1A->9B are
    those of the bundled catalog), one seeded composition of each of its
    shapes, x^8, x^24, the flagship, and compositions with
    x^2 + 1/x^2, whose degree-2 right components x^2, x + 1/x and x - 1/x
    come off the parent's splits out of candidate order."""
    spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                  PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    relations = json.loads((PERFBENCH / "golden.json").read_text())
    texts = [x["text"] for x in gen.decompose_inputs(1, relations["relations"])
             if x["kind"] != "prime"]
    texts += ["x^8", "x^24", FLAGSHIP_TEXT, HEAVY_25B]
    g = parse_ratfun("(x^4+1)/x^2")
    return [parse_ratfun(t) for t in dict.fromkeys(texts)] + [
        compose(g, parse_ratfun(h)) for h in ["x^3+2*x", "(x^2+1)/(x-2)"]]


def test_all_chains_matches_the_recursion_into_every_component():
    """Following only indecomposable inners and reading each outer's
    right components off its parent's splits changes neither the chains,
    their order nor their representatives."""
    from moondec import decompose as decompose_module

    degrees = set()
    for f in _chain_inputs():
        decompose_module._chains_cached.cache_clear()
        chains = all_chains(f)
        assert chains == chains_by_recursion(f), str(f)
        degrees |= {tuple(c.degree for c in chain) for chain in chains}
    assert {(2, 2, 2, 2), (5, 3, 2), (2, 2, 3, 2)} <= degrees


def _has_square_candidate(fbar):
    """Whether some candidate numerator A of fbar has A^2 | num(fbar)."""
    return any(poly_divrem(fbar.num, a * a)[1].is_zero for a in
               {h.num for h in candidates_by_both_factorizations(fbar)})


def test_all_chains_factors_only_the_top_function(monkeypatch):
    """factor sees nothing, or num(fbar), or num(fbar) then den(fbar):
    den(fbar) only when some candidate A has A^2 | num(fbar)."""
    from moondec import decompose as decompose_module

    calls = []
    real = decompose_module.factor

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(decompose_module, "factor", counted)
    seen = set()
    for f in _chain_inputs():
        decompose_module._chains_cached.cache_clear()
        calls.clear()
        all_chains(f)
        fbar = to_normal_form(f)[2]
        if calls:
            both = _has_square_candidate(fbar)
            assert calls == [fbar.num] + [fbar.den] * both, str(f)
            seen.add(both)
    assert seen == {False, True}


def _double_zero_compositions():
    """Seeded normal-form g o h whose outer g has a double zero at 0, so
    that A = num(h) has A^2 | num(g o h), with non-constant den(h)."""
    rng = random.Random(34)
    out = []
    while len(out) < 6:
        m, d = rng.choice([(2, 2), (3, 2), (2, 3)])
        g = RatFun.make(
            Poly.from_coeffs([0, 0] + [rng.randint(-4, 4)
                                       for _ in range(m - 2)] + [1]),
            Poly.from_coeffs([rng.randint(1, 5)] + [rng.randint(-3, 3)
                                                    for _ in range(m - 2)]))
        h = RatFun.make(
            Poly.from_coeffs([0] + [rng.randint(-5, 5)
                                    for _ in range(d - 1)] + [1]),
            Poly.from_coeffs([rng.randint(1, 6)] + [rng.randint(-3, 3)
                                                    for _ in range(d - 2)]
                             + [1]))
        if g.degree == m and h.degree == d and h.den.degree > 0:
            out.append(compose(g, h))
    return out


def _one_level_inputs():
    """The benchmark's decompose inputs of seeds 1-3 but the prime-degree
    ones (the degree-30 1A->25B r=5 included), powers of x, the flagship,
    compositions with (x^4+1)/x^2 and seeded compositions whose outer
    has a double zero at 0."""
    spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                  PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    relations = json.loads((PERFBENCH / "golden.json").read_text())
    texts = [x["text"] for seed in (1, 2, 3)
             for x in gen.decompose_inputs(seed, relations["relations"])
             if x["kind"] != "prime"]
    texts += ["x^4", "x^12", "x^24", FLAGSHIP_TEXT]
    g = parse_ratfun("(x^4+1)/x^2")
    return [parse_ratfun(t) for t in dict.fromkeys(texts)] + [
        compose(g, parse_ratfun(h)) for h in ["x^3+2*x", "(x^2+1)/(x-2)"]
    ] + _double_zero_compositions()


def test_one_level_matches_the_both_factorization_enumeration():
    """Reading each A's B off num(fbar) modulo A drops only candidates
    that do not split: decompose_one_level finds the splits, in the order
    and with the representatives, of trying every pair of a divisor of
    num(fbar) and a divisor of den(fbar)."""
    paths = set()
    for f in _one_level_inputs():
        u, v, fbar = to_normal_form(f)
        oracle = candidates_by_both_factorizations(fbar)
        rest = iter(oracle)  # the candidates are a subsequence of oracle's
        assert all(h in rest for h in candidate_components(fbar)), str(f)
        expected = []
        for h in oracle:
            g = left_component(fbar, h)
            if g is not None:
                expected.append((compose(unit_inverse(u), g),
                                 compose(h, unit_inverse(v))))
                square = poly_divrem(fbar.num, h.num * h.num)[1].is_zero
                paths.add((square, h.den.degree > 0))
        assert decompose_one_level(f) == tuple(expected), str(f)
    # splits with a non-constant B on both paths, read off and enumerated
    assert {(False, True), (True, True)} <= paths


def test_splits_invert_the_normalizing_units_only_for_a_split(monkeypatch):
    from moondec import decompose as decompose_module

    calls = []
    real = decompose_module.unit_inverse

    def counted(u):
        calls.append(u)
        return real(u)

    monkeypatch.setattr(decompose_module, "unit_inverse", counted)
    # degree 4 and 6, not in normal form, indecomposable
    for text in ["(x^4+x+1)/(x^2+3)", "(x^6+x+2)/(x-1)"]:
        assert decompose_one_level(parse_ratfun(text)) == ()
    assert calls == []
    assert decompose_one_level(parse_ratfun("(x^4+1)/(x^2-3)"))
    assert len(calls) == 2


def test_a_known_right_component_that_does_not_split_fails_verification():
    from moondec.decompose import _known_splits

    with pytest.raises(VerificationFailureError):
        _known_splits(parse_ratfun("x^4+x"), [parse_ratfun("x^2")])
