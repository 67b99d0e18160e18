import random
from fractions import Fraction

import pytest
from oracles import outer_by_nullspace

from moondec.decompose import (
    all_chains,
    candidate_components,
    chains_equivalent,
    decompose_one_level,
    equivalent,
    left_component,
    unit_linking,
    Decomposition,
)
from moondec.errors import (
    DegreeMismatchError,
    DifferentTargetError,
    InvalidInputError,
    NotNormalFormError,
)
from moondec.parsing import parse_ratfun
from moondec.polynomials import ONE, Poly, poly_divrem
from moondec.ratfun import RatFun, compose, is_normal_form, unit, unit_inverse


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
    dec = left_component(flagship, h)
    assert dec is not None
    assert dec.outer == parse_ratfun("x^3*(x+24)/(x-3)")


def test_left_component_power():
    dec = left_component(parse_ratfun("x^4"), parse_ratfun("x^2"))
    assert dec.outer == parse_ratfun("x^2")


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
    dec = left_component(f, h)
    got = None if dec is None else (list(dec.outer.num.coeffs),
                                    list(dec.outer.den.coeffs))
    assert got == expected, (f, h)
    return "none" if dec is None else "match"


def test_left_component_matches_nullspace_oracle():
    """The h-expansion against the homogeneous linear system it replaced,
    for inner components of every pole shape; f = g o h recovers g, and
    f + x gets the oracle's answer: None or a degree mismatch."""
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
        assert _outcome(f, h) == "match"
        assert left_component(f, h).outer == g
        seen.add((shape, _outcome(f + RatFun.identity(), h)))
    assert {outcome for _, outcome in seen} == {"none", "mismatch"}
    assert {shape for shape, _ in seen} == {-1, 0, 1}


def test_one_level_power():
    decs = decompose_one_level(parse_ratfun("x^4"))
    assert len(decs) == 1
    assert decs[0].outer == parse_ratfun("x^2")
    assert decs[0].inner == parse_ratfun("x^2")


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
        assert compose(dec.outer, dec.inner) == flagship
    inner_degrees = sorted(d.inner.degree for d in decs)
    assert inner_degrees == [2, 3, 3, 4]
    inners = [d.inner for d in decs]
    assert any(unit_linking(parse_ratfun("x*(x+6)/(x-3)"), h) for h in inners)
    assert any(unit_linking(
        parse_ratfun("x*(x^2-6*x+36)/(x^2+3*x+9)"), h) for h in inners)
    # pairwise inequivalent
    for i in range(len(decs)):
        for j in range(i + 1, len(decs)):
            assert not equivalent(decs[i], decs[j])


def test_all_chains_flagship(flagship):
    """Both chains of different lengths from the source appear (the
    headline property), plus the Ritt-style swap x^3 o A = F o x^3 of the
    length-3 chain, which is a third complete chain."""
    chains = all_chains(flagship)
    for chain in chains:
        assert chain.target() == flagship
        degrees = 1
        for c in chain.components:
            degrees *= c.degree
        assert degrees == 12
    lengths = sorted(len(c.components) for c in chains)
    assert lengths == [2, 2, 3]
    displayed_long = [parse_ratfun("x^3"), parse_ratfun("x*(x-12)/(x-3)"),
                      parse_ratfun("x*(x+6)/(x-3)")]
    displayed_short = [parse_ratfun("x^3*(x+24)/(x-3)"),
                       parse_ratfun("x*(x^2-6*x+36)/(x^2+3*x+9)")]
    assert any(chains_equivalent(displayed_long, c.components)
               for c in chains)
    assert any(chains_equivalent(displayed_short, c.components)
               for c in chains)
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            assert not chains_equivalent(chains[i].components,
                                         chains[j].components)


def test_all_chains_x8():
    chains = all_chains(parse_ratfun("x^8"))
    assert len(chains) == 1
    assert chains[0].degrees == (2, 2, 2)


def test_all_chains_x24_orderings():
    # polynomial chains all have the same length (the component multiset
    # {2,2,2,3} in every order); contrast with the flagship function
    chains = all_chains(parse_ratfun("x^24"))
    assert sorted(c.degrees for c in chains) == [
        (2, 2, 2, 3), (2, 2, 3, 2), (2, 3, 2, 2), (3, 2, 2, 2)]


def test_all_chains_prime_degree():
    f = parse_ratfun("(x^3+2*x)/(x^2-5)")
    chains = all_chains(f)
    assert len(chains) == 1
    assert chains[0].components == (f,)


def test_equivalent_by_explicit_unit():
    d1 = Decomposition(parse_ratfun("x^2"), parse_ratfun("x^2"))
    d2 = Decomposition(parse_ratfun("x^2/4"), parse_ratfun("2*x^2"))
    assert equivalent(d1, d2)
    assert equivalent(d1, d1)


def test_equivalent_rejects_flagship_cross_split(flagship):
    decs = decompose_one_level(flagship)
    two = next(d for d in decs if d.inner.degree == 2)
    three = next(d for d in decs if d.inner.degree == 3)
    assert not equivalent(two, three)


def test_equivalent_different_targets():
    d1 = Decomposition(parse_ratfun("x^2"), parse_ratfun("x^2"))
    d2 = Decomposition(parse_ratfun("x^2"), parse_ratfun("x^3"))
    with pytest.raises(DifferentTargetError):
        equivalent(d1, d2)


def _random_unit(rng):
    while True:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if a * d - b * c != 0:
            return unit(a, b, c, d)


def test_equivalence_relation_on_twisted_family():
    rng = random.Random(41)
    g = parse_ratfun("(x^2+3)/(x+1)")
    h = parse_ratfun("x^2-2*x")
    base = Decomposition(g, h)
    family = [base]
    for _ in range(4):
        w = _random_unit(rng)
        family.append(Decomposition(
            compose(g, unit_inverse(w)), compose(w, h)))
    for d in family:
        assert compose(d.outer, d.inner) == compose(g, h)
        assert equivalent(d, d)                       # reflexive
    for d1 in family:
        for d2 in family:
            assert equivalent(d1, d2)                 # symmetric + transitive
    other = decompose_one_level(parse_ratfun("x^4"))[0]
    with pytest.raises(DifferentTargetError):
        equivalent(base, other)


def test_divisibility_theorem_on_normal_components(flagship):
    """For normal-form f = g o h with h in normal form, h's numerator and
    denominator divide f's."""
    targets = [flagship, parse_ratfun("x^4"), parse_ratfun("x^8"),
               parse_ratfun("x^6/(x^2+1)^2")]
    checked = 0
    for f in targets:
        if not is_normal_form(f):
            continue
        for dec in decompose_one_level(f):
            if not is_normal_form(dec.inner):
                continue
            assert poly_divrem(f.num, dec.inner.num)[1].is_zero
            assert poly_divrem(f.den, dec.inner.den)[1].is_zero
            checked += 1
    assert checked >= 5


def test_soundness_small_planted_sample():
    rng = random.Random(42)
    for _ in range(20):
        g = _random_component(rng)
        h = _random_component(rng)
        f = compose(g, h)
        decs = decompose_one_level(f)
        planted = Decomposition(g, h)
        assert any(equivalent(d, planted) for d in decs)


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
