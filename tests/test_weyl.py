"""Normal ordering, commutation relations, module action, subalgebra membership."""

import random
from fractions import Fraction

import pytest

from nodehilb.exact import Poly
from nodehilb.weyl import (
    Generator,
    SubalgebraWord,
    WeylOp,
    commutator,
    defining_relations,
    generator_element,
    generators,
    subalgebra_membership,
    verify_relations,
)

# -- independent oracle: one-step rewriting on words of atomic symbols --------
#
# A word is a tuple of atoms ('x', i), ('y', i), ('dx', i), ('dy', i); the
# only rewriting rule is du*u -> u*du + 1 for a matching pair, plus plain
# swaps for commuting pairs.  Repeating until no derivation precedes a
# position operator gives the normal form by a route entirely independent
# of the closed-form product.

POSITION = {"x", "y"}
DERIVATION = {"dx", "dy"}


def word_to_key(word, m):
    counts = {s: [0] * m for s in ("x", "y", "dx", "dy")}
    for sym, i in word:
        counts[sym][i - 1] += 1
    return tuple(e for s in ("x", "y", "dx", "dy") for e in counts[s])


def naive_normal_form(words, m):
    """words: dict mapping atom tuples to coefficients."""
    out = {}
    pending = list(words.items())
    while pending:
        word, c = pending.pop()
        for idx in range(len(word) - 1):
            (s1, i1), (s2, i2) = word[idx], word[idx + 1]
            if s1 in DERIVATION and s2 in POSITION:
                swapped = word[:idx] + (word[idx + 1], word[idx]) + word[idx + 2 :]
                pending.append((swapped, c))
                matching = (s1 == "dx" and s2 == "x" or s1 == "dy" and s2 == "y") and i1 == i2
                if matching:
                    pending.append((word[:idx] + word[idx + 2 :], c))
                break
        else:
            key = word_to_key(word, m)
            acc = out.get(key, 0) + c
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    return out


ATOM_BUILDERS = {"x": WeylOp.x, "y": WeylOp.y, "dx": WeylOp.dx, "dy": WeylOp.dy}


def word_to_op(word, m):
    op = WeylOp.one(m)
    for sym, i in word:
        op = op * ATOM_BUILDERS[sym](m, i)
    return op


def random_word(rng, m, max_len=5):
    syms = ("x", "y", "dx", "dy")
    return tuple(
        (rng.choice(syms), rng.randrange(1, m + 1)) for _ in range(rng.randrange(max_len + 1))
    )


def random_op(rng, m, max_terms=3, max_len=4):
    op = WeylOp.zero(m)
    for _ in range(rng.randrange(1, max_terms + 1)):
        c = Fraction(rng.randrange(-5, 6), rng.randrange(1, 3))
        op = op + word_to_op(random_word(rng, m, max_len), m) * c
    return op


def random_poly(rng, m, max_terms=4, max_exp=3):
    coeffs = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(max_exp) for _ in range(2 * m))
        coeffs[exps] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 3))
    return Poly(m, coeffs)


class TestNormalOrdering:
    def test_defining_relation(self):
        m = 1
        lhs = WeylOp.dy(m, 1) * WeylOp.y(m, 1)
        assert lhs == WeylOp.y(m, 1) * WeylOp.dy(m, 1) + WeylOp.one(m)

    def test_distinct_variables_commute(self):
        m = 2
        assert WeylOp.dy(m, 1) * WeylOp.y(m, 2) == WeylOp.y(m, 2) * WeylOp.dy(m, 1)

    def test_one_step_rewriting(self):
        # (x1 dx1) x1 = x1^2 dx1 + x1, one application of the rule by hand
        m = 1
        lhs = (WeylOp.x(m, 1) * WeylOp.dx(m, 1)) * WeylOp.x(m, 1)
        rhs = WeylOp.x(m, 1) ** 2 * WeylOp.dx(m, 1) + WeylOp.x(m, 1)
        assert lhs == rhs

    def test_matches_naive_rewriting_oracle(self):
        rng = random.Random(424242)
        for _ in range(300):
            m = rng.choice((1, 2, 3))
            w1, w2 = random_word(rng, m), random_word(rng, m)
            product = word_to_op(w1, m) * word_to_op(w2, m)
            oracle = naive_normal_form({w1 + w2: Fraction(1)}, m)
            assert product.coeffs == oracle

    def test_normal_form_idempotent(self):
        rng = random.Random(5)
        for _ in range(100):
            op = random_op(rng, 2)
            assert WeylOp(op.m, dict(op.coeffs)) == op

    def test_associativity_500_triples(self):
        rng = random.Random(1001)
        for _ in range(500):
            m = rng.choice((1, 2, 3))
            a, b, c = (random_op(rng, m, max_terms=2, max_len=3) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_mismatched_ambient_rejected(self):
        with pytest.raises(ValueError):
            WeylOp.x(2, 1) * WeylOp.x(3, 1)


class TestCommutator:
    def test_d1_with_mu_plus(self):
        m = 2
        mup = generator_element(Generator("mu+"), m)
        assert commutator(WeylOp.dy(m, 1), mup) == WeylOp.one(m)

    def test_disjoint_variables(self):
        assert commutator(WeylOp.dy(2, 1), WeylOp.y(2, 2)).is_zero()

    def test_mu_minus_with_x1_squared(self):
        # [dx1+dx2, x1^2] = 2 x1, expanded via products
        m = 2
        mum = generator_element(Generator("mu-"), m)
        x1sq = WeylOp.x(m, 1) ** 2
        assert commutator(mum, x1sq) == WeylOp.x(m, 1) * 2

    def test_iterated_descent_identity(self):
        # [d1^(i+1), mu+] = (i+1) d1^i, the ladder identity behind the
        # fundamental-class combinatorics
        m = 2
        mup = generator_element(Generator("mu+"), m)
        d1 = WeylOp.dy(m, 1)
        for i in range(5):
            assert commutator(d1 ** (i + 1), mup) == d1**i * (i + 1)

    def test_antisymmetry_and_jacobi(self):
        rng = random.Random(77)
        for _ in range(500):
            m = rng.choice((1, 2))
            a, b, c = (random_op(rng, m, max_terms=2, max_len=3) for _ in range(3))
            assert commutator(a, b) == -commutator(b, a)
            jacobi = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            assert jacobi.is_zero()


class TestGenerators:
    def test_mu_plus_m2(self):
        assert generator_element(Generator("mu+"), 2) == WeylOp.y(2, 1) + WeylOp.y(2, 2)

    def test_mu_minus_m1(self):
        assert generator_element(Generator("mu-"), 1) == WeylOp.dx(1, 1)

    def test_d2_m3(self):
        assert generator_element(Generator("d", 2), 3) == WeylOp.dy(3, 2)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            generator_element(Generator("x", 3), 2)

    def test_generator_list(self):
        gens = generators(2)
        assert [str(g) for g in gens] == ["x1", "x2", "d1", "d2", "mu+", "mu-"]


def stated_relations(m):
    """The eight families written out: (family, i, j, a, b, whether [a, b] = 1)."""
    idx = range(1, m + 1)
    mup, mum = Generator("mu+"), Generator("mu-")
    out = [("[d_i,mu+]=1", i, None, Generator("d", i), mup, True) for i in idx]
    out += [("[mu-,x_i]=1", i, None, mum, Generator("x", i), True) for i in idx]
    for family, p, q in (("[x_i,x_j]=0", "x", "x"), ("[d_i,d_j]=0", "d", "d"), ("[d_i,x_j]=0", "d", "x")):
        out += [(family, i, j, Generator(p, i), Generator(q, j), False) for i in idx for j in idx]
    out += [("[x_i,mu+]=0", i, None, Generator("x", i), mup, False) for i in idx]
    out += [("[d_i,mu-]=0", i, None, Generator("d", i), mum, False) for i in idx]
    return out + [("[mu+,mu-]=0", None, None, mup, mum, False)]


class TestRelations:
    @pytest.mark.parametrize("m, count", [(1, 8), (2, 21), (3, 40), (4, 65), (5, 96)])
    def test_table_is_the_families_written_out(self, m, count):
        table = defining_relations(m)
        assert [tuple(r) for r in table] == stated_relations(m)
        assert len(table) == count
        # verify_relations evaluates the table: one record per entry, in order
        assert [(c.family, c.i, c.j) for c in verify_relations(m)] == [(r.family, r.i, r.j) for r in table]

    def test_table_needs_a_positive_m(self):
        with pytest.raises(ValueError):
            defining_relations(0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_all_families_pass(self, m):
        checks = verify_relations(m)
        assert all(c.ok for c in checks), [c for c in checks if not c.ok]

    def test_m2_has_both_unit_commutators(self):
        checks = verify_relations(2)
        units = [c for c in checks if c.family == "[d_i,mu+]=1"]
        assert len(units) == 2 and all(c.ok for c in units)

    def test_family_count(self):
        # 3 families over ordered pairs + 4 indexed + 1 plain at m=2
        assert len(verify_relations(2)) == 3 * 4 + 4 * 2 + 1


class TestAction:
    def test_multiplication_action(self):
        m = 2
        mup = generator_element(Generator("mu+"), m)
        assert mup.act(Poly.one(m)) == Poly.y(m, 1) + Poly.y(m, 2)

    def test_differentiation_action(self):
        m = 2
        p = Poly.y(m, 1) * Poly.y(m, 2)
        assert WeylOp.dy(m, 1).act(p) == Poly.y(m, 2)

    def test_sum_of_derivations(self):
        m = 2
        mum = generator_element(Generator("mu-"), m)
        p = Poly.x(m, 1) ** 2 * Poly.x(m, 2)
        expected = 2 * Poly.x(m, 1) * Poly.x(m, 2) + Poly.x(m, 1) ** 2
        assert mum.act(p) == expected

    def test_action_is_module_structure_500(self):
        rng = random.Random(31337)
        for _ in range(500):
            m = rng.choice((1, 2))
            a = random_op(rng, m, max_terms=2, max_len=3)
            b = random_op(rng, m, max_terms=2, max_len=3)
            p = random_poly(rng, m)
            assert (a * b).act(p) == a.act(b.act(p))

    def test_action_linear_in_both_arguments(self):
        rng = random.Random(8)
        for _ in range(100):
            m = 2
            a, b = random_op(rng, m), random_op(rng, m)
            p, q = random_poly(rng, m), random_poly(rng, m)
            assert a.act(p + q) == a.act(p) + a.act(q)
            assert (a + b).act(p) == a.act(p) + b.act(p)


def exhaustive_membership(w):
    """Oracle: solve against every spanning word within the filtration bound.

    Independent of the production route, which restricts candidates to
    support-matching words; here the full bounded enumeration is used.
    """
    import itertools

    from oracles import solve_columns

    m = w.m
    if w.is_zero():
        return {}
    bound = max(sum(key) for key in w.coeffs)  # Bernstein degree
    candidates = []
    exps = range(bound + 1)
    for alpha in itertools.product(exps, repeat=m):
        for s in exps:
            for delta in itertools.product(exps, repeat=m):
                for r in exps:
                    if sum(alpha) + s + sum(delta) + r <= bound:
                        candidates.append(SubalgebraWord(alpha, s, delta, r))
    sol = solve_columns([wd.to_weyl(m).coeffs for wd in candidates], w.coeffs)
    if sol is None:
        return None
    return {wd: c for wd, c in zip(candidates, sol) if c != 0}


class TestSubalgebraMembership:
    def test_generators_expand(self):
        m = 2
        w = WeylOp.x(m, 1) - WeylOp.x(m, 2)
        expansion = subalgebra_membership(w)
        zeros = (0, 0)
        assert expansion == {
            SubalgebraWord((1, 0), 0, zeros, 0): Fraction(1),
            SubalgebraWord((0, 1), 0, zeros, 0): Fraction(-1),
        }

    def test_mu_plus_expands(self):
        m = 2
        w = WeylOp.y(m, 1) + WeylOp.y(m, 2)
        assert subalgebra_membership(w) == {
            SubalgebraWord((0, 0), 1, (0, 0), 0): Fraction(1)
        }

    def test_single_y_is_outside(self):
        assert subalgebra_membership(WeylOp.y(2, 1)) is None

    def test_single_dx_is_outside(self):
        assert subalgebra_membership(WeylOp.dx(2, 2)) is None

    def test_zero_is_inside(self):
        assert subalgebra_membership(WeylOp.zero(2)) == {}

    def test_expansion_reproduces_element(self):
        rng = random.Random(2718)
        m = 2
        for _ in range(100):
            # random element of the subalgebra as a product of generators
            op = WeylOp.one(m)
            for _ in range(rng.randrange(1, 5)):
                g = rng.choice(generators(m))
                op = op * generator_element(g, m)
            op = op * Fraction(rng.randrange(-3, 4) or 1, rng.randrange(1, 3))
            expansion = subalgebra_membership(op)
            assert expansion is not None
            rebuilt = WeylOp.zero(m)
            for word, c in expansion.items():
                rebuilt = rebuilt + word.to_weyl(m) * c
            assert rebuilt == op

    def test_words_multiplicatively_closed(self):
        rng = random.Random(909)
        m = 2
        for _ in range(150):
            w1 = SubalgebraWord(
                (rng.randrange(3), rng.randrange(3)),
                rng.randrange(3),
                (rng.randrange(3), rng.randrange(3)),
                rng.randrange(3),
            )
            w2 = SubalgebraWord(
                (rng.randrange(3), rng.randrange(3)),
                rng.randrange(3),
                (rng.randrange(3), rng.randrange(3)),
                rng.randrange(3),
            )
            product = w1.to_weyl(m) * w2.to_weyl(m)
            assert subalgebra_membership(product) is not None

    def test_word_expansion_is_bernstein_homogeneous(self):
        word = SubalgebraWord((1, 0), 2, (0, 1), 1)
        op = word.to_weyl(2)
        assert {sum(key) for key in op.coeffs} == {sum(word.alpha) + word.s + sum(word.delta) + word.r}

    def test_against_exhaustive_oracle(self):
        rng = random.Random(1414)
        m = 2
        cases = [
            WeylOp.y(m, 1),
            WeylOp.dx(m, 1),
            WeylOp.y(m, 1) + WeylOp.y(m, 2),
            WeylOp.x(m, 1) * (WeylOp.y(m, 1) + WeylOp.y(m, 2)),
            WeylOp.y(m, 1) * WeylOp.y(m, 2),  # not a power of the sum
        ]
        for _ in range(30):
            cases.append(random_op(rng, m, max_terms=2, max_len=2))
        for w in cases:
            got = subalgebra_membership(w)
            expected = exhaustive_membership(w)
            assert got == expected

    def test_mixed_y_product_is_outside(self):
        # y1*y2 is symmetric but not a polynomial in y1+y2 alone
        assert subalgebra_membership(WeylOp.y(2, 1) * WeylOp.y(2, 2)) is None

    def test_square_of_sum_is_inside(self):
        mup = generator_element(Generator("mu+"), 2)
        assert subalgebra_membership(mup * mup) == {
            SubalgebraWord((0, 0), 2, (0, 0), 0): Fraction(1)
        }


class TestRendering:
    def test_normal_order_names(self):
        op = WeylOp.x(2, 1) * WeylOp.dx(2, 1) ** 2 + WeylOp.y(2, 2) * WeylOp.dy(2, 1)
        assert str(op) == "x1*dx1^2 + y2*dy1"

    def test_rewritten_product(self):
        op = WeylOp.dy(1, 1) * WeylOp.y(1, 1)
        assert str(op) == "y1*dy1 + 1"

    def test_zero(self):
        assert str(WeylOp.zero(2)) == "0"
