import hashlib
import os
import re
import subprocess
import sys
from itertools import permutations, product

import pytest

from fixspace import perm
from fixspace.perm import (DegreeMismatch, NotBijection, PermGroup,
                           affine_frobenius_2a, alternating, builtin_group,
                           builtin_group_names, cycle_lengths, element_order,
                           format_cycles, identity, parse_group_text, pconj,
                           perm_from_cycles, pinv, pmul, ppow, psl2, symmetric)
from fixspace.rng import SeedStream


def cyclic(n):
    return PermGroup(n, (perm_from_cycles(n, [tuple(range(1, n + 1))]),), name=f"C{n}")


def format_group(G):
    lines = [f"group {G.name}"] if G.name else []
    lines.append(f"degree {G.degree}")
    lines += [f"gen {format_cycles(g)}" for g in G.gens]
    return "\n".join(lines) + "\n"


def is_transitive(G):
    seen = {0}
    queue = [0]
    for x in queue:
        for s in G.gens:
            if s[x] not in seen:
                seen.add(s[x])
                queue.append(s[x])
    return len(seen) == G.degree


def brute_elements(degree, gens):
    # closure by orbit of the identity under right multiplication
    seen = {identity(degree)}
    frontier = [identity(degree)]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = pmul(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def test_pmul_applies_left_then_right():
    # a then b: point 0 goes a: 0->1 then b: 1->2
    a = (1, 0, 2)
    b = (0, 2, 1)
    assert pmul(a, b)[0] == 2


def test_pinv_pconj_ppow():
    g = perm_from_cycles(5, [(1, 2, 3), (4, 5)])
    assert pmul(g, pinv(g)) == identity(5)
    h = perm_from_cycles(5, [(1, 4)])
    assert pconj(g, h) == pmul(pinv(h), pmul(g, h))
    assert ppow(g, 6) == identity(5)
    assert ppow(g, -1) == pinv(g)
    assert element_order(g) == 6
    assert sorted(cycle_lengths(g)) == [2, 3]


def test_perm_from_cycles_validation():
    with pytest.raises(ValueError):
        perm_from_cycles(3, [(1, 1)])
    with pytest.raises(ValueError):
        perm_from_cycles(3, [(1, 4)])


def test_format_cycles_roundtrip():
    g = perm_from_cycles(7, [(1, 3, 5), (2, 7)])
    assert format_cycles(identity(4)) == "()"
    text = format_cycles(g)
    G_text = f"group t\ndegree 7\ngen {text}\n"
    assert parse_group_text(G_text).gens[0] == g


def test_group_order_small_symmetric_and_alternating():
    for n, fact in [(3, 6), (4, 24), (5, 120), (6, 720)]:
        assert symmetric(n).order == fact
        assert alternating(n).order == fact // 2


def test_order_matches_brute_force_enumeration():
    for G in [symmetric(4), alternating(5), cyclic(12),
              builtin_group('F12'), builtin_group('S3')]:
        assert G.order == len(brute_elements(G.degree, G.gens))


def test_contains_exact():
    G = alternating(5)
    evens = brute_elements(5, G.gens)
    for g in permutations(range(5)):
        assert G.contains(g) == (g in evens)


def test_contains_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        alternating(5).contains((1, 0, 2))


def test_elements_listing():
    # the conjugacy classes list every element exactly once
    G = symmetric(4)
    els = [g for cls in G.conjugacy_classes() for g in cls.members]
    assert len(els) == 24
    assert len(set(els)) == 24
    assert all(G.contains(g) for g in els)


def test_conjugacy_classes_against_brute_force():
    for name in ['S3', 'A4', 'S4', 'A5']:
        G = builtin_group(name)
        classes = G.conjugacy_classes()
        assert sum(c.size for c in classes) == G.order
        elems = brute_elements(G.degree, G.gens)
        for cls in classes:
            orbit = {pconj(cls.rep, h) for h in elems}
            assert orbit == set(cls.members)
            assert len(orbit) == cls.size
            assert element_order(cls.rep) == cls.element_order


def orbit_classes(G):
    # classes as conjugation orbits under the generators, found in sorted
    # element order, with members and index kept as tuples throughout
    elems = sorted(brute_elements(G.degree, G.gens))
    assigned, classes = set(), []
    for g in elems:
        if g in assigned:
            continue
        members = {g}
        queue = [g]
        for x in queue:
            for s in G.gens:
                y = pconj(x, s)
                if y not in members:
                    members.add(y)
                    queue.append(y)
        assigned |= members
        classes.append((g, len(members), element_order(g), tuple(sorted(members))))
    classes.sort(key=lambda c: (c[2], c[1], c[0]))
    index = {m: i for i, c in enumerate(classes) for m in c[3]}
    return classes, index


def test_classes_and_elements_match_tuple_orbits():
    # SL3(3) on 26 vectors, SL2(17) on 288 vectors (past the byte encoding),
    # and cyclic groups on either side of degree 256
    from fixspace.ff import make_field
    from fixspace.matrep import builtin_matgroup, embed_matrix_group
    sl2_17, _ = embed_matrix_group(make_field(17), 2,
                                   [[[1, 1], [0, 1]], [[0, 1], [16, 0]]])
    groups = [builtin_group(n) for n in ('S4', 'A6', 'L2_8', 'F56')]
    groups += [builtin_matgroup('SL3_3')[0], sl2_17, cyclic(256), cyclic(257)]
    for G in groups:
        classes, index = orbit_classes(G)
        got = [(c.rep, c.size, c.element_order, c.members)
               for c in G.conjugacy_classes()]
        assert got == classes
        assert len(G.class_map()) == len(index)
        assert all(G.class_of(m) == i for m, i in index.items())


# every class datum a caller can read, hashed in a fresh interpreter: bytes
# hashes, and so set order and the member each class sweep starts from,
# depend on PYTHONHASHSEED, and nothing read may
HASH_SEED_PROBE = """
import hashlib
from fixspace import chartab, gensearch
from fixspace.ff import make_field
from fixspace.matrep import builtin_matgroup, embed_matrix_group
from fixspace.perm import builtin_group
sl2_17, _ = embed_matrix_group(make_field(17), 2, [[[1, 1], [0, 1]], [[0, 1], [16, 0]]])
data = []
for G in [builtin_group('A6'), builtin_group('S6'), builtin_matgroup('SL3_3')[0], sl2_17]:
    classes = G.conjugacy_classes()
    data.append([(c.rep, c.size, c.element_order, c.members) for c in classes])
    data.append([G.class_of(m) for c in classes for m in c.members])
t = chartab.character_table(builtin_group('S6'))
data.append((t.exponent, t.modulus, t.degrees, t.values, t.inverse_class))
data.append(gensearch.exhaustive_triple_search(builtin_group('A6'), 3))
print(hashlib.sha256(repr(data).encode()).hexdigest())
"""


def test_classes_do_not_depend_on_the_hash_seed():
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        run = subprocess.run([sys.executable, "-c", HASH_SEED_PROBE], env=env,
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert len(outs[0].strip()) == 64
    assert outs[0] == outs[1]


def test_bound_checks_decode_no_member():
    # the bound clauses read reps, sizes and orders only: no class decodes
    # its members and no class map is built; members read afterwards are
    # the tuple orbits
    from fixspace.bounds import check_bound_theorems
    from fixspace.ff import make_field
    from fixspace.matrep import build_rep, deleted, perm_module
    G = alternating(8)
    assert check_bound_theorems(build_rep(deleted(perm_module(G)), make_field(3)), 3).holds
    classes = G.conjugacy_classes()
    assert all(c._members is None for c in classes)
    assert G._class_map is None
    expected, _ = orbit_classes(G)
    assert [(c.rep, c.size, c.element_order, c.members) for c in classes] == expected


def test_class_sizes_a5():
    sizes = sorted(c.size for c in builtin_group('A5').conjugacy_classes())
    assert sizes == [1, 12, 12, 15, 20]


def test_random_element_membership_and_determinism():
    G = builtin_group('A7')
    s1, s2 = SeedStream(9), SeedStream(9)
    seq1 = [G.random_element(s1) for _ in range(50)]
    seq2 = [G.random_element(s2) for _ in range(50)]
    assert seq1 == seq2
    assert all(G.contains(g) for g in seq1)


def test_random_element_exactly_uniform_on_small_group():
    # with the full group enumerable, every element must be reachable
    G = builtin_group('S3')
    s = SeedStream(1)
    seen = {G.random_element(s) for _ in range(600)}
    assert seen == brute_elements(G.degree, G.gens)


def test_subgroup_order():
    G = symmetric(5)
    a = perm_from_cycles(5, [(1, 2, 3, 4, 5)])
    b = perm_from_cycles(5, [(1, 2)])
    assert G.subgroup_order([a]) == 5
    assert G.subgroup_order([a, b]) == 120
    assert G.subgroup_order([]) == 1


def test_subgroup_order_matches_brute_force():
    # generating pairs stop at |G| early; the rest build the full chain
    seen = set()
    for name in ['A5', 'S5', 'A6', 'L2_7']:
        G = builtin_group(name)
        s = SeedStream(23)
        for _ in range(12):
            x = G.random_element(s)
            y = G.random_element(s)
            for elems in ([x], [x, y]):
                want = len(brute_elements(G.degree, elems))
                assert G.subgroup_order(elems) == want
                assert PermGroup(G.degree, elems).order == want
                seen.add(want == G.order)
    assert seen == {True, False}


# x -> x + 1 and x -> -1/x on GF(5) and infinity (point 5): L2(5) = A5 in A6,
# transitive on the 6 points
L2_5_GENS = ((1, 2, 3, 4, 0, 5), (5, 4, 2, 3, 1, 0))


def generated_by_cases():
    """(group, elems) pairs: seeded pairs and singletons from every builtin
    of order <= 10^4, an intransitive group, the trivial group, and A6
    pairs that generate L2(5) = A5, transitive on the 6 points."""
    for name in builtin_group_names():
        G = builtin_group(name)
        if G.order > 10**4:
            continue
        s = SeedStream(31)
        for _ in range(10):
            x, y = G.random_element(s), G.random_element(s)
            yield G, [x, y]
            yield G, [x]
    C3xC3 = PermGroup(6, [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)])
    a, b = C3xC3.gens
    yield from ((C3xC3, e) for e in ([a, b], [a], [b], [a, pinv(a)], [pmul(a, b), b], []))
    trivial = PermGroup(1, [(0,)])
    yield from ((trivial, e) for e in ([], [(0,)]))
    A6 = builtin_group('A6')
    t, u = L2_5_GENS
    s = SeedStream(5)
    for _ in range(6):
        h = A6.random_element(s)
        yield A6, [pconj(t, h), pconj(u, h)]
    yield A6, []


def test_generated_by_matches_subgroup_order(monkeypatch):
    # the orbit test must never change the answer; count how many cases it
    # settles alone, so that both the orbit test and the chain are reached
    built = []
    subgroup_order = PermGroup.subgroup_order

    def counted(self, elems):
        built.append(len(elems))
        return subgroup_order(self, elems)

    cases = list(generated_by_cases())
    want = [G.subgroup_order(e) == G.order for G, e in cases]
    monkeypatch.setattr(PermGroup, "subgroup_order", counted)
    got = [G.generated_by(e) for G, e in cases]
    assert got == want
    assert True in want and False in want
    orbit_only = len(cases) - len(built)
    assert 0 < orbit_only
    assert sum(not w for w in want) > orbit_only   # some False needs the chain


def test_generated_by_leaves_l2_5_to_the_chain():
    # L2(5) moves point 0 round all 6 points, like A6: only the chain sees
    # that it is proper
    A6 = builtin_group('A6')
    t, u = L2_5_GENS
    assert A6.subgroup_order([t, u]) == 60
    assert len(A6._levels[0].orbit_list) == 6
    assert not A6.generated_by([t, u])


# SHA-256 prefixes of (base points, installed strong generators decoded to
# image tuples, orbit lists) and the first 50 random elements from
# SeedStream(1); any change to the chain construction that moves a base, a
# generator or a draw shows here
CHAIN_PINS = {
    'A10': 'f59f204fd49c1b50', 'A11': '0ca61e5a22ea685e',
    'A12': '7d2d0e3428172ed7', 'A4': '8ba72282a105a0f9',
    'A5': '7d1f2ef599f139ad', 'A6': '55ec6fddf4c78f6e',
    'A7': 'e80bacd842d19c8a', 'A8': '0882ef480ceddf3b',
    'A9': 'ca8866e3a3284f62', 'F12': 'd8adaed59e38d182',
    'F56': 'f55d8cbe176cc99f', 'L2_11': '770b0101c2a2e1e6',
    'L2_13': '6fa6ede1d314dd84', 'L2_7': 'add37848ed317548',
    'L2_8': '1231533e5aceadc8', 'S3': 'ee6a5c296cb55d97',
    'S4': '93c55a144fe75f43', 'S5': 'c27060f868edfd67',
    'S6': 'b3d304c2890323e4',
}


def test_chain_pins():
    assert sorted(CHAIN_PINS) == builtin_group_names()
    for name, pin in CHAIN_PINS.items():
        G = builtin_group(name)
        s = SeedStream(1)
        draws = [G.random_element(s) for _ in range(50)]
        chain = [(lvl.point, [tuple(g) for g in lvl.installed], lvl.orbit_list)
                 for lvl in G._levels]
        digest = hashlib.sha256(repr((chain, draws)).encode()).hexdigest()
        assert digest[:16] == pin, name


def test_psl2_orders_and_degrees():
    # |PSL2(q)| on q + 1 points
    for q, order in [(7, 168), (8, 504), (11, 660), (13, 1092)]:
        G = psl2(q)
        assert G.degree == q + 1
        assert G.order == order
        assert is_transitive(G)


def test_builtin_registry():
    names = builtin_group_names()
    assert 'A5' in names and 'L2_7' in names and 'F56' in names
    with pytest.raises(KeyError):
        builtin_group('nonsense')
    # builtin cache returns the same object
    assert builtin_group('A5') is builtin_group('A5')


def test_affine_frobenius_builtins():
    F12 = builtin_group('F12')
    F56 = builtin_group('F56')
    assert (F12.degree, F12.order) == (4, 12)
    assert (F56.degree, F56.order) == (8, 56)
    # Frobenius: point stabilizer of 0 is the cyclic complement
    assert is_transitive(F12) and is_transitive(F56)
    orders12 = sorted(c.element_order for c in F12.conjugacy_classes())
    assert orders12 == [1, 2, 3, 3]


def test_group_file_roundtrip(tmp_path):
    G = builtin_group('L2_7')
    text = format_group(G)
    H = parse_group_text(text)
    assert H.order == G.order and H.degree == G.degree and H.name == G.name
    bad = tmp_path / "bad.grp"
    bad.write_text("group x\ngen (1,2)\n")
    with pytest.raises(ValueError):
        parse_group_text(bad.read_text())


@pytest.mark.parametrize("text, line", [
    ("degree 5\ndegree 6\ngen (1,2)", "line 2 'degree 6'"),
    ("degree 3\ngen (1,2,3", "line 2 'gen (1,2,3'"),
    ("degree 0\ngen ()", "line 1 'degree 0'"),
    ("group A\ngroup B\ndegree 3\ngen (1,2,3)", "line 2 'group B': second group line"),
    ("degree 3\norder 3\ngen (1,2,3)", "line 2 'order 3': unrecognized group-file line"),
    ("group A\ndegree 3\n", "group file needs a degree and at least one gen line"),
], ids=["second-degree", "unclosed-cycle", "degree-zero", "second-group", "unknown-key",
        "no-gens"])
def test_group_file_errors_name_the_line(text, line):
    with pytest.raises(ValueError, match=re.escape(line)):
        parse_group_text(text)


@pytest.mark.parametrize("cycle", ["(1 2)", "(1_0,2)", "(+1,2)", "(1,,2)", "(1,2)x"])
def test_group_file_cycle_entries_are_decimal_digits(cycle):
    # with its space dropped, "(1 2)" would read as the 1-cycle (12), the identity
    text = f"group T\ndegree 20\ngen {cycle}\ngen (1,2,3)\n"
    with pytest.raises(ValueError, match=re.escape(f"line 3 'gen {cycle}'")):
        parse_group_text(text)


def test_group_file_cycles_allow_spaces_around_commas_and_parentheses():
    spaced = parse_group_text("degree 4\ngen (1, 2)( 3 ,4)\n").gens[0]
    assert spaced == parse_group_text("degree 4\ngen (1,2)(3,4)\n").gens[0] == (1, 0, 3, 2)


def test_group_from_generators_rejects_non_bijections():
    with pytest.raises(NotBijection):
        PermGroup(3, [(0, 0, 1)])
    with pytest.raises(NotBijection, match="generator degree 2 != 3"):
        PermGroup(3, [(1, 0)])


def test_standard_groups_refuse_degrees_below_their_range():
    with pytest.raises(ValueError, match="alternating groups here start at degree 3"):
        alternating(2)
    with pytest.raises(ValueError, match="symmetric groups here start at degree 2"):
        symmetric(1)


def test_conj_class_repr_names_order_size_and_representative():
    cls = builtin_group("A5").conjugacy_classes()[1]
    assert repr(cls) == "ConjClass(order=2, size=15, rep=(2,3)(4,5))"


def test_identity_group():
    G = PermGroup(4, [identity(4)])
    assert G.order == 1
    assert G.conjugacy_classes()[0].size == 1
    # no levels, so a run of no draws: the stream stays where it was
    assert G._draws()[1].ns == ()
    s = SeedStream(5)
    before = s._state
    assert G.random_element(s) == identity(4)
    G.skip_element(s)
    assert s._state == before


# fresh groups (builtin_group is cached across tests), each of order at
# most CLASS_CAP, so each lists its element orders at its |G|-th draw;
# among them the identity group (no levels), C257 (one level, above the
# byte codec) and A8 (20,160 draws before it lists)
LISTING_GROUPS = {
    "1": lambda: PermGroup(4, [identity(4)]), "A5": lambda: alternating(5),
    "L2_7": lambda: psl2(7), "S6": lambda: symmetric(6),
    "F56": lambda: affine_frobenius_2a(3), "A7": lambda: alternating(7),
    "C257": lambda: cyclic(257), "A8": lambda: alternating(8),
}


@pytest.mark.parametrize("name", LISTING_GROUPS)
def test_random_order_matches_random_element_across_the_listing(name):
    G = LISTING_GROUPS[name]()
    s, twin = SeedStream(7), SeedStream(7)
    for k in range(2 * G.order + 3):
        assert (G._orders is None) == (k < G.order), k
        order, ind = G.random_order(s)
        g = G.random_element(twin)
        assert (G.element_at(ind), order) == (g, element_order(g)), k
        if k % 3 == 0:
            G.skip_element(s)
            G.skip_element(twin)
    assert s._state == twin._state
    # every index of the listing, counted in draw order
    ns = G._draws()[1].ns
    assert len(G._orders) == G.order
    for n, ind in enumerate(product(*map(range, ns))):
        assert G._orders[n] == element_order(G.element_at(ind)), ind


def test_random_order_never_lists_past_the_cap(monkeypatch):
    monkeypatch.setattr(perm, "CLASS_CAP", 100)
    G = psl2(7)
    s, twin = SeedStream(3), SeedStream(3)
    for _ in range(2 * G.order):
        order, ind = G.random_order(s)
        assert order == element_order(G.random_element(twin))
    assert G._orders is None


def recomputed_chain_order(self):
    # the order as read before levels kept orbit sets: every dirty level
    # recomputed, then the orbit lists' lengths multiplied
    order = 1
    for i in range(len(self._levels)):
        order *= len(self._level(i).orbit_list)
    return order


def install_oracle_pairs():
    """(group, pair, generates): seeded pairs of A7, A9, A12, L2(13) and
    SL2(17) on 288 points (the tuple codec), three that generate and three
    that do not for each group."""
    from fixspace.ff import make_field
    from fixspace.matrep import embed_matrix_group
    sl2_17, _ = embed_matrix_group(make_field(17), 2,
                                   [[[1, 1], [0, 1]], [[0, 1], [16, 0]]])
    groups = [builtin_group(n) for n in ('A7', 'A9', 'A12', 'L2_13')] + [sl2_17]
    assert sl2_17.degree == 288
    out = []
    for G in groups:
        s = SeedStream(41)
        kept = {True: 0, False: 0}
        for _ in range(400):
            pair = [G.random_element(s), G.random_element(s)]
            generates = G.generated_by(pair)
            if kept[generates] < 3:
                kept[generates] += 1
                out.append((G, pair, generates))
        assert kept == {True: 3, False: 3}, G
    return out


def test_known_order_builds_install_words_that_fix_the_base_above(monkeypatch):
    # a known-order build's walk sifts against stale transversals, so its
    # installs are not those of recomputing every dirty level at each stop
    # check; what the walk's proof reads is that each install lies in
    # <pair> and fixes the base points above its level, and that each
    # orbit set is the points of its level's transversal once recomputed.
    # The order and verdict must not depend on when levels are recomputed
    cases = install_oracle_pairs()
    spans = [PermGroup(G.degree, pair) for G, pair, _ in cases]
    installs = []
    add = PermGroup._add_generator

    def logged(self, g, level):
        installs.append((tuple(g), level))
        add(self, g, level)

    def builds():
        out = []
        for (G, pair, generates), span in zip(cases, spans):
            installs.clear()
            H = PermGroup(G.degree, pair, _stop_at=G.order)
            assert (H.order == G.order) == generates
            out.append(H.order)
            base = [lvl.point for lvl in H._levels]
            assert installs
            for g, level in installs:
                assert span.contains(g)
                assert all(g[b] == b for b in base[:level])
            for i in range(len(H._levels)):
                lvl = H._level(i)
                assert lvl.orbit == set(lvl.transversal)
        return out

    monkeypatch.setattr(PermGroup, "_add_generator", logged)
    got = builds()
    assert got == [span.order for span in spans]
    monkeypatch.setattr(PermGroup, "_chain_order", recomputed_chain_order)
    assert builds() == got


def known_order_oracle_cases():
    """(group, elems): for every builtin and SL2(17) on 288 points (the
    tuple codec), its own generators, seeded pairs, conjugate pairs and
    pairs of powers of one element, a single generator, the identity and
    no elements at all."""
    from fixspace.ff import make_field
    from fixspace.matrep import embed_matrix_group
    sl2_17, _ = embed_matrix_group(make_field(17), 2,
                                   [[[1, 1], [0, 1]], [[0, 1], [16, 0]]])
    for G in [builtin_group(n) for n in builtin_group_names()] + [sl2_17]:
        s = SeedStream(43)
        yield G, list(G.gens)
        for _ in range(4):
            x, y, h = (G.random_element(s) for _ in range(3))
            yield from ((G, e) for e in ([x, y], [x, pconj(x, h)],
                                         [ppow(x, 2), ppow(x, 3)], [x]))
        yield from ((G, e) for e in ([identity(G.degree)], []))


def test_known_order_builds_agree_with_full_builds(monkeypatch):
    # a full build (no walk) is the oracle: a known-order build gives |G|
    # exactly when the elements generate, and a proper subgroup its exact
    # order; the walk must both finish builds and stall into the
    # deterministic loop
    walks = []
    walk = PermGroup._walk

    def logged(self, stop_at):
        done = walk(self, stop_at)
        walks.append((bool(self._levels), done))   # inputs left a chain to walk on
        return done

    monkeypatch.setattr(PermGroup, "_walk", logged)
    verdicts = {}
    for G, elems in known_order_oracle_cases():
        want = PermGroup(G.degree, elems).order
        assert PermGroup(G.degree, elems, _stop_at=G.order).order == want
        assert G.subgroup_order(elems) == want
        verdicts.setdefault(G, set()).add(want == G.order)
    assert len(verdicts) == len(builtin_group_names()) + 1
    assert all(v == {True, False} for v in verdicts.values())
    assert {(True, True), (True, False)} <= set(walks)


def test_orbit_sets_are_the_transversal_points():
    for name in builtin_group_names():
        G = builtin_group(name)
        for i in range(len(G._levels)):
            lvl = G._level(i)
            assert lvl.orbit == set(lvl.transversal), (name, i)


# the tuple codec as an oracle for the bytes codec ---------------------------


def chain_view(G):
    """Base points, strong generators, orbit lists and transversals, decoded."""
    return [(lvl.point, [tuple(g) for g in lvl.installed], lvl.orbit_list,
             {x: tuple(t) for x, t in lvl.transversal.items()})
            for lvl in G._levels]


def codec_oracle_groups():
    # every builtin, the subgroups generated by the random elements of
    # test_subgroup_order_matches_brute_force, and degree 256 (the last
    # byte-encoded degree) beside degree 257 (the first tuple one)
    builders = [lambda G=builtin_group(name): PermGroup(G.degree, G.gens)
                for name in builtin_group_names()]
    for name in ['A5', 'S5', 'A6', 'L2_7']:
        G = builtin_group(name)
        s = SeedStream(23)
        for _ in range(12):
            gens = (G.random_element(s), G.random_element(s))
            builders.append(lambda d=G.degree, gens=gens: PermGroup(d, gens))
    return builders + [lambda: affine_frobenius_2a(8), lambda: psl2(256)]


# SHA-256 of chain_view and of 50 random elements at each of seeds 1-3 for
# every builtin, recorded before known-order builds walked: full builds,
# whose transversals drive every random stream, must not move
FULL_BUILD_DIGEST = "544f52d4965372b4f22b092bd3279ce934efc361f69e9e981d104672148481ed"


def test_full_builds_are_pinned():
    digest = hashlib.sha256()
    for name in builtin_group_names():
        G = builtin_group(name)
        draws = []
        for seed in (1, 2, 3):
            s = SeedStream(seed)
            draws.append([G.random_element(s) for _ in range(50)])
        digest.update(repr((name, chain_view(G), draws)).encode())
    assert digest.hexdigest() == FULL_BUILD_DIGEST


def test_bytes_chain_agrees_with_tuple_codec(monkeypatch):
    # each group built twice, the second time with the tuple codec that
    # degrees above 256 use; classes only up to order 20160 (the class
    # sweep on tuples is slow), see test_classes_and_elements_match_tuple_orbits
    tuple_codec = perm.bulk_codec(257)
    answers, generated = set(), set()
    for build in codec_oracle_groups():
        G = build()
        with monkeypatch.context() as m:
            m.setattr(perm, "bulk_codec", lambda degree: tuple_codec)
            T = build()
        assert T._ident == identity(G.degree)
        assert (T.order, chain_view(T)) == (G.order, chain_view(G))
        draws = []
        for seed in (1, 2, 3):
            sg, st = SeedStream(seed), SeedStream(seed)
            got = [G.random_element(sg) for _ in range(50)]
            assert got == [T.random_element(st) for _ in range(50)]
            draws += got
        swap = perm_from_cycles(G.degree, [(1, 2)])
        for g in draws + [pmul(d, swap) for d in draws[:20]]:
            answers.add(G.contains(g))
            assert G.contains(g) == T.contains(g)
        for elems in [draws[:1], draws[1:3], draws[3:5]]:
            order = G.subgroup_order(elems)
            assert T.subgroup_order(elems) == order
            generated.add(order == G.order)
        if G.order <= 20160:
            view = lambda H: [(c.rep, c.size, c.element_order, c.members)
                              for c in H.conjugacy_classes()]
            assert view(G) == view(T)
            assert all(G.class_of(m) == T.class_of(m) == i
                       for i, c in enumerate(G.conjugacy_classes()) for m in c.members)
    assert answers == generated == {True, False}


def test_contains_rejects_entries_past_the_byte_range():
    # a tuple is not a member if it is not a permutation, bytes or not
    G = alternating(5)
    assert not G.contains((0, 1, 2, 3, 300))
    assert not G.contains((0, 1, 2, 3, -1))
    assert not G.contains((0, 1, 2, 3, 5))
    H = affine_frobenius_2a(8)
    assert not H.contains(tuple(range(255)) + (256,))
    assert H.contains(tuple(range(256)))


def test_contains_rejects_entries_outside_the_points_above_degree_256():
    # the tuple codec: as an index, -1 would alias the last point and 300 raise IndexError
    c = tuple(range(1, 300)) + (0,)
    G = PermGroup(300, [c])
    assert G.contains(c) and G.contains(identity(300))
    aliased = list(c)
    aliased[aliased.index(299)] = -1
    assert not G.contains(tuple(aliased))
    assert not G.contains(c[:-1] + (300,))


def test_subgroup_order_rejects_non_permutations_by_name():
    G = builtin_group('A5')
    with pytest.raises(NotBijection, match=re.escape("(0, 0, 1, 2, 3)")):
        G.subgroup_order([(0, 0, 1, 2, 3)])
    with pytest.raises(NotBijection):
        G.subgroup_order([(0, 1, 2, 3, 300)])


def test_subgroup_order_checks_each_element_once(monkeypatch):
    G = builtin_group('A7')
    elems = [perm_from_cycles(7, [(1, 2, 3)]), perm_from_cycles(7, [(3, 4, 5, 6, 7)]),
             perm_from_cycles(7, [(1, 2), (3, 4)])]
    calls, check = [], perm.perm_from_images
    monkeypatch.setattr(perm, "perm_from_images", lambda g: calls.append(g) or check(g))
    assert G.subgroup_order(elems) == G.order
    assert len(calls) == len(elems)


def test_classes_refuse_groups_past_the_cap():
    # |A10| = 1,814,400: refused before any element is listed
    G = builtin_group("A10")
    assert G.order > perm.CLASS_CAP
    for query in (G.conjugacy_classes, G.class_map):
        with pytest.raises(perm.GroupTooLarge, match="exceeds cap 1000000"):
            query()
