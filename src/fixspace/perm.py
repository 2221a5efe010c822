"""Permutations and permutation groups with a deterministic stabilizer chain.

A permutation on 0..n-1 is an image tuple: g[i] is where i goes, and
pmul(a, b) applies a first, then b.  Everything a group takes or hands
out (generators, arguments, random elements, class members) is a tuple.
Inside a PermGroup the chain, its running products and its class sweep
hold elements in the encoding of its `codec` (`bulk_codec`): image
`bytes` up to degree 256, which compose and invert in C, and image
tuples above that, on the same code path.

Conjugacy classes come from one sweep over a shrinking set of the
encoded elements of G, read row by row off `_rows`, the one enumerator
of G (the orbit algorithm: each class is the
conjugation orbit, under the generators, of an element still in the
set).  A class keeps its members encoded; its `members` tuple is sorted
and decoded on first read.  The one element-to-class map is keyed by the
encoding and built on first use (`class_map`, `class_of`).  Which
element starts a class follows set order, and so the hash seed; nothing
read depends on it: a rep is the minimal member, the classes are sorted
and so is `members`.

The base of the stabilizer chain is always the smallest moved point at
each level and orbits are explored in sorted order, so bases, strong
generators, orders, transversals, random streams, and conjugacy class
data are reproducible functions of the generator list alone.

Chain levels are rebuilt lazily: installing a strong generator marks the
levels it belongs to dirty, and a dirty level's transversal is
recomputed from its strong generators the first time it is read.  That
is exactly what an eager recompute after every installation would hold,
so bases, strong generators and transversals do not depend on when
levels are read.  Each level also keeps its basic orbit as a set, closed
under the new generator when it is installed, so the order (the product
of the orbit lengths) is known without reading a transversal.
Transversal inverses are computed on first use and kept as right
operands (`Codec.right`), so a sift step is one `Codec.apply`.  A random
element takes one index per level from a single `SeedStream.randranges`
call over the group's `rng.Draws` (`_draws`, listed once beside the
transversal operands), and `element_at` builds it from those indices;
`skip_element` advances a stream by exactly those draws
(`SeedStream.skip`) and builds nothing.

An order-tested draw (`random_order`) makes the same draws and returns
the element's order with its indices.  The |G|-th such draw of a group
of order at most CLASS_CAP lists every element's order once, in draw
order, in one `array("I")` of 4·|G| bytes (about one element order per
element: a group that lists has paid at most twice what listing up front
would); later draws read it at the mixed-radix number of their indices.
`_rows` walks G a row at a time, a head (a product over the deepest
ceil(k/2) of the k levels) times every tail (a product over the rest), so
it holds the heads, the tails and one row: for A8 60, 336 and 336
elements, but for a one-level chain the heads are all of G.
No output depends on whether a group has listed.

`subgroup_order` knows |G|, so its build proves generation as soon as
the chain's orbit lengths multiply to |G| (see `_build_chain`).  Before
the deterministic Schreier loop it runs a product-replacement walk over
the inputs, whose residues it sifts against the transversals as they
stand; only when the walk stalls does the loop run, and it gives a proper
subgroup its exact order.  The walk is a fixed function of the inputs,
and a full build (every group a caller holds) never walks, so its chain
and random streams are those of the loop alone.  `generated_by` builds
no chain when the first base point's orbit is short.
"""

from __future__ import annotations

import re
from array import array
from functools import cache
from itertools import chain
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, NamedTuple

from . import ff
from .rng import Draws, SeedStream

CLASS_CAP = 10**6
DEGREE_CAP = 10**6   # largest degree a group file may declare
WALK_SLOTS = 5   # fewest product-replacement slots of a known-order build
WALK_IDLE = 4    # trivial sifts in a row after which its walk gives up


class NotBijection(ValueError):
    """Image vector is not a permutation of 0..n-1."""


class NotInGroup(ValueError):
    """Element fails membership in the group."""


class GroupTooLarge(ValueError):
    """Operation exceeds its size cap."""


class DegreeMismatch(ValueError):
    """Permutation degree differs from the group degree."""


# raw permutation helpers -------------------------------------------------


def identity(n: int) -> tuple:
    return tuple(range(n))


def pmul(a: tuple, b: tuple) -> tuple:
    """Composite permutation: apply a, then b."""
    return tuple([b[x] for x in a])


def pinv(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def pconj(g: tuple, h: tuple) -> tuple:
    """Conjugate h^-1 g h."""
    out = [0] * len(g)
    for i, x in enumerate(g):
        out[h[i]] = h[x]
    return tuple(out)


def ppow(g: tuple, e: int) -> tuple:
    n = len(g)
    if e < 0:
        return ppow(pinv(g), -e)
    acc = identity(n)
    base = g
    while e:
        if e & 1:
            acc = pmul(acc, base)
        base = pmul(base, base)
        e >>= 1
    return acc


class Codec(NamedTuple):
    """How a group of one degree stores permutations; see bulk_codec."""

    encode: Callable   # image tuple -> element; tuple() decodes
    inv: Callable
    right: Callable    # b -> the right operand form of b taken by apply
    apply: Callable    # (a, right(b)) -> a then b


@cache
def bulk_codec(degree: int) -> Codec:
    """The one permutation encoding of the chain, the draws and the classes.

    Up to degree 256 an element is its length-n image `bytes`: translate
    composes, maketrans inverts, and encodings sort like the tuples.  A
    right operand is padded to the 256-byte table translate takes.  Above
    256 an element is its image tuple and the tuple helpers do the work;
    its encode, like bytes(), raises ValueError on an entry that is no
    point.  Cached: every group of one degree shares one codec."""
    if degree > 256:
        def encode(images) -> tuple:
            g = tuple(images)   # tuple() of a tuple is that tuple: no copy
            if min(g) < 0 or max(g) >= degree:
                raise ValueError(f"image tuple has an entry outside 0..{degree - 1}")
            return g
        return Codec(encode, pinv, tuple, pmul)
    pad = bytes(range(degree, 256))
    ident = bytes(range(degree))
    return Codec(bytes, lambda g: bytes.maketrans(g, ident)[:degree],
                 lambda b: b + pad, bytes.translate)


def perm_from_images(images) -> tuple:
    g = tuple(images)
    if sorted(g) != list(range(len(g))):
        raise NotBijection(f"not a permutation of 0..{len(g) - 1}: {g}")
    return g


def cycle_lengths(g: tuple) -> list:
    seen = [False] * len(g)
    out = []
    for i in range(len(g)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = g[j]
            length += 1
        out.append(length)
    return out


def element_order(g: tuple) -> int:
    return lcm(*cycle_lengths(g))


def cycles_of(g: tuple) -> list:
    """Nontrivial cycles, each rotated to start at its minimum, sorted."""
    seen = [False] * len(g)
    out = []
    for i in range(len(g)):
        if seen[i] or g[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = g[j]
        out.append(tuple(cyc))
    return out


def perm_from_cycles(degree: int, cycles) -> tuple:
    """The permutation with the given cycles, written on points 1..degree."""
    images = list(range(degree))
    used = set()
    for cyc in cycles:
        pts = [c - 1 for c in cyc]
        for pt in pts:
            if not 0 <= pt < degree:
                raise NotBijection(f"cycle point {pt + 1} outside degree {degree}")
            if pt in used:
                raise NotBijection(f"point {pt + 1} repeated across cycles")
            used.add(pt)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return perm_from_images(images)


def format_cycles(g: tuple) -> str:
    """1-based cycle notation; identity prints as ()."""
    cycs = cycles_of(g)
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in cyc) + ")" for cyc in cycs)


# conjugacy classes --------------------------------------------------------


class ConjClass:
    """One conjugacy class: minimal-member representative, size and
    element order, read off the encoded members the class sweep found.

    `encoded` lists the members in the group's codec encoding, in the
    order the sweep met them.  `members` is the sorted tuple of image
    tuples; it is sorted and decoded on first read, so a caller that only
    needs reps and sizes never decodes a member."""

    __slots__ = ("rep", "size", "element_order", "encoded", "_members")

    def __init__(self, encoded: list):
        # encodings sort like the tuples: the least is the minimal member
        self.rep = tuple(min(encoded))
        self.size = len(encoded)
        self.element_order = element_order(self.rep)
        self.encoded = encoded
        self._members = None

    @property
    def members(self) -> tuple:
        if self._members is None:
            self._members = tuple(map(tuple, sorted(self.encoded)))
        return self._members

    def __repr__(self):
        return f"ConjClass(order={self.element_order}, size={self.size}, rep={format_cycles(self.rep)})"


# stabilizer chain ---------------------------------------------------------


def _orbit_closure(orbit: set, queue: list, gens) -> set:
    """Grow the point set orbit to its closure under gens, exploring from
    queue: the points of queue are in orbit, and every generator already
    takes each other point of orbit into orbit."""
    for x in queue:
        for s in gens:
            y = s[x]
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return orbit


class _Level:
    __slots__ = ("point", "installed", "orbit", "transversal", "inverse",
                 "orbit_list", "dirty")

    def __init__(self, point):
        self.point = point
        self.installed = []
        self.orbit = {point}
        self.transversal = {}
        self.inverse = {}
        self.orbit_list = []
        self.dirty = True

    def recompute(self, ident, apply, gens):
        """The transversal from the strong generators gens, as right operands."""
        b = self.point
        transversal = {b: ident}
        queue = [b]
        for x in queue:
            t_x = transversal[x]
            for s in gens:
                y = s[x]
                if y not in transversal:
                    transversal[y] = apply(t_x, s)
                    queue.append(y)
        self.transversal = transversal
        self.inverse = {}
        self.orbit_list = sorted(transversal)
        self.dirty = False


class PermGroup:
    """Permutation group with a deterministic base and strong generating set.

    The chain (installed strong generators, transversals and their
    inverses) holds elements in the encoding of bulk_codec(degree)."""

    def __init__(self, degree: int, gens, name: str | None = None, *, _stop_at: int = 0):
        self.degree = degree
        self.name = name
        checked = []
        for g in gens:
            g = perm_from_images(g)
            if len(g) != degree:
                raise NotBijection(f"generator degree {len(g)} != {degree}")
            checked.append(g)
        self.gens = tuple(checked)
        self.codec = bulk_codec(degree)
        self._ident = self.codec.encode(identity(degree))
        self._levels = []
        self._operands = None
        self._orders = None       # element orders in draw order; see random_order
        self._order_draws = 0
        self._build_chain(_stop_at)
        self.order = self._chain_order()
        self._classes = None
        self._class_map = None

    # chain construction ---------------------------------------------

    def _level(self, i: int) -> _Level:
        """Level i, recomputed from its strong generators if it is dirty."""
        lvl = self._levels[i]
        if lvl.dirty:
            lvl.recompute(self._ident, self.codec.apply,
                          list(map(self.codec.right, self._level_gens(i))))
        return lvl

    def _chain_order(self) -> int:
        return prod(len(lvl.orbit) for lvl in self._levels)

    def _inverse(self, lvl: _Level, y: int):
        """Inverse of the transversal element for y as a right operand,
        computed on first use."""
        t = lvl.inverse.get(y)
        if t is None:
            t = lvl.inverse[y] = self.codec.right(self.codec.inv(lvl.transversal[y]))
        return t

    def _sift(self, g, start: int = 0, lazy: bool = False):
        """Reduce the encoded g through levels from start; return
        (residue, stuck_level).  A lazy sift reads a dirty level's
        transversal as it stands and recomputes it only on a miss: the
        point is in the level's orbit set but not in its transversal."""
        lv = self._levels
        apply = self.codec.apply
        for i in range(start, len(lv)):
            lvl = lv[i]
            if lvl.dirty and not lazy:
                lvl = self._level(i)
            x = g[lvl.point]
            if x == lvl.point:
                continue
            if x not in lvl.transversal:
                if x not in lvl.orbit:
                    return g, i
                self._level(i)
            g = apply(g, self._inverse(lvl, x))
        return g, len(lv)

    def _level_gens(self, i: int) -> list:
        """Strong generators of the i-th stabilizer: everything installed at
        level i or deeper fixes the first i base points."""
        out = []
        for lvl in self._levels[i:]:
            out.extend(lvl.installed)
        return out

    def _add_generator(self, g, level: int) -> None:
        lv = self._levels
        if level == len(lv):
            moved = min(i for i, x in enumerate(g) if x != i)
            lv.append(_Level(moved))
        lv[level].installed.append(g)
        # the new generator lies in every stabilizer down to this level, so
        # shallower orbits can grow too: each orbit set is closed now, and
        # each transversal is rebuilt when next read
        for m in range(level + 1):
            lvl = lv[m]
            lvl.dirty = True
            orbit = lvl.orbit
            if len(orbit) == self.degree - m:
                continue   # every point but the m base points above
            new = [y for y in map(g.__getitem__, orbit) if y not in orbit]
            if new:
                orbit.update(new)
                _orbit_closure(orbit, new, self._level_gens(m))

    def _build_chain(self, stop_at: int = 0) -> None:
        """Schreier-Sims.  With stop_at (|G| for elements of G; see
        subgroup_order) the build returns as soon as the orbit sets'
        lengths multiply to stop_at, and a walk (_walk) runs between
        sifting the inputs and the deterministic Schreier loop.

        Why stopping is sound: every strong generator installed at level
        m, by the input sift, the walk or the loop, is a word in the
        inputs that fixes the base points of levels 0..m-1.  So each orbit
        set is an orbit of a subgroup of the true point stabilizer of
        H = <inputs>, and the product of the orbit lengths is at most |H|.
        Reaching |G| >= |H| proves H = G.  When the walk stalls, the
        unchanged loop completes the chain, so a proper subgroup still
        gets its exact order.  Full builds (stop_at = 0) never walk."""
        ident = self._ident
        for g in map(self.codec.encode, self.gens):
            if g == ident:
                continue
            res, at = self._sift(g)
            if res != ident:
                self._add_generator(res, at)
        if stop_at and (self._chain_order() == stop_at or self._walk(stop_at)):
            return
        i = len(self._levels) - 1
        while i >= 0:
            stuck = self._check_level(i)
            if stuck is None:
                i -= 1
            elif stop_at and self._chain_order() == stop_at:
                return
            else:
                i = stuck

    def _walk(self, stop_at: int) -> bool:
        """A product-replacement walk over the inputs (Celler et al. 1995):
        WALK_SLOTS or more slots hold the inputs, repeated; each step
        replaces one slot by its product with another and multiplies the
        running word by it.  The word is sifted lazily (stale transversals
        are as good as fresh ones for a residue) and a nontrivial residue
        is installed where it stuck.  True once the orbit lengths multiply
        to stop_at; False after WALK_IDLE trivial sifts in a row.  A fixed
        linear congruential sequence picks the slots: the walk draws from
        no SeedStream, so it is a function of the inputs alone."""
        right, apply = self.codec.right, self.codec.apply
        # slots and word are right operands: translate keeps the padding
        one = right(self._ident)
        slots = [s for s in map(right, map(self.codec.encode, self.gens)) if s != one]
        if not slots:
            return False
        slots = (slots * WALK_SLOTS)[:max(WALK_SLOTS, len(slots))]
        k = len(slots)
        word = one
        state = idle = 0
        while idle < WALK_IDLE:
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            i = state % k
            j = (i + 1 + (state >> 16) % (k - 1)) % k
            slots[i] = s = apply(slots[i], slots[j])
            word = apply(word, s)
            res, at = self._sift(word, lazy=True)
            if res == one:
                idle += 1
                continue
            idle = 0
            self._add_generator(res[:self.degree], at)   # unpadded
            if self._chain_order() == stop_at:
                return True
        return False

    def _check_level(self, i: int):
        """Sift all Schreier generators of level i through the deeper chain.
        Returns the level where a residue was installed, or None if clean."""
        lvl = self._level(i)
        ident = self._ident
        apply = self.codec.apply
        # right operands map points like their elements do
        gens = list(map(self.codec.right, self._level_gens(i)))
        transversal = lvl.transversal
        for x in lvl.orbit_list:
            t_x = transversal[x]
            for s in gens:
                t_xs = apply(t_x, s)
                y = s[x]
                if t_xs == transversal[y]:
                    continue
                res, at = self._sift(apply(t_xs, self._inverse(lvl, y)), i + 1)
                if res != ident:
                    self._add_generator(res, at)
                    return at
        return None

    # queries -----------------------------------------------------------

    def contains(self, g: tuple) -> bool:
        """Membership by sifting; no bijection check, so a tuple that is
        not a permutation is simply not a member."""
        if len(g) != self.degree:
            raise DegreeMismatch(f"degree {len(g)} vs group degree {self.degree}")
        try:
            g = self.codec.encode(g)
        except ValueError:
            return False   # an entry the codec refuses is no point of the group
        res, _ = self._sift(g)
        return res == self._ident

    def _draws(self) -> tuple:
        """(operands, draws, strides) of a random element: each level's
        transversal, deepest level first and in orbit_list order, as right
        operands; the rng Draws over the levels' orbit lengths (each at
        least 2: a level's base point is moved by the generator installed
        there); and the mixed-radix strides that number the draws' indices
        in draw order.  Listed on first use; the chain is complete by then
        and never changes."""
        if self._operands is None:
            right = self.codec.right
            ops = [[right(lvl.transversal[x]) for x in lvl.orbit_list]
                   for lvl in reversed(self._levels)]
            ns = list(map(len, ops))
            self._operands = ops, Draws(ns), [prod(ns[j + 1:]) for j in range(len(ns))]
        return self._operands

    def element_at(self, indices) -> tuple:
        """The element with one transversal index per level, deepest first:
        the product of those transversal elements."""
        apply = self.codec.apply
        g = self._ident
        for level, i in zip((self._operands or self._draws())[0], indices):
            g = apply(g, level[i])
        return tuple(g)

    def random_element(self, stream: SeedStream) -> tuple:
        """Exactly uniform: product of uniformly chosen transversal
        elements, one rng index per level drawn in a single call."""
        return self.element_at(stream.randranges((self._operands or self._draws())[1]))

    def random_order(self, stream: SeedStream) -> tuple:
        """(order, indices) of the element random_element would draw, with
        the same draws; element_at(indices) builds it.  See the module
        docstring for the listing of orders."""
        _, draws, strides = self._operands or self._draws()
        ind = stream.randranges(draws)
        orders = self._orders
        if orders is None:
            self._order_draws += 1
            if self._order_draws < self.order or self.order > CLASS_CAP:
                return element_order(self.element_at(ind)), ind
            orders = self._orders = array(
                "I", map(element_order, chain.from_iterable(self._rows())))
        return orders[sum(map(mul, ind, strides))], ind

    def skip_element(self, stream: SeedStream) -> None:
        """Advance stream exactly as random_element would, building nothing."""
        stream.skip((self._operands or self._draws())[1])

    def subgroup_order(self, elems) -> int:
        """Order of the subgroup generated by elems, via a fresh chain.

        The build knows |G|: a product-replacement walk installs residues
        until the product of the partial chain's orbit lengths reaches
        |G|.  Each orbit is an orbit of a subgroup of the true point
        stabilizer, so the product is a lower bound on the subgroup order,
        and reaching |G| proves that elems generate.  When the walk stalls
        the deterministic Schreier loop takes over, and a proper subgroup
        gets its full chain.  The partial chain is discarded here.  A
        member of G is a permutation, so the bijection check here runs
        only on a non-member, to name it; PermGroup checks the rest."""
        elems = list(elems)
        for e in elems:
            if not self.contains(e):
                raise NotInGroup(f"{format_cycles(perm_from_images(e))} is not in the group")
        return PermGroup(self.degree, elems, _stop_at=self.order).order

    def generated_by(self, elems) -> bool:
        """subgroup_order(elems) == |G| for elements of G, but with no chain
        built when G's first base point has a shorter orbit under elems
        than under G: <elems> <= G, so equal groups have equal orbits."""
        if self._levels:
            first = self._levels[0]
            b = first.point
            if len(_orbit_closure({b}, [b], elems)) < len(first.orbit):
                return False
        return self.subgroup_order(elems) == self.order

    def _rows(self):
        """Every element once, encoded, in draw order (see random_order),
        one row at a time: a row is one head, a product over the deepest
        ceil(k/2) of the k levels, times each tail, a product over the
        rest.  Holds every head and every tail while it runs.  See
        CLASS_CAP."""
        if self.order > CLASS_CAP:
            raise GroupTooLarge(f"group order {self.order} exceeds cap {CLASS_CAP}")
        ops = self._draws()[0]
        apply = self.codec.apply
        half = (len(ops) + 1) // 2
        heads, tails = [self._ident], [self.codec.right(self._ident)]
        for level in ops[:half]:
            heads = [apply(g, t) for g in heads for t in level]
        for level in ops[half:]:
            tails = [apply(g, t) for g in tails for t in level]
        for head in heads:
            yield [apply(head, t) for t in tails]

    def conjugacy_classes(self) -> tuple:
        """Classes sorted by (element order, size, minimal member), from
        one sweep over a shrinking set of G; see the module docstring."""
        if self._classes is not None:
            return self._classes
        encode, inv, right, apply = self.codec
        conjugators = [(inv(s), right(s)) for s in map(encode, self.gens)]
        remaining = set(chain.from_iterable(self._rows()))
        classes = []
        while remaining:
            members = [remaining.pop()]
            for m in members:
                x = right(m)
                for s_inv, s in conjugators:
                    y = apply(apply(s_inv, x), s)
                    if y in remaining:
                        remaining.remove(y)
                        members.append(y)
            classes.append(ConjClass(members))
        classes.sort(key=lambda c: (c.element_order, c.size, c.rep))
        self._classes = tuple(classes)
        return self._classes

    def class_map(self) -> dict:
        """Encoded element -> position of its class; built on first use."""
        if self._class_map is None:
            self._class_map = {g: i for i, c in enumerate(self.conjugacy_classes())
                               for g in c.encoded}
        return self._class_map

    def class_of(self, g: tuple) -> int:
        """Position of the class of the element g."""
        return self.class_map()[self.codec.encode(g)]

    def __repr__(self):
        label = self.name or f"degree-{self.degree} group"
        return f"PermGroup({label}, order={self.order})"


# standard constructions ----------------------------------------------------


def alternating(n: int) -> PermGroup:
    if n < 3:
        raise ValueError("alternating groups here start at degree 3")
    three = perm_from_cycles(n, [(1, 2, 3)])
    if n % 2 == 1:
        big = perm_from_cycles(n, [tuple(range(1, n + 1))])
    else:
        big = perm_from_cycles(n, [tuple(range(2, n + 1))])
    return PermGroup(n, (three, big), name=f"A{n}")


def symmetric(n: int) -> PermGroup:
    if n < 2:
        raise ValueError("symmetric groups here start at degree 2")
    swap = perm_from_cycles(n, [(1, 2)])
    big = perm_from_cycles(n, [tuple(range(1, n + 1))])
    return PermGroup(n, (swap, big), name=f"S{n}")


def psl2(q: int) -> PermGroup:
    """PSL(2, q) acting on the projective line: q field points then infinity.

    Generators: translation by one, multiplication by the square of a
    primitive element, and x -> -1/x.
    """
    base, k = ff.prime_power(q)
    F = ff.make_field(base, k)
    infinity = q
    gamma = ff.multiplicative_generator(F)
    gamma2 = F.mul(gamma, gamma)
    trans = tuple(F.add(x, 1) for x in range(q)) + (infinity,)
    mult = tuple(F.mul(gamma2, x) for x in range(q)) + (infinity,)
    invneg = (infinity,) + tuple(F.neg(F.inv(x)) for x in range(1, q)) + (0,)
    G = PermGroup(q + 1, (trans, mult, invneg), name=f"L2({q})")
    expected = q * (q * q - 1) // gcd(2, q - 1)
    if G.order != expected:
        raise AssertionError(f"PSL(2,{q}) construction has order {G.order}, expected {expected}")
    return G


def affine_frobenius_2a(a: int) -> PermGroup:
    """The group (2^a translations) : (cyclic 2^a - 1) on the field GF(2^a)."""
    F = ff.make_field(2, a)
    q = 1 << a
    gamma = ff.multiplicative_generator(F)
    trans = [F.add(x, 1) for x in range(q)]
    mult = [F.mul(gamma, x) for x in range(q)]
    G = PermGroup(q, (tuple(trans), tuple(mult)), name=f"F{q * (q - 1)}")
    if G.order != q * (q - 1):
        raise AssertionError(f"affine group over GF(2^{a}) has order {G.order}")
    return G


# builtin registry and group files -------------------------------------------

_BUILTIN_SPECS = {
    **{f"A{n}": (alternating, n) for n in range(4, 13)},
    **{f"S{n}": (symmetric, n) for n in range(3, 7)},
    **{f"L2_{q}": (psl2, q) for q in (7, 8, 11, 13)},
    "F12": (affine_frobenius_2a, 2),
    "F56": (affine_frobenius_2a, 3),
}


def builtin_group_names() -> list:
    return sorted(_BUILTIN_SPECS)


@cache
def builtin_group(name: str) -> PermGroup:
    if name not in _BUILTIN_SPECS:
        raise KeyError(f"unknown builtin group {name!r}; known: {builtin_group_names()}")
    fn, arg = _BUILTIN_SPECS[name]
    G = fn(arg)
    G.name = name
    return G


def parse_group_text(text: str) -> PermGroup:
    """Group file: 'group <name>', 'degree <n>', then 'gen <cycles>' lines.

    Cycle notation in files is 1-based; everything internal is 0-based.
    A malformed line raises ValueError naming its line number and text.
    """
    name = None
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if key == "group":
                if name is not None:
                    raise ValueError("second group line")
                name = rest
            elif key == "degree":
                if degree is not None:
                    raise ValueError("second degree line")
                degree = int(rest)
                if degree < 1:
                    raise ValueError("degree must be positive")
                if degree > DEGREE_CAP:
                    raise ValueError(f"degree exceeds cap {DEGREE_CAP}")
            elif key == "gen":
                if degree is None:
                    raise ValueError("gen line before degree line")
                gens.append(perm_from_cycles(degree, _parse_cycles(rest)))
            else:
                raise ValueError("unrecognized group-file line")
        except ValueError as exc:
            raise ValueError(f"group file line {lineno} {raw!r}: {exc}") from exc
    if degree is None or not gens:
        raise ValueError("group file needs a degree and at least one gen line")
    return PermGroup(degree, gens, name=name)


# one cycle: ASCII decimal entries, spaces allowed around commas and parentheses
_CYCLE = re.compile(r"\s*\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)?\s*\)\s*")


def _parse_cycles(text: str) -> list:
    cycles = []
    i = 0
    while i < len(text):
        m = _CYCLE.match(text, i)
        if m is None:
            raise ValueError(f"expected a cycle '(a,b,...)' of decimal entries at {text[i:]!r}")
        if m[1]:
            cycles.append(tuple(map(int, m[1].split(","))))
        i = m.end()
    return cycles


def read_group_file(path) -> PermGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read())
