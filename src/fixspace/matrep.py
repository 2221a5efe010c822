"""Matrix representations of permutation groups over finite fields.

A representation is described by a small recipe AST (ModuleSpec) and
evaluated structurally: the matrix of a group element is computed from
the element itself, never from a word in the generators, so the map
g -> image(g) is a homomorphism by construction. Supported recipes:
permutation module, deleted (sum-zero) module, tensor product, dual,
Frobenius twist, symmetric power, explicit matrix generators, and
sub/quotient sections.

Building a MatRep compiles its recipe in one walk into the group, the
dimension and the image function. The walk refuses a node over another
field, and finds an automatic section's basis (a section with none in the
recipe) by Norton's test on the parent it builds; the built
representation keeps no cache, and its spec is the recipe as given.

The deleted module is the span of e_i - e_0 inside the permutation
module, which is the sum-zero hyperplane in every characteristic.
When p divides the point count it contains the all-ones vector and is
reducible; the dimension n - 2 heart is then reached via section().
"""

import json
import math
from functools import cache
from itertools import accumulate, combinations_with_replacement
from typing import NamedTuple

from . import ff, linalg
from .ff import FieldCtx
from .perm import (DEGREE_CAP, PermGroup, NotInGroup, pinv, pmul, element_order,
                   builtin_group)
from .rng import SeedStream


class IllTyped(ValueError):
    """Recipe AST violates a structural requirement."""


class FieldMismatch(ValueError):
    """Recipe mixes distinct coefficient fields."""


class NotSemisimple(ValueError):
    """Eigenspace data requested for an element of order divisible by p."""


class NotInvertible(ValueError):
    pass


class OrbitTooLarge(ValueError):
    pass


class Inconclusive(RuntimeError):
    """Irreducibility search drew MAX_DRAWS random elements with no verdict:
    in practice, a module that is irreducible but not absolutely irreducible."""


# recipe AST ----------------------------------------------------------------


class ModuleSpec(NamedTuple):
    kind: str
    children: tuple = ()
    group: object = None
    field: object = None
    power: int = 0
    orbit: tuple = ()
    seed_index: tuple = ()
    basis: tuple = None
    mode: str = ""


def perm_module(group: PermGroup, field: FieldCtx = None) -> ModuleSpec:
    return ModuleSpec(kind="perm", group=group, field=field)


def deleted(spec: ModuleSpec) -> ModuleSpec:
    if spec.kind != "perm":
        raise IllTyped("deleted applies to a permutation module only")
    return ModuleSpec(kind="deleted", children=(spec,))


def tensor(a: ModuleSpec, b: ModuleSpec) -> ModuleSpec:
    return ModuleSpec(kind="tensor", children=(a, b))


def dual(spec: ModuleSpec) -> ModuleSpec:
    return ModuleSpec(kind="dual", children=(spec,))


def frobenius_twist(spec: ModuleSpec, i: int) -> ModuleSpec:
    if i < 0:
        raise IllTyped("twist exponent must be nonnegative")
    return ModuleSpec(kind="twist", children=(spec,), power=i)


def sym_power(spec: ModuleSpec, s: int) -> ModuleSpec:
    if s < 1:
        raise IllTyped("symmetric power needs s >= 1")
    return ModuleSpec(kind="sym", children=(spec,), power=s)


def section(spec: ModuleSpec, mode: str, basis=None) -> ModuleSpec:
    if mode not in ("sub", "quotient"):
        raise IllTyped(f"section mode {mode!r} is not sub or quotient")
    if basis is not None:
        basis = tuple(tuple(v) for v in basis)
    return ModuleSpec(kind="section", children=(spec,), mode=mode, basis=basis)


def _same_field(a: FieldCtx, b: FieldCtx) -> bool:
    return a.p == b.p and a.k == b.k and a.modulus == b.modulus


def _module_field(F: FieldCtx) -> FieldCtx:
    """F, or IllTyped when it is a GF(p^k), k > 1, too large for linalg's tables."""
    if F.k > 1 and F.q > ff.TABLE_CAP:
        raise IllTyped(f"modules over GF({F.p}^{F.k}) are not supported: "
                       f"q = {F.q} exceeds {ff.TABLE_CAP}")
    return F


# representation ------------------------------------------------------------

MAX_DIM = 1000   # largest module dimension a recipe may build


def _capped(dim: int) -> int:
    if dim > MAX_DIM:
        raise IllTyped(f"module dimension {dim} exceeds MAX_DIM = {MAX_DIM}")
    return dim


def _compile(node: ModuleSpec, F: FieldCtx):
    """(group, dim, g -> image(g)) of a recipe node, in one walk of the recipe.

    Each node kind's rules sit in one place. Every check (a node's field
    equal to F, both tensor factors over one group, a section basis of the
    parent's length that is proper and kept by the parent's generator
    images, so by the group) and every per-node datum (a section's reduced
    basis, found by Norton's test on the parent when the recipe gives none;
    a symmetric power's monomials) is done once, here; the image function
    only computes matrices. Column j of a perm or explicit leaf's image(g)
    is orbit[g[seed_j]], a permutation module's orbit being the unit
    vectors. A sym or tensor node, the two that grow the dimension, raises
    IllTyped above MAX_DIM, in dimension or in a sym node's power, before
    anything of its size is built.
    """
    if node.field is not None and not _same_field(F, node.field):
        raise FieldMismatch(f"GF({F.q}) vs GF({node.field.q})")
    k = node.kind
    if k in ("perm", "explicit"):
        if k == "perm":
            n = node.group.degree
            orbit, seeds = linalg.eye(F, n), range(n)
        else:
            orbit, seeds = node.orbit, node.seed_index
        return node.group, len(seeds), lambda g: linalg.transpose([orbit[g[j]] for j in seeds])
    if k not in ("deleted", "tensor", "dual", "twist", "sym", "section"):
        raise IllTyped(f"unknown recipe node {k!r}")
    if k == "section":
        # built whole: Norton's test and the invariance check read its images
        parent = MatRep(node.children[0], F)
        group, m, child = parent.group, parent.dim, parent.image
    else:
        group, m, child = _compile(node.children[0], F)
    if k == "deleted":
        def image(g):
            # basis b_j = e_j - e_0; g.b_j = e_{g[j]} - e_{g[0]} = b_{g[j]} - b_{g[0]},
            # and g[j] != g[0], so the -b_{g[0]} terms fill one whole row
            M = [[F.zero] * (m - 1) for _ in range(m - 1)]
            for j in range(1, m):
                if g[j] != 0:
                    M[g[j] - 1][j - 1] = F.one
            if g[0] != 0:
                M[g[0] - 1] = [F.neg(F.one)] * (m - 1)
            return M
        return group, m - 1, image
    if k == "tensor":
        right_group, r, right = _compile(node.children[1], F)
        if right_group is not group:
            raise IllTyped("recipe mixes modules of different groups")
        return group, _capped(m * r), lambda g: linalg.kron(F, child(g), right(g))
    if k == "dual":
        return group, m, lambda g: linalg.transpose(child(pinv(g)))
    if k == "twist":
        if F.k == 1:
            return group, m, child   # x^p = x in GF(p)
        # x -> x^(p^i) on every element, listed once; q <= TABLE_CAP here
        frob = [F.frobenius(x, node.power) for x in range(F.q)]
        return group, m, lambda g: [[frob[x] for x in row] for row in child(g)]
    if k == "sym":
        # a 1-dimensional module keeps C(s, s) = 1, but its image takes s steps
        if node.power > MAX_DIM:
            raise IllTyped(f"symmetric power {node.power} exceeds MAX_DIM = {MAX_DIM}")
        _capped(math.comb(m + node.power - 1, node.power))
        return _compile_sym(group, m, child, node.power, F)
    basis = node.basis
    if basis is None:
        verdict = is_irreducible(parent, SeedStream(1))
        if verdict.irreducible:
            raise IllTyped("section of an irreducible module")
        basis = verdict.submodule
    if any(len(v) != m for v in basis):
        raise IllTyped("section basis length differs from parent dimension")
    rows, pivots = linalg.rref(F, [list(v) for v in basis])
    if not rows or len(rows) == m:
        raise IllTyped("section basis spans zero or everything")
    if any(any(linalg.reduce_vec(F, rows, pivots, linalg.mat_vec(F, M, b)))
           for M in parent.images for b in rows):
        raise IllTyped("section basis is not invariant")
    if node.mode == "sub":
        def image(g):
            # g keeps the span, so g b_j's coordinates are its pivot entries
            at_pivots = list(map(child(g).__getitem__, pivots))
            return linalg.transpose([linalg.mat_vec(F, at_pivots, b) for b in rows])
        return group, len(rows), image
    nonpivots = [j for j in range(m) if j not in set(pivots)]

    def image(g):
        cols = linalg.transpose(child(g))
        reduced = [linalg.reduce_vec(F, rows, pivots, cols[j]) for j in nonpivots]
        return linalg.transpose([[w[t] for t in nonpivots] for w in reduced])
    return group, len(nonpivots), image


def _compile_sym(group, m: int, child, s: int, F: FieldCtx):
    """Sym^s of an m-dimensional module: column j of the image expands the
    j-th monomial of degree s, a product of s of the m basis vectors, in
    their images. The monomials are sorted index tuples, one linear form
    per index, keyed by their exponent vectors; those come in descending
    lexicographic order, (s, 0, ..., 0) first."""
    monos = list(combinations_with_replacement(range(m), s))
    expos = [tuple(mono.count(r) for r in range(m)) for mono in monos]

    def image(g):
        A = child(g)
        cols = []
        for mono in monos:
            poly = {(0,) * m: F.one}
            for i in mono:
                nxt = {}
                for t, c in poly.items():
                    for r in range(m):
                        coef = A[r][i]
                        if coef == F.zero:
                            continue
                        t2 = t[:r] + (t[r] + 1,) + t[r + 1:]
                        prev = nxt.get(t2, F.zero)
                        nxt[t2] = F.add(prev, F.mul(c, coef))
                poly = nxt
            cols.append([poly.get(e, F.zero) for e in expos])
        return linalg.transpose(cols)
    return group, len(monos), image


class MatRep:
    """Generator images plus a structural evaluator for arbitrary elements."""

    def __init__(self, spec: ModuleSpec, field: FieldCtx):
        self.spec = spec
        self.field = field
        self.group, self.dim, self._evaluate = _compile(spec, field)
        self.images = tuple(self.image(g) for g in self.group.gens)
        for M in self.images:
            if linalg.rank(field, M) < self.dim:
                raise IllTyped("generator image is singular")

    def image(self, g: tuple) -> list:
        return self._evaluate(g)

    def dual_image(self, g: tuple) -> list:
        return linalg.transpose(self._evaluate(pinv(g)))

    def __repr__(self):
        return f"MatRep(dim={self.dim}, q={self.field.q}, group={self.group!r})"


def build_rep(spec: ModuleSpec, field: FieldCtx = None) -> MatRep:
    """MatRep(spec, F), F being field or else the first field a node carries,
    depth first from the root; MatRep checks every node against it."""
    F, todo = field, [spec]
    while F is None and todo:
        node = todo.pop()
        F = node.field
        todo.extend(reversed(node.children))
    if F is None:
        raise IllTyped("recipe carries no coefficient field")
    return MatRep(spec, _module_field(F))


# pointwise quantities -------------------------------------------------------


def char_poly(rep: MatRep, g: tuple) -> tuple:
    if not rep.group.contains(g):
        raise NotInGroup("element is outside the represented group")
    return linalg.char_poly(rep.field, rep.image(g))


def fixed_space_dim(rep: MatRep, g: tuple) -> int:
    """dim ker(image(g) - 1), the fixed space dimension."""
    if not rep.group.contains(g):
        raise NotInGroup("element is outside the represented group")
    F = rep.field
    return linalg.nullity(F, linalg.shift(F, rep.image(g), F.one))


class EigenProfile(NamedTuple):
    parts: tuple            # (squarefree part degree, multiplicity), ascending mult
    max_eigenspace_dim: int
    fixed_dim: int          # multiplicity of the eigenvalue 1


def eigenspace_profile(rep: MatRep, g: tuple) -> EigenProfile:
    """Eigenspace dimensions over the algebraic closure of a semisimple element.

    For p'-elements, p the field's characteristic, geometric and algebraic
    multiplicities agree, so the multiplicities of the squarefree
    decomposition of the characteristic polynomial are the eigenspace dimensions.
    """
    F = rep.field
    if element_order(g) % F.p == 0:
        raise NotSemisimple(f"element order {element_order(g)} is divisible by {F.p}")
    ch = char_poly(rep, g)
    parts = ff.squarefree_decomposition(F, ch)
    return EigenProfile(
        parts=tuple((ff.poly_deg(part), mult) for part, mult in parts),
        max_eigenspace_dim=max(mult for _, mult in parts),
        fixed_dim=ff.root_multiplicity(F, ch, F.one),
    )


def module_fixed_dim(rep: MatRep, elems) -> int:
    """dim of the common fixed space of the subgroup generated by elems."""
    return _joint_fixed(rep, elems, rep.image)


def module_dual_fixed_dim(rep: MatRep, elems) -> int:
    return _joint_fixed(rep, elems, rep.dual_image)


def _joint_fixed(rep: MatRep, elems, image) -> int:
    F = rep.field
    stacked = []
    for x in elems:
        if not rep.group.contains(x):
            raise NotInGroup("element is outside the represented group")
        stacked.extend(linalg.shift(F, image(x), F.one))
    if not stacked:
        return rep.dim
    return linalg.nullity(F, stacked)


# irreducibility -------------------------------------------------------------


class IrredResult(NamedTuple):
    irreducible: bool
    submodule: tuple = None   # proper invariant subspace basis when reducible


def spin_span(F: FieldCtx, mats, seeds) -> tuple:
    """Row-reduced basis of the smallest mats-invariant space containing seeds.

    One basis grows through linalg.extend_basis: by the seeds, then by the
    images under mats of each row, rows that join included, so the rows
    end spanning the closure. The reduced echelon basis of a span is
    unique: one rref at the end gives it. extend_basis reads no image once
    the rows span the whole space, so no product is taken then.
    """
    rows, pivots = [], []
    n = len(seeds[0]) if seeds else 0
    linalg.extend_basis(F, rows, pivots, seeds, n)
    for v in rows:
        linalg.extend_basis(F, rows, pivots, (linalg.mat_vec(F, M, v) for M in mats), n)
    return tuple(tuple(r) for r in linalg.rref(F, rows)[0])


def _random_algebra_element(rep: MatRep, stream: SeedStream) -> list:
    """Sum of 3..6 terms c * image(w), each w a word of 1..8 generators.

    A word is multiplied out as a permutation and mapped once. Images
    compose contravariantly, images[a] * images[b] = image(pmul(gens[b],
    gens[a])), so each further letter goes on the left of the product.
    """
    F = rep.field
    n = rep.dim
    gens = rep.group.gens
    theta = [[F.zero] * n for _ in range(n)]
    terms = 3 + stream.randrange(4)
    for _ in range(terms):
        length = 1 + stream.randrange(8)
        g = gens[stream.randrange(len(gens))]
        for _ in range(length - 1):
            g = pmul(gens[stream.randrange(len(gens))], g)
        word = rep.image(g)
        coeff = 1 + stream.randrange(F.q - 1)
        theta = [ff.add_scaled(F, trow, coeff, wrow)
                 for trow, wrow in zip(theta, word)]
    return theta


MAX_DRAWS = 200   # random group-algebra elements is_irreducible tries


def is_irreducible(rep: MatRep, stream: SeedStream = None) -> IrredResult:
    """Norton-style test: seeded group-algebra elements, spun kernels.

    A draw theta is tested as itself when it is singular, and otherwise as
    theta - lam 1 for each root lam of its characteristic polynomial in F,
    ascending; theta - lam 1 lies in the group algebra too. Reducible
    verdicts return a proper invariant subspace, reduced rows from
    spin_span. Norton's criterion needs every nonzero kernel vector to spin
    to V, so only a singular element of nullity 1, whose kernel and dual
    kernel both spin to V, proves (absolute) irreducibility; larger kernels
    can still prove reducibility. Raises Inconclusive when MAX_DRAWS draws
    produce no verdict, which in practice means a module that is
    irreducible but not absolutely irreducible: C3 on GF(2)^2 by
    [[0,1],[1,1]] always ends so, as its group algebra is GF(4), whose only
    singular element is 0.
    """
    if stream is None:
        stream = SeedStream(1)
    F = rep.field
    n = rep.dim
    if n == 1:
        return IrredResult(irreducible=True)
    if not rep.images:
        # trivial group fixes every line
        line = [F.zero] * n
        line[0] = F.one
        return IrredResult(irreducible=False, submodule=(tuple(line),))
    transposed = [linalg.transpose(M) for M in rep.images]
    for _ in range(MAX_DRAWS):
        theta = _random_algebra_element(rep, stream)
        kernel = linalg.nullspace(F, theta)
        # a nonsingular draw is shifted by each of its eigenvalues in F
        for lam in [F.zero] if kernel else ff.poly_roots(F, linalg.char_poly(F, theta)):
            a = linalg.shift(F, [list(r) for r in theta], lam)
            if lam:
                kernel = linalg.nullspace(F, a)
            for v in kernel:
                span = spin_span(F, rep.images, [v])
                if len(span) < n:
                    return IrredResult(irreducible=False, submodule=span)
            if len(kernel) > 1:
                continue
            w = linalg.nullspace(F, linalg.transpose(a))[0]
            dual_span = spin_span(F, transposed, [w])
            if len(dual_span) < n:
                # perp of a proper dual-invariant space is proper and invariant
                sub = linalg.nullspace(F, [list(r) for r in dual_span])
                return IrredResult(irreducible=False, submodule=spin_span(F, (), sub))
            return IrredResult(irreducible=True)
    raise Inconclusive(f"no verdict after {MAX_DRAWS} random group-algebra elements")


# matrix groups as permutation groups ----------------------------------------

def embed_matrix_group(F: FieldCtx, dim: int, matrices, name: str = None):
    """Permutation action on the orbit of the standard basis vectors.

    The orbit contains a basis, so the action is faithful by construction.
    It becomes the degree of a PermGroup, so it lists at most DEGREE_CAP
    vectors.
    Returns (PermGroup, MatRep); the representation is the tautological one.
    """
    _module_field(F)
    mats = [_coerce_matrix(F, M, dim) for M in matrices]
    for M in mats:
        if linalg.rank(F, M) < dim:
            raise NotInvertible("matrix generator is singular")
    index = {}
    orbit = []

    def visit(v):
        index[v] = len(orbit)
        orbit.append(v)
        if len(orbit) > DEGREE_CAP:
            raise OrbitTooLarge(f"orbit exceeds {DEGREE_CAP} vectors")

    # the walk takes each orbit vector once, in orbit order, and records
    # the index of its image under each generator: images[j][k] is where
    # mats[j] sends orbit[k]
    images = [[] for _ in mats]
    basis = [tuple(row) for row in linalg.eye(F, dim)]
    k = 0
    for e in basis:
        if e in index:
            continue
        visit(e)
        while k < len(orbit):
            v = orbit[k]
            for M, row in zip(mats, images):
                w = linalg.mat_vec(F, M, v)
                if w not in index:
                    visit(w)
                row.append(index[w])
            k += 1
    seed_index = tuple(index[e] for e in basis)
    group = PermGroup(len(orbit), list(map(tuple, images)), name=name)
    spec = ModuleSpec(
        kind="explicit",
        group=group,
        field=F,
        orbit=tuple(orbit),
        seed_index=seed_index,
    )
    return group, MatRep(spec, F)


def _coerce_matrix(F: FieldCtx, M, dim: int) -> list:
    if len(M) != dim or any(len(row) != dim for row in M):
        raise IllTyped(f"matrix is not {dim}x{dim}")
    return [[F.element(x) for x in row] for row in M]


# builtin matrix groups -------------------------------------------------------

_MATGROUP_SPECS = {
    # special linear groups by their usual two generators
    "SL2_5": (5, 1, 2, [[[1, 1], [0, 1]], [[0, 1], [4, 0]]], 120),
    "SL2_7": (7, 1, 2, [[[1, 1], [0, 1]], [[0, 1], [6, 0]]], 336),
    "SL3_3": (3, 1, 3,
              [[[1, 1, 0], [0, 1, 0], [0, 0, 1]],
               [[0, 0, 1], [1, 0, 0], [0, 1, 0]]], 5616),
    # extraspecial group of order 27, exponent 3, in its 3-dimensional
    # representation over GF(7); 2 is a primitive cube root of unity mod 7
    "E27": (7, 1, 3,
            [[[1, 0, 0], [0, 2, 0], [0, 0, 4]],
             [[0, 0, 1], [1, 0, 0], [0, 1, 0]]], 27),
}


@cache
def builtin_matgroup(name: str):
    """(PermGroup, tautological MatRep) for a named builtin matrix group."""
    if name not in _MATGROUP_SPECS:
        raise KeyError(f"unknown matrix group {name!r}")
    p, k, dim, mats, order = _MATGROUP_SPECS[name]
    F = ff.make_field(p, k)
    group, rep = embed_matrix_group(F, dim, mats, name=name)
    assert group.order == order, (name, group.order)
    return group, rep


# file formats ----------------------------------------------------------------


def parse_matgroup_text(text: str):
    """Matrix group file: header line then one gen line per generator.

    The header is ``matgroup NAME field P dim D`` with an optional
    ``ext K``, and no other key; a gen line is a JSON matrix of
    field-element encodings. A missing or repeated header, a missing name,
    field or dim, an unknown or repeated key, a non-integer header value
    or matrix entry, a dim below 1 and a gen line nested deeper than a
    matrix raise IllTyped.
    """
    name = None
    F = None
    dim = None
    mats = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("matgroup"):
            if F is not None:
                raise IllTyped(f"second matgroup header {line!r}")
            name, F, dim = _parse_matgroup_header(line)
        elif line.startswith("gen"):
            if F is None:
                raise IllTyped("gen line before matgroup header")
            # a matrix nests two deep: refuse more before the recursive decoder
            if max(accumulate((c in "[{") - (c in "]}") for c in line), default=0) > 2:
                raise IllTyped("gen line nests deeper than a matrix")
            try:
                gen = json.loads(line[3:].strip())
            except json.JSONDecodeError as exc:
                raise IllTyped(f"gen line {line!r} is not JSON: {exc.msg}") from None
            if not (isinstance(gen, list) and all(
                    isinstance(row, list) and all(type(x) is int for x in row)
                    for row in gen)):
                raise IllTyped(f"gen line {line!r} is not a matrix of integers")
            mats.append(gen)
        else:
            raise IllTyped(f"unrecognized line {line!r}")
    if F is None or not mats:
        raise IllTyped("matrix group file needs a header and generators")
    return name, F, dim, mats


def _parse_matgroup_header(line: str):
    parts = line.split()
    if len(parts) % 2 or parts[0] != "matgroup":
        raise IllTyped(f"matgroup header {line!r} is not 'matgroup NAME' "
                       "followed by key value pairs")
    fields = {}
    for key, value in zip(parts[2::2], parts[3::2]):
        if key not in ("field", "ext", "dim"):
            raise IllTyped(f"matgroup header {line!r} has unknown key {key!r}")
        if key in fields:
            raise IllTyped(f"matgroup header {line!r} repeats key {key!r}")
        fields[key] = value
    for key in ("field", "dim"):
        if key not in fields:
            raise IllTyped(f"matgroup header {line!r} has no {key}")
    try:
        p, k, dim = (int(fields["field"]), int(fields.get("ext", "1")),
                     int(fields["dim"]))
    except ValueError:
        raise IllTyped(f"matgroup header {line!r} has a non-integer value") from None
    if dim < 1:
        raise IllTyped(f"matgroup header {line!r} has dim {dim}, below 1")
    return parts[1], _module_field(ff.make_field(p, k)), dim


def read_matgroup_file(path: str):
    with open(path) as fh:
        name, F, dim, mats = parse_matgroup_text(fh.read())
    return embed_matrix_group(F, dim, mats, name=name)


def _tokenize(text: str):
    out = []
    for raw in text.splitlines():
        out.append(raw.split(";", 1)[0])
    text = "\n".join(out)
    return text.replace("(", " ( ").replace(")", " ) ").split()


# deeper recipes are refused at parse, far below the recursion limit
MAX_RECIPE_DEPTH = 100


def _parse_forms(tokens: list, pos: int, depth: int = 0):
    tok = tokens[pos]
    if tok == ")":
        raise IllTyped("unbalanced ')' in module recipe")
    if tok != "(":
        try:
            return int(tok), pos + 1
        except ValueError:
            return tok, pos + 1
    if depth == MAX_RECIPE_DEPTH:
        raise IllTyped(f"module recipe nests forms deeper than {MAX_RECIPE_DEPTH}")
    pos += 1
    form = []
    while pos < len(tokens) and tokens[pos] != ")":
        node, pos = _parse_forms(tokens, pos, depth + 1)
        form.append(node)
    if pos == len(tokens):
        raise IllTyped("unbalanced '(' in module recipe")
    return form, pos + 1


def parse_module_text(text: str, matgroups=None) -> ModuleSpec:
    """S-expression module recipe, e.g. (deleted (perm A5) :field (gf 7)).

    Keyword pairs may trail a form, each at most once: :field (gf p) or
    (gf p k) on any form fixes the coefficient field, and :mode sub or
    quotient on a section selects its kind. A perm name is a builtin group;
    an explicit name resolves through matgroups, with the builtin matrix
    groups as fallback. An empty, unbalanced or malformed recipe, one
    nested deeper than MAX_RECIPE_DEPTH forms, or any other keyword,
    raises IllTyped.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise IllTyped("empty module recipe")
    form, pos = _parse_forms(tokens, 0)
    if pos != len(tokens):
        raise IllTyped("trailing tokens after module recipe")
    return _interpret(form, matgroups or {})


def _split_keywords(form: list):
    head = []
    kw = {}
    i = 0
    while i < len(form):
        item = form[i]
        if isinstance(item, str) and item.startswith(":"):
            if i + 1 == len(form):
                raise IllTyped(f"keyword {item} has no value")
            if item[1:] in kw:
                raise IllTyped(f"keyword {item} given twice")
            kw[item[1:]] = form[i + 1]
            i += 2
        else:
            head.append(item)
            i += 1
    return head, kw


# operator -> (types of its arguments, a list being a nested recipe form;
#              builder: keywords, matgroups, arguments -> ModuleSpec;
#              the keywords it takes besides :field)
_RECIPE_ARGS = {
    "perm": ((str,), lambda kw, mg, name: perm_module(builtin_group(name)), ()),
    "deleted": ((list,), lambda kw, mg, a: deleted(a), ()),
    "tensor": ((list, list), lambda kw, mg, a, b: tensor(a, b), ()),
    "dual": ((list,), lambda kw, mg, a: dual(a), ()),
    "twist": ((int, list), lambda kw, mg, i, a: frobenius_twist(a, i), ()),
    "sym": ((int, list), lambda kw, mg, s, a: sym_power(a, s), ()),
    "explicit": ((str,), lambda kw, mg, name:
                 (mg.get(name) or builtin_matgroup(name))[1].spec, ()),
    "section": ((list,), lambda kw, mg, a: section(a, kw.get("mode", "sub")), ("mode",)),
}


def _check_args(head: list, kw: dict):
    if not head:
        raise IllTyped("recipe form has no operator")
    op = head[0]
    if not isinstance(op, str) or op not in _RECIPE_ARGS:
        raise IllTyped(f"unknown recipe operator {op!r}")
    kinds, build, keywords = _RECIPE_ARGS[op]
    args = head[1:]
    if len(args) != len(kinds):
        raise IllTyped(f"{op} takes {len(kinds)} argument(s), got {len(args)}")
    for arg, kind in zip(args, kinds):
        if not isinstance(arg, kind):
            want = {list: "a recipe form", str: "a name", int: "an integer"}[kind]
            raise IllTyped(f"{op} expects {want}, got {arg!r}")
    for key in kw:
        if key != "field" and key not in keywords:
            raise IllTyped(f"{op} takes no keyword :{key}")
    return kinds, build


def _interpret(form, matgroups: dict) -> ModuleSpec:
    if not isinstance(form, list) or not form:
        raise IllTyped(f"expected a recipe form, got {form!r}")
    head, kw = _split_keywords(form)
    kinds, build = _check_args(head, kw)
    field = None
    if "field" in kw:
        gf = kw["field"]
        if not isinstance(gf, list) or not 2 <= len(gf) <= 3 or gf[0] != "gf":
            raise IllTyped("field keyword expects (gf p) or (gf p k)")
        field = ff.make_field(*gf[1:])
    args = [_interpret(arg, matgroups) if kind is list else arg
            for arg, kind in zip(head[1:], kinds)]
    spec = build(kw, matgroups, *args)
    if field is not None:
        if spec.field is not None and not _same_field(spec.field, field):
            raise FieldMismatch(f"GF({spec.field.q}) vs GF({field.q})")
        spec = spec._replace(field=field)
    return spec


def read_module_file(path: str, matgroups=None) -> MatRep:
    with open(path) as fh:
        spec = parse_module_text(fh.read(), matgroups)
    return build_rep(spec)
