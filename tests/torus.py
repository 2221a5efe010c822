"""Characteristic polynomials of torus elements, built from weight multisets.

A torus element t acts on the weight space of mu by t^mu, so its
characteristic polynomial on a module is the product of (x - t^mu)^m over
the weights mu of multiplicity m.  The tests compare these polynomials at
a torus point that separates the weights, as an independent oracle for the
weight-multiset containment verdict of the `weights` divisibility checks.
"""

from fixspace.ff import FieldCtx, poly_mul


def torus_char_poly(wms, t, F: FieldCtx) -> tuple:
    """prod over (weight mu, mult m) of (x - t^mu)^m.

    `t` assigns one nonzero field element per fundamental-torus coordinate;
    t^mu multiplies t_i raised to the i-th coordinate of mu.
    """
    t = tuple(t)
    if len(t) != wms.rank:
        raise ValueError(f"expected {wms.rank} torus values, got {len(t)}")
    if not all(t):
        raise ValueError("torus values must be nonzero")
    poly = (F.one,)
    for weight, m in wms.entries:
        val = F.one
        for x, w in zip(t, weight):
            val = F.mul(val, F.pow(x, w))
        factor = (F.neg(val), F.one)
        for _ in range(m):
            poly = poly_mul(F, poly, factor)
    return poly
