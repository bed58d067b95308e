"""Hand-written numpy fields of the shipped families, for the tests.

The library builds every field from its family's text through the
expression language. These fields are written out by hand instead, so a
test that compares the two checks the derivation against an independent
route. The compact families are the unique ones read through sin; the
chain rule turns the unique field into the compact one.
"""

import numpy as np

from toruslab.systems import HAM_COMPACT, HAM_UNIQUE, REV_COMPACT


def _ham_unique(sys):
    sl = sys.slots
    omega = np.array(sys.params.omega)

    def rhs(s):
        u = s[..., sl.u]
        x = s[..., sl.x]
        y = s[..., sl.y]
        p = s[..., sl.p]
        q = s[..., sl.q]
        r = np.zeros_like(s)
        r[..., sl.phi] = omega + 2.0 * x[..., None] * u
        r[..., sl.x] = -2.0 * x * y
        r[..., sl.y] = (u * u).sum(-1) + x * x + y * y
        r[..., sl.p] = -2.0 * p * q
        r[..., sl.q] = p * p + q * q
        return r

    return rhs


def _rev_unique(sys):
    sl = sys.slots
    omega = np.array(sys.params.omega)

    def rhs(s):
        r = np.zeros_like(s)
        r[..., sl.phi] = omega
        v = s[..., sl.v]
        y = s[..., sl.y]
        q = s[..., sl.q]
        r[..., sl.y] = (v * v).sum(-1) + y * y + (q * q).sum(-1)
        return r

    return rhs


def oracle_field(sys):
    """The hand-written field of a built family member.

    A compact field is the unique one at sin(s). A Hamiltonian rate is the
    derivative of H along the partner of its slot (the other member of
    its canonical pair), so it also picks up cos at that partner.
    """
    base = _ham_unique(sys) if sys.family in (HAM_UNIQUE, HAM_COMPACT) \
        else _rev_unique(sys)
    partner = np.arange(sys.dim)
    for a, b in sys.canonical_pairing:
        partner[a], partner[b] = b, a

    def field(states):
        s = np.asarray(states, dtype=float)
        if sys.family == HAM_COMPACT:
            return np.cos(s[..., partner]) * base(np.sin(s))
        if sys.family == REV_COMPACT:
            return base(np.sin(s))
        return base(s)

    return field
