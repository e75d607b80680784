"""Pure-Python arithmetic kernel for sparse Gaussian-integer polynomials.

A polynomial in n variables is a dict mapping exponent tuples (length n,
non-negative ints) to nonzero Gaussian-integer coefficients stored as
``(re, im)`` pairs of Python ints.  The zero polynomial is the empty dict.
Every function returns a fresh dict in canonical form (no zero coefficient
is ever stored); inputs are never mutated.  Coefficients are exact
arbitrary-precision integers throughout.
"""


def padd(p, q):
    """Sum of two term dicts."""
    out = dict(p)
    for m, (qr, qi) in q.items():
        pr, pi = out.get(m, (0, 0))
        r = pr + qr
        i = pi + qi
        if r or i:
            out[m] = (r, i)
        elif m in out:
            del out[m]
    return out


def pneg(p):
    """Additive inverse of a term dict."""
    return {m: (-r, -i) for m, (r, i) in p.items()}


def pscale(p, c):
    """Product of a term dict with one Gaussian integer ``c = (re, im)``."""
    cr, ci = c
    if cr == 0 and ci == 0:
        return {}
    out = {}
    for m, (r, i) in p.items():
        out[m] = (r * cr - i * ci, r * ci + i * cr)
    return out


def pmul(p, q):
    """Product of two term dicts (exponents add slotwise)."""
    if not p or not q:
        return {}
    out = {}
    for m1, (r1, i1) in p.items():
        for m2, (r2, i2) in q.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            r = r1 * r2 - i1 * i2
            i = r1 * i2 + i1 * r2
            ar, ai = out.get(m, (0, 0))
            r += ar
            i += ai
            if r or i:
                out[m] = (r, i)
            elif m in out:
                del out[m]
    return out


def mat_mul(A, B):
    """Product of two 2x2 matrices given as row-major 4-tuples of term dicts."""
    a, b, c, d = A
    e, f, g, h = B
    return (
        padd(pmul(a, e), pmul(b, g)),
        padd(pmul(a, f), pmul(b, h)),
        padd(pmul(c, e), pmul(d, g)),
        padd(pmul(c, f), pmul(d, h)),
    )
