"""Top-term verification of computed trace polynomials.

For a connected curve with intersection vector q (total crossing number
q_tot >= 1), twist vector p and h same-boundary arcs, the trace polynomial
has the shape

    unit * 2^h * ( prod_i t_i^{q_i}
                   + sum_i (p_i - q_i) * t_1^{q_1} .. t_i^{q_i - 1} .. )
    + lower order,

where the unit is i^q_tot up to an overall sign, the remainder has total
degree at most q_tot - 2, and no variable ever exceeds degree q_i.  The
verifier recomputes the trace exactly, reads the leading and subleading
coefficients off the canonical form, and checks each clause; since the
overall sign of a holonomy trace is a free choice, the leading coefficient
is accepted as either +i^q 2^h or -i^q 2^h, which also pins the unit modulo
the four Gaussian units.

The check reads nothing but the trace's ``slots`` and ``imag`` flag.  A
coefficient is one slot's int, on the trace's one axis, and i^q_tot is
real for even q_tot and imaginary for odd: the leading int must be +-2^h
with ``imag`` set exactly when q_tot is odd, and each predicted subleading
int is the leading one times p_i - q_i.  The two degree clauses come from
the trace's box, its ``counts`` field, when these are at most q: in the box
prod_i [0, q_i] the only monomials of total degree q_tot - 1 or more are
q itself and the q - e_i with q_i >= 1, which are exactly the monomials
the coefficient clauses read, so every other term has total degree at
most q_tot - 2 and no variable exceeds q_i.  That holds for any polynomial
whose terms lie in the box; it is read off the representation (a trace's
box is its crossing counts, which equal q for a connected curve) and does
not assume the shape being checked.  Only a polynomial whose box exceeds
q somewhere, as a corrupted one's may, has the monomials of its nonzero
slots scanned: its outer slots may all be zero, so the box alone cannot
decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, filterfalse, product
from operator import itemgetter, le

from .dtcoords import CoordError, DTCoords, validate
from .gausspoly import GaussPoly, coefficient_text
from .holonomy import component_trace
from .standardpos import extract_components, scc_count
from .surface import PantsDecomposition


@dataclass(slots=True)
class SubleadingCheck:
    curve: int
    observed: int
    predicted: int
    ok: bool


@dataclass(slots=True)
class TopTermReport:
    q: tuple[int, ...]
    p: tuple[int, ...]
    h: int
    trace: GaussPoly
    leading: int  # the slot int, on the axis of ``trace.imag``
    leading_ok: bool
    subleading: list[SubleadingCheck] = field(default_factory=list)
    remainder_degree_ok: bool = True
    per_variable_degree_ok: bool = True

    @property
    def passed(self) -> bool:
        return (
            self.leading_ok
            and all(c.ok for c in self.subleading)
            and self.remainder_degree_ok
            and self.per_variable_degree_ok
        )

    def _text(self, c: int) -> str:
        return coefficient_text(c, self.trace.imag)

    def failures(self) -> list[str]:
        out = []
        if not self.leading_ok:
            out.append(
                f"leading coefficient {self._text(self.leading)} is not a unit * 2^{self.h}"
            )
        for c in self.subleading:
            if not c.ok:
                out.append(
                    f"curve {c.curve}: subleading {self._text(c.observed)}"
                    f" != {self._text(c.predicted)}"
                )
        if not self.remainder_degree_ok:
            out.append("remainder exceeds total degree bound")
        if not self.per_variable_degree_ok:
            out.append("a variable exceeds its degree bound")
        return out

    def to_record(self) -> dict:
        return {
            "q": list(self.q),
            "p": list(self.p),
            "h": self.h,
            "trace": str(self.trace),
            "leading": self._text(self.leading),
            "leading_ok": self.leading_ok,
            "subleading": [
                {
                    "curve": c.curve + 1,
                    "observed": self._text(c.observed),
                    "predicted": self._text(c.predicted),
                    "ok": c.ok,
                }
                for c in self.subleading
            ],
            "remainder_degree_ok": self.remainder_degree_ok,
            "per_variable_degree_ok": self.per_variable_degree_ok,
            "passed": self.passed,
        }


def check_trace_polynomial(
    trace: GaussPoly, q: tuple[int, ...], p: tuple[int, ...], h: int
) -> TopTermReport:
    """Compare one canonical trace polynomial against the predicted shape.

    Split out from verify() so negative controls can feed a corrupted
    polynomial through the same code path.
    """
    arity = len(trace.counts)
    q_tot = sum(q)
    lead_mono = tuple(q)
    lead = trace.coefficient(lead_mono)
    # +-i^q_tot 2^h: on the imaginary axis exactly when q_tot is odd
    leading_ok = trace.imag == bool(q_tot & 1) and abs(lead) == 1 << h

    report = TopTermReport(
        q=tuple(q), p=tuple(p), h=h, trace=trace, leading=lead, leading_ok=leading_ok
    )

    for i in range(arity):
        if q[i] == 0:
            continue
        mono = lead_mono[:i] + (q[i] - 1,) + lead_mono[i + 1:]
        observed = trace.coefficient(mono)
        predicted = lead * (p[i] - q[i])
        report.subleading.append(SubleadingCheck(i, observed, predicted, observed == predicted))

    # Inside the box [0, q] both degree clauses hold (module docstring); an
    # empty remainder reads degree -1, so q_tot = 0 takes the scan.
    if q_tot and all(map(le, trace.counts, q)):
        return report
    # the monomials of the nonzero slots; both bounds scan them in C, with
    # no Python step per term
    top = {lead_mono}
    top.update(tuple(q[k] - (k == i) for k in range(arity)) for i in range(arity) if q[i])
    monos = list(compress(product(*(range(n + 1) for n in trace.counts)), trace.slots))
    rest = filterfalse(top.__contains__, monos)
    report.remainder_degree_ok = max(map(sum, rest), default=-1) <= q_tot - 2
    report.per_variable_degree_ok = all(
        max(map(itemgetter(i), monos), default=-1) <= q[i] for i in range(arity)
    )
    return report


def verify(surface: PantsDecomposition, coords: DTCoords) -> TopTermReport:
    """Verify the top-term shape for one connected curve.

    Multicomponent input is refused: the prediction is stated per connected
    component, so the caller splits first.  A curve with parallel copies of
    pants curves (p_i copies where q_i = 0) is refused before any layout,
    so the refusal costs nothing however many copies there are.
    """
    parallel = 0
    for qi, pi in zip(coords.q, coords.p):
        if qi == 0 and pi > 0:
            parallel += pi
    if parallel > 1 or (parallel and any(coords.q)):
        validate(surface, coords)  # malformed coordinates report their own error
        count = f"at least {parallel + 1}" if any(coords.q) else str(parallel)
        raise CoordError(f"verification needs a connected curve; got {count} components")
    components = extract_components(surface, coords)
    if len(components) != 1:
        raise CoordError(
            f"verification needs a connected curve; got {len(components)} components"
        )
    comp = components[0]
    trace = component_trace(comp)
    if sum(comp.q) == 0:
        # the constant 2 of a parallel component: slot 0 holds it, every
        # other slot of the box is zero
        lead = trace.slots[0]
        ok = lead == 2 and not trace.imag and not any(trace.slots[1:])
        return TopTermReport(q=comp.q, p=coords.p, h=0, trace=trace, leading=lead, leading_ok=ok)
    h = scc_count(surface, coords)
    return check_trace_polynomial(trace, comp.q, coords.p, h)
