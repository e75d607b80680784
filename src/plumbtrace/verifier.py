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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dtcoords import CoordError, DTCoords, validate
from .gausspoly import GaussInt, GaussPoly
from .holonomy import WordError, component_trace
from .standardpos import (
    Conn,
    Crossing,
    SccLoop,
    Word,
    extract_components,
    scc_count,
)
from .surface import PantsDecomposition

_UNITS = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}


def _unit_times_power(q_tot: int, h: int) -> tuple[int, int]:
    """i^q_tot * 2^h as a coefficient pair."""
    r, i = _UNITS[q_tot % 4]
    return (r * 2**h, i * 2**h)


def predict_top_terms(
    arity: int, q: tuple[int, ...], p: tuple[int, ...], h: int
) -> GaussPoly:
    """The two top graded orders of the expected trace, sign not yet fixed."""
    q_tot = sum(q)
    if q_tot < 1:
        raise CoordError("top-term prediction needs at least one crossing")
    lead = _unit_times_power(q_tot, h)
    terms: dict = {tuple(q): lead}
    for i in range(arity):
        if q[i] == 0:
            continue
        mono = tuple(q[k] - (1 if k == i else 0) for k in range(arity))
        factor = p[i] - q[i]
        prev = terms.get(mono, (0, 0))
        terms[mono] = (prev[0] + lead[0] * factor, prev[1] + lead[1] * factor)
    return GaussPoly.from_terms(arity, terms)


@dataclass
class SubleadingCheck:
    curve: int
    observed: GaussInt
    predicted: GaussInt
    ok: bool


@dataclass
class TopTermReport:
    q: tuple[int, ...]
    p: tuple[int, ...]
    h: int
    trace: GaussPoly
    leading_monomial: tuple[int, ...]
    leading: GaussInt
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

    def failures(self) -> list[str]:
        out = []
        if not self.leading_ok:
            out.append(f"leading coefficient {self.leading} is not a unit * 2^{self.h}")
        for c in self.subleading:
            if not c.ok:
                out.append(
                    f"curve {c.curve}: subleading {c.observed} != {c.predicted}"
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
            "leading": str(self.leading),
            "leading_ok": self.leading_ok,
            "subleading": [
                {
                    "curve": c.curve + 1,
                    "observed": str(c.observed),
                    "predicted": str(c.predicted),
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
    arity = trace.arity
    q_tot = sum(q)
    lead_mono = tuple(q)
    lead = trace.coefficient(lead_mono)
    ur, ui = _unit_times_power(q_tot, h)
    leading_ok = (lead.re, lead.im) in {(ur, ui), (-ur, -ui)}

    report = TopTermReport(
        q=tuple(q),
        p=tuple(p),
        h=h,
        trace=trace,
        leading_monomial=lead_mono,
        leading=lead,
        leading_ok=leading_ok,
    )

    top = {lead_mono: (lead.re, lead.im)}
    for i in range(arity):
        if q[i] == 0:
            continue
        mono = tuple(q[k] - (1 if k == i else 0) for k in range(arity))
        observed = trace.coefficient(mono)
        predicted = lead * GaussInt(p[i] - q[i])
        report.subleading.append(
            SubleadingCheck(i, observed, predicted, observed == predicted)
        )
        top[mono] = (observed.re, observed.im)

    remainder = trace - GaussPoly.from_terms(arity, top)
    report.remainder_degree_ok = remainder.total_degree() <= q_tot - 2
    # the remainder's monomials are among the trace's, so bounding the
    # trace bounds both
    report.per_variable_degree_ok = all(trace.degree_in(i) <= q[i] for i in range(arity))
    return report


def verify(surface: PantsDecomposition, coords: DTCoords) -> TopTermReport:
    """Verify the top-term shape for one connected curve.

    Multicomponent input is refused: the prediction is stated per connected
    component, so the caller splits first.  A curve with parallel copies of
    pants curves (p_i copies where q_i = 0) is refused before any layout,
    so the refusal costs nothing however many copies there are.
    """
    parallel = sum(p for q, p in zip(coords.q, coords.p) if q == 0 and p > 0)
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
        ok = trace == GaussPoly.const(surface.xi, 2)
        report = TopTermReport(
            q=comp.q,
            p=coords.p,
            h=0,
            trace=trace,
            leading_monomial=(0,) * surface.xi,
            leading=trace.coefficient((0,) * surface.xi),
            leading_ok=ok,
        )
        return report
    h = scc_count(surface, coords)
    return check_trace_polynomial(trace, comp.q, coords.p, h)


# -- star-twist consistency check -------------------------------------------

def p_star_check(
    word: Word, p: tuple[int, ...], phat: tuple[int, ...]
) -> dict[int, tuple[int, int]]:
    """Consistency of connector context against the twist conversion.

    For a connected word without same-slot returns, each crossing picks up a
    context correction from its two neighbouring traversals: +1 when the
    following traversal turns to the predecessor slot, +1 when the preceding
    traversal turns to the successor slot.  Summing over the crossings of
    curve i must give exactly 2*phat_i + q_i - p_i.  Returns
    {curve: (lhs, rhs)}.  Raises CoordError on mismatch or on words with
    same-slot returns, and WordError on a crossing not flanked by traversals.
    """
    toks = word.tokens
    n = len(toks)
    if any(isinstance(t, SccLoop) for t in toks):
        raise CoordError("star-twist check applies to words without same-slot returns")
    kappa = [0] * word.arity
    q = [0] * word.arity
    for idx, tok in enumerate(toks):
        if not isinstance(tok, Crossing):
            continue
        before = toks[(idx - 1) % n]
        after = toks[(idx + 1) % n]
        if not (isinstance(before, Conn) and isinstance(after, Conn)):
            raise WordError(f"crossing at token {idx} is not flanked by traversals")
        kappa[tok.curve] += (after.turn() == "pred") + (before.turn() == "succ")
        q[tok.curve] += 1
    out: dict[int, tuple[int, int]] = {}
    for i in range(word.arity):
        if q[i] == 0:
            continue
        lhs = p[i] + kappa[i]
        rhs = 2 * phat[i] + q[i]
        out[i] = (lhs, rhs)
        if lhs != rhs:
            raise CoordError(
                f"curve {i}: context corrections {kappa[i]} inconsistent with "
                f"twist conversion ({lhs} != {rhs})"
            )
    return out
