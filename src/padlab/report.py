"""The uniform verdict record returned by every checker.

A CheckReport says whether a congruence held, shows both sides, and
carries a valuation margin: vp(lhs - rhs) minus the required modulus
exponent, saturated at +MARGIN_WINDOW.  Every two-sided checker (kummer,
case1/2/3, theorem2, lemma1, lemma2) builds its report with
congruence_report, from sides that are exact or already reduced mod
p^(E + MARGIN_WINDOW); the saturated margin is the same either way.
rational_margin states that rule once; corollary3 and adams call it on
their own differences.  corollary2 is the one unsaturated reporter: it
reads the exact valuation of its sum from residues mod p^K, doubling K
from E + MARGIN_WINDOW while the residue is 0.  A margin is None for
checks with no scalar difference (multiset equality, counts).

CheckReport and padlab's other value types are plain classes on Record,
which compares and prints them by their attributes as a dataclass does:
the same arguments give an equal report.  They keep their attributes in
a __dict__, so a pool pickles them as fast as it did dataclasses, and
importing padlab loads neither dataclasses nor inspect.
"""

from fractions import Fraction

from .padic_core import reduce_rational, vp_rational

# How far beyond the required exponent modular checkers look when
# measuring the margin.  Exact checkers are capped at the same value so
# that a zero difference still reports a finite number.
MARGIN_WINDOW = 8


class Record:
    """Equality and repr by instance attributes, in assignment order; a
    Record is unhashable unless its class defines __hash__."""

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class CheckReport(Record):
    def __init__(
        self,
        name: str,
        inputs: dict,
        holds: bool,
        lhs: str = "",
        rhs: str = "",
        modulus: tuple[int, int] | None = None,  # (p, required exponent)
        margin: int | None = None,
        elapsed_ms: int = 0,  # set by cli.run_check; checkers never read a clock
        error: str | None = None,
        details: dict | None = None,
    ):
        self.name = name
        self.inputs = inputs
        self.holds = holds
        self.lhs = lhs
        self.rhs = rhs
        self.modulus = modulus
        self.margin = margin
        self.elapsed_ms = elapsed_ms
        self.error = error
        self.details = {} if details is None else details

    @property
    def status(self) -> str:
        """"errored" if the check raised, else "held" or "failed" by its verdict."""
        return "errored" if self.error is not None else "held" if self.holds else "failed"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": {k: _jsonify(v) for k, v in self.inputs.items()},
            "modulus": None
            if self.modulus is None
            else {"p": str(self.modulus[0]), "exp": self.modulus[1]},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "margin": self.margin,
            "elapsed_ms": self.elapsed_ms,
            "error": self.error,
            "details": _jsonify(self.details),
        }


def _jsonify(v):
    """Big integers render as decimal strings so no consumer loses precision."""
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return str(v)
    if isinstance(v, dict):
        return {k: _jsonify(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonify(x) for x in v]
    return v


def rational_margin(diff: Fraction, p: int, required: int) -> int:
    """vp(diff) - required for a rational difference, saturated above.

    diff may be exact or known only mod p^(required + MARGIN_WINDOW): the
    saturated value is the same.
    """
    if diff == 0:
        return MARGIN_WINDOW
    return min(vp_rational(diff, p) - required, MARGIN_WINDOW)


def integer_margin(diff: int, p: int, required: int) -> int:
    """rational_margin of an int difference, exact or a residue; the name
    stays because perfbench/spans.py traces it."""
    return rational_margin(diff, p, required)


def congruence_report(
    name: str, inputs: dict, lhs, rhs, p: int, exponent: int, details: dict | None = None
) -> CheckReport:
    """The verdict on lhs ≡ rhs mod p^exponent.

    Each side is an int or a p-integral Fraction, exact or reduced mod
    p^(exponent + MARGIN_WINDOW): min(vp(D) - E, W) depends only on
    D mod p^(E + W), so both give the same report.  reduce_rational
    rejects a side that is not p-integral, lhs first.
    """
    margin = rational_margin(lhs - rhs, p, exponent)
    return CheckReport(
        name=name,
        inputs=inputs,
        holds=margin >= 0,
        lhs=str(reduce_rational(lhs, p, exponent)),
        rhs=str(reduce_rational(rhs, p, exponent)),
        modulus=(p, exponent),
        margin=margin,
        details=details,
    )
