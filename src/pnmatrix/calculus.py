"""Finite multiple-conclusion rule sets and their soundness over a matrix.

A rule is a pair of finite formula sets (premises, conclusions), either of
which may be empty.  A rule is sound over a matrix when its premises entail
its conclusions in the multiple-conclusion sense; this module only ever
certifies soundness, never completeness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Verdict, decide_multiple
from .matrix_core import PNMatrix
from .syntax import (
    Formula,
    ParseError,
    Signature,
    parse_formula_list,
    print_formula_list,
)


@dataclass(frozen=True)
class Rule:
    name: str
    premises: tuple[Formula, ...]
    conclusions: tuple[Formula, ...]

    def pretty(self) -> str:
        return f"{self.name} : {print_formula_list(self.premises)} |- {print_formula_list(self.conclusions)}"


@dataclass(frozen=True)
class Calculus:
    sig: Signature
    rules: tuple[Rule, ...]


def parse_rule(line: str, sig: Signature) -> Rule:
    """Parse `name : A1, A2 |- B1, B2`; either side may be `-` or empty.
    A ParseError's offset counts from the start of the line."""
    colon = line.find(":")
    if colon < 0:
        raise ParseError("rule line needs a ':' after the rule name", 0)
    name = line[:colon].strip()
    if not name:
        raise ParseError("empty rule name", 0)
    turnstile = line.find("|-", colon)
    if turnstile < 0:
        raise ParseError("rule line needs a '|-' separating the two sides", colon)
    sides = []
    for start, end in ((colon + 1, turnstile), (turnstile + 2, len(line))):
        try:
            sides.append(parse_formula_list(line[start:end], sig))
        except ParseError as e:
            raise ParseError(e.message, start + e.offset) from None
    return Rule(name, *sides)


def parse_calculus(text: str, sig: Signature) -> Calculus:
    """One rule per non-blank line; '#' starts a comment.  A ParseError
    names the line, and its offset counts from the start of that line."""
    rules = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        try:
            r = parse_rule(line, sig)
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e.message}", e.offset) from None
        if r.name in seen:
            raise ParseError(f"line {lineno}: duplicate rule name {r.name!r}", 0)
        seen.add(r.name)
        rules.append(r)
    return Calculus(sig=sig, rules=tuple(rules))


def format_calculus(cal: Calculus) -> str:
    return "\n".join(r.pretty() for r in cal.rules) + "\n"


def rule_sound(m: PNMatrix, r: Rule) -> Verdict:
    return decide_multiple(m, r.premises, r.conclusions)


@dataclass(frozen=True)
class SoundnessReport:
    per_rule: tuple[tuple[Rule, Verdict], ...]
    all_sound: bool

    def failures(self) -> list[tuple[Rule, Verdict]]:
        return [(r, v) for r, v in self.per_rule if v.answer != "yes"]


def calculus_sound(m: PNMatrix, cal: Calculus) -> SoundnessReport:
    per_rule = tuple((r, rule_sound(m, r)) for r in cal.rules)
    return SoundnessReport(
        per_rule=per_rule,
        all_sound=all(v.answer == "yes" for _, v in per_rule),
    )
