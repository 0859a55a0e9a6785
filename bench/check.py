"""Answer checks that do not trust the engine.

Everything here is written from the definitions, independently of
`src/jqforge`: the text grammar of polynomials and operators, the monomial
action (the binomial product rule), the antipode by compositions, and the
mod-2 hit test used to prove that an input is not hit.  A polynomial is a
dict from exponent tuples to Fractions; an operator is a dict from words
(tuples, rightmost letter applied first) to Fractions.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import comb

_TERM_SPLIT = re.compile(r"\s+([+-])\s+")


def _signed_terms(text):
    """Split the display form 'a - b + c' into (sign, body) pairs."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:].lstrip()
    parts = _TERM_SPLIT.split(text)
    out = [(sign, parts[0])]
    for op, body in zip(parts[1::2], parts[2::2]):
        out.append((1 if op == "+" else -1, body))
    return out


def parse_poly(text, arity):
    if text.strip() == "0":
        return {}
    out = {}
    for sign, body in _signed_terms(text):
        coeff = Fraction(sign)
        exps = [0] * arity
        for factor in body.split("*"):
            m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor)
            if m:
                exps[int(m.group(1)) - 1] += int(m.group(2) or 1)
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
    return {e: c for e, c in out.items() if c}


def format_poly(f):
    """Input form accepted by the CLI: '3*x1^2*x2 - 5*x3^4'."""
    pieces = []
    for exps in sorted(f):
        c = f[exps]
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        pieces.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(pieces) if pieces else "0"
    return text[2:] if text.startswith("+ ") else text.replace("- ", "-", 1)


def parse_op(text):
    if text.strip() == "0":
        return {}
    out = {}
    for sign, body in _signed_terms(text):
        coeff = Fraction(sign)
        word = ()
        for factor in body.split("*"):
            if factor.startswith("Jq"):
                word = tuple(int(p[2:]) for p in factor.split(".") if p != "Jq0")
            else:
                coeff *= Fraction(factor)
        out[word] = out.get(word, 0) + coeff
    return {w: c for w, c in out.items() if c}


def add_term(acc, key, value):
    """acc[key] += value, dropping the key when the sum is zero."""
    v = acc.get(key, 0) + value
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def act(k, f):
    """Degree-k operation: x^e -> sum over j_1+..+j_n = k of prod C(e_i, j_i) x^(e+j)."""
    if k == 0:
        return dict(f)
    out = {}
    for exps, c in f.items():
        for js in itertools.product(*(range(min(e, k) + 1) for e in exps)):
            if sum(js) != k:
                continue
            coeff = 1
            for e, j in zip(exps, js):
                coeff *= comb(e, j)
            add_term(out, tuple(e + j for e, j in zip(exps, js)), c * coeff)
    return out


def act_op(op, f):
    out = {}
    for word, c in op.items():
        g = f
        for k in reversed(word):
            g = act(k, g)
        for exps, v in g.items():
            add_term(out, exps, c * v)
    return out


def op_mul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            add_term(out, w1 + w2, c1 * c2)
    return out


def vanishes_on(op, monomials):
    """Whether op kills every listed monomial."""
    return all(not act_op(op, {mu: Fraction(1)}) for mu in monomials)


def monomials(arity, max_deg):
    return [e for e in itertools.product(range(max_deg + 1), repeat=arity) if sum(e) <= max_deg]


def chi_by_compositions(k):
    """Antipode of the degree-k generator: sum of (-1)^length over compositions of k."""
    out = {}
    for cuts in itertools.product((0, 1), repeat=k - 1):
        word, run = [], 1
        for cut in cuts:
            if cut:
                word.append(run)
                run = 1
            else:
                run += 1
        word.append(run)
        out[tuple(word)] = Fraction((-1) ** len(word))
    return out


def odd_denominators(values):
    return all(Fraction(v).denominator % 2 == 1 for v in values)


def mod2_hit(f, max_j):
    """Whether f mod 2 is a sum of Sq^i images, 1 <= i <= max_j, over F_2.

    A 2-adic certificate reduces mod 2 to such a sum, so a False here
    proves that f is not hit.  C(e, j) is odd exactly when j & ~e == 0.
    """
    target = {e for e, c in f.items() if c.numerator % 2}
    if not target:
        return True
    (d,) = {sum(e) for e in f}
    arity = len(next(iter(f)))
    index = {}

    def mask(terms):
        m = 0
        for e in terms:
            m |= 1 << index.setdefault(e, len(index))
        return m

    basis = {}
    for i in range(1, min(max_j, d - 1) + 1):
        for mu in itertools.product(range(d - i + 1), repeat=arity):
            if sum(mu) != d - i:
                continue
            image = {e for e, c in act(i, {mu: 1}).items() if c % 2}
            r = mask(image)
            while r:
                lead = r & -r
                if lead not in basis:
                    basis[lead] = r
                    break
                r ^= basis[lead]
    r = mask(target)
    while r:
        lead = r & -r
        if lead not in basis:
            return False
        r ^= basis[lead]
    return True
