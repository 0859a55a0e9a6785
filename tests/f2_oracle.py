"""The classical action and product on F_2, written from the classical rules.

Tests compare the dyadic action and the mod-2 reduction against these;
the package itself never calls them.
"""

from jqforge.errors import DomainError
from jqforge.opalg import admissible_form


def classical_mul(x: frozenset, y: frozenset) -> frozenset:
    out = frozenset()
    for w1 in x:
        for w2 in y:
            out = out ^ admissible_form(w1 + w2)
    return out


def sq_on_f2(k: int, terms: frozenset, arity: int) -> frozenset:
    """Classical degree-k square on an F_2 polynomial given as a monomial set.

    Implements the Cartan distribution across variables with mod-2 binomial
    coefficients via the digit-subset test.  Written directly from the
    classical rules so it can serve as an independent oracle for the
    reduction homomorphism.
    """
    if k < 0:
        raise DomainError("operation degree must be nonnegative")
    out = set()
    for exps in terms:
        stack = [(0, k, exps)]
        while stack:
            pos, remaining, acc = stack.pop()
            if pos == arity:
                if remaining == 0:
                    key = tuple(acc)
                    if key in out:
                        out.remove(key)
                    else:
                        out.add(key)
                continue
            e = acc[pos]
            for j in range(min(e, remaining) + 1):
                # C(e, j) is odd exactly when the binary digits of j and e-j do not collide
                if (j & (e - j)) == 0:
                    raised = tuple(acc[:pos]) + (e + j,) + tuple(acc[pos + 1:])
                    stack.append((pos + 1, remaining - j, raised))
    return frozenset(out)
