"""Small-matrix algebra over batch axes: contract(spec, *operands).

Every per-step product of the variational passes multiplies d x d or d x m
matrices, one per path of a batch.  contract evaluates such a product from
an einsum-style spec as a sum of broadcast products, one per value of the
contracted indices, in order: term (j_1, ..., j_n) multiplies the operands
with each contracted index fixed, and the terms are summed in order.
With the batch axes trailing and contiguous ("ij...,jk...->ik..."), each
term is one pass over the batch, which at d = 2 or 3 is several times
faster than np.einsum or matmul on a stack of small matrices.  When every
contracted index has length 1 the result is the single broadcast product,
so at d = m = 1 a contraction is the one multiply it stands for.

The spec names the non-batch axes of each operand and of the result, and
marks the batch axes with "...", all leading or all trailing.  Batch axes
broadcast.  With leading batch axes an operand may leave out "..." and
broadcasts over them; with trailing ones every operand carries them.  A
letter repeated in one operand takes the diagonal ("ii...->..." is the
trace).
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

#: the parsed specs by their text: the package's specs are literals, so it
#: holds a few dozen
_PLANS: dict = {}


class _Plan:
    """A parsed spec: where each contracted index is read from, and per
    operand the index key of a term, its contracted positions left as the
    positions of their values in the term's combination."""

    def __init__(self, spec: str):
        *ins, out = spec.replace("->", ",").split(",")
        if "..." not in out:
            raise ValueError(f"{spec!r}: the result must mark its batch axes with '...'")
        # the side of the batch axes, read from the first term with indices
        self.lead = next((t.startswith("...") for t in [out, *ins] if t.strip(".")), True)
        strip = (lambda s: s[3:]) if self.lead else (lambda s: s[:-3])
        out = strip(out)
        letters = []
        for term in ins:
            if term.startswith("...") if self.lead else term.endswith("..."):
                letters.append(strip(term))
            elif self.lead and "." not in term:
                letters.append(term)
            else:
                raise ValueError(f"{spec!r}: each operand marks its batch axes as the result does")
        if len(set(out)) < len(out) or not set(out) <= set("".join(letters)):
            raise ValueError(f"{spec!r}: each result index must appear once, and in an operand")
        contracted = list(dict.fromkeys(c for s in letters for c in s if c not in out))
        # the lengths of the contracted indices are read from the first
        # operand that holds them all, by one itemgetter on its shape
        try:
            self.host = next(k for k, s in enumerate(letters) if set(contracted) <= set(s))
        except StopIteration:
            raise ValueError(f"{spec!r}: one operand must hold every contracted index") from None
        host = letters[self.host]
        axes = [host.index(c) - (len(host) if self.lead else 0) for c in contracted]
        self.sizes = operator.itemgetter(*axes) if axes else (lambda shape: ())
        self.templates = []
        for s in letters:
            kept = [c for c in s if c in out]
            if len(set(kept)) < len(kept) or kept != sorted(kept, key=out.index):
                raise ValueError(f"{spec!r}: an operand keeps its indices in another order")
            key, o = [Ellipsis] if self.lead else [], 0
            for c in s:
                if c in out:
                    while out[o] != c:
                        key.append(None)
                        o += 1
                    key.append(slice(None))
                    o += 1
                else:
                    key.append(contracted.index(c))
            key += [None] * (len(out) - o)
            self.templates.append(key)
        # with every contracted length 1, an operand with as many indices as
        # the result, each the result's own at its place or contracted,
        # broadcasts as it is: its one term needs no key (None)
        self.as_is = [
            len(s) == len(out) and all(c == o or c not in out for c, o in zip(s, out))
            for s in letters
        ]
        self.terms = {}  # the index keys of each term, by the contracted lengths

    def expand(self, sizes) -> list:
        lengths = sizes if isinstance(sizes, tuple) else (sizes,)
        terms = [
            [tuple(combo[x] if type(x) is int else x for x in key) for key in self.templates]
            for combo in itertools.product(*map(range, lengths))
        ]
        if len(terms) == 1:
            terms[0] = [None if as_is else key for as_is, key in zip(self.as_is, terms[0])]
        self.terms[sizes] = terms
        return terms


def contract(spec: str, *operands: np.ndarray, add=np.add) -> np.ndarray:
    """The contraction spec of the operands, einsum's sum of products
    evaluated term by term: each term is the broadcast product of the
    operands, left to right, at one value of the contracted indices, and
    the terms are summed with add in lexicographic order of those values,
    left to right.  add=np.maximum takes their maximum instead, so
    contract("...i->...", np.abs(x), add=np.maximum) is the largest |x_i|.

    With one term the result is that product; with one operand it may be
    the operand or a view of it, so the caller must not write to it."""
    plan = _PLANS.get(spec) or _PLANS.setdefault(spec, _Plan(spec))
    sizes = plan.sizes(operands[plan.host].shape)
    terms = plan.terms.get(sizes) or plan.expand(sizes)
    if len(terms) == 1:  # the one product: no sum to build
        keys = terms[0]
        if len(operands) == 2:  # unrolled
            a, b = operands
            ka, kb = keys
            return (a if ka is None else a[ka]) * (b if kb is None else b[kb])
        if len(operands) == 1:
            return operands[0] if keys[0] is None else operands[0][keys[0]]
        term = None
        for op, key in zip(operands, keys):
            op = op if key is None else op[key]
            term = op if term is None else term * op
        return term
    first, rest = operands[0], operands[1:]
    for n, keys in enumerate(terms):
        term = first[keys[0]]
        for op, key in zip(rest, keys[1:]):
            term = term * op[key]
        # the new term first, as np.einsum adds: which of two NaNs an add
        # keeps depends on the order of its operands
        if n == 0:
            acc = term
        elif n == 1:
            acc = add(term, acc)
        else:
            add(term, acc, out=acc)
    return acc


def norm(x: np.ndarray) -> np.ndarray:
    """The Euclidean norm over the last axis of x (..., d), shape (...):
    the square root of the sum of squares, summed left to right, so for
    d <= 2 np.linalg.norm(x, axis=-1) bit for bit, inf where a square
    overflows."""
    return np.sqrt(contract("...i,...i->...", x, x))
