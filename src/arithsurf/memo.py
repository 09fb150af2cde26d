"""Work shared between the points of one law verification.

All the closed points of a curve h over one prime p take their local
data from the same factorizations of the curve polynomial: h mod p gives
the points over p and, when it is squarefree, their branches; when it is
not, the monicized curve is factored over Z_p too.  The resultants
Res(h, b) of the curve with the bases give the prime support of a
horizontal law and then the branch valuations at its points, so they are
shared too.
`verification` gives each call of a law verifier a fresh memo in
a context variable; inside it, `shared` computes a value once per key and
hands back the stored value on every repeat.  Outside a verification, and
for a computation that raises, `shared` just computes.

Only successes are stored, and only immutable values: callers copy
anything mutable they hand on.  The memo dies with its verification, so
nothing is shared between verifications and memory stays bounded by one
verification's work.
"""

import functools
from contextvars import ContextVar

_MEMO = ContextVar("arithsurf_verification_memo", default=None)
_MISSING = object()


def verification(verify):
    """Run each call of the verifier `verify` inside its own memo."""

    @functools.wraps(verify)
    def within_memo(*args, **kwargs):
        token = _MEMO.set({})
        try:
            return verify(*args, **kwargs)
        finally:
            _MEMO.reset(token)

    return within_memo


def shared(key, compute):
    """compute(), or the value it gave for the same key earlier in the
    current verification."""
    memo = _MEMO.get()
    if memo is None:
        return compute()
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute()
    return value
