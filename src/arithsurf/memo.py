"""Work shared within one law verification, pairing or group multiplication.

All the closed points of a curve h over one prime p take their local
data from the same factorizations of the curve polynomial: h mod p gives
the points over p and, when it is squarefree, their branches; when it is
not, the monicized curve is factored over Z_p too.  The resultants
Res(h, b) of the curve with the bases give the prime support of a
horizontal law and then the branch valuations at its points, so they are
shared too.  On the central-extension side, the contractions and
pushforwards of one commutator pairing or group multiplication keep
asking for the pair data of the same few lattice pairs, so the data of a
general pair is shared within one such call (centext.pair_data); a pair of
tails is three index ranges, built on each call for less than a lookup.

`verification` gives each call of a function it wraps (a law verifier,
centext.commutator_pairing, centext.group_mul) a fresh memo in a context
variable; inside it, `shared` computes a value once per key and hands back
the stored value on every repeat.  Outside such a call, and for a
computation that raises, `shared` just computes.

Only successes are stored, and only immutable values: callers copy
anything mutable they hand on.  The memo dies with its call, so nothing is
shared between calls and memory stays bounded by one call's work.
"""

import functools
from contextvars import ContextVar

_MEMO = ContextVar("arithsurf_verification_memo", default=None)
_MISSING = object()


def verification(verify):
    """Run each call of `verify` inside its own memo."""

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
    current memo scope."""
    memo = _MEMO.get()
    if memo is None:
        return compute()
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute()
    return value
