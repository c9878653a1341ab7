"""Encrypted query messages exchanged between client and server.

Section 4.3: "we solve this problem by having the query-issuing client
encrypt a breakpoint b in both ways, i.e., in its native way, as
Eb(b), and as an attribute value, Ev(b)".  An :class:`EncryptedBound`
carries exactly that pair; an :class:`EncryptedQuery` carries the two
bounds of a range predicate plus their (plaintext) inclusiveness flags
— the flags correspond to the query's comparison operators, which the
server must apply and therefore sees anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Optional, Tuple

from repro.crypto.ciphertext import BoundCiphertext, ValueCiphertext
from repro.errors import QueryError


@dataclass(frozen=True)
class EncryptedBound:
    """One query bound in both encryption modes.

    Attributes:
        eb: the ``Eb`` form, used for inequality checks against data
            rows and against crack keys.
        ev: the ``Ev`` form, stored as the key when the bound enters
            the cracker index (future bounds compare against it via
            their own ``Eb`` form).
    """

    eb: BoundCiphertext
    ev: ValueCiphertext


@dataclass(frozen=True)
class EncryptedBoundKey:
    """A crack key: an encrypted bound plus its crack flavour.

    ``inclusive`` distinguishes the crack "rows with ``v < b`` before
    the position" (False) from "rows with ``v <= b``" (True); equal
    plaintext bounds with different flavours are distinct keys, ordered
    exclusive-first (predicate-set inclusion over the integers).
    """

    bound: EncryptedBound
    inclusive: bool


def compare_encrypted_keys(a: EncryptedBoundKey, b: EncryptedBoundKey) -> int:
    """Total order on encrypted crack keys.

    The scalar product ``a.eb . b.ev`` equals ``xi * (b_value -
    a_value)`` with ``xi > 0`` (crack ``Ev`` keys are encrypted without
    ambiguity), so its sign orders the underlying plaintext bounds
    without revealing them; exact ties fall back to the inclusiveness
    flag.  This is the only value-to-value comparison in the system and
    it is possible *only* because each bound was shipped in both modes.
    """
    product = sum(map(mul, a.bound.eb.vector, b.bound.ev.numerators))
    if product > 0:
        # b_value > a_value  ->  a orders first.
        return -1
    if product < 0:
        return 1
    return int(a.inclusive) - int(b.inclusive)


@dataclass(frozen=True)
class EncryptedQuery:
    """A range query over encrypted data, as shipped to the server.

    Attributes:
        low, high: the encrypted bounds; either may be None for a
            one-sided query (``A <= x`` / ``A > x``), in which case the
            open side is unbounded and costs the server nothing — a
            one-sided query cracks at most one piece.
        low_inclusive, high_inclusive: the query's comparison
            operators.
        pivots: optional extra client-supplied bounds the server may
            crack on (client-assisted stochastic cracking — the server
            cannot invent pivots it can compare, Section 5.5).
        token: the issuing client's session token (0: none), under
            which the server names by id alone a row it shipped whole.
    """

    low: Optional[EncryptedBound]
    high: Optional[EncryptedBound]
    low_inclusive: bool = True
    high_inclusive: bool = True
    pivots: Tuple[EncryptedBound, ...] = field(default_factory=tuple)
    token: int = 0

    @property
    def left_key(self) -> Optional[EncryptedBoundKey]:
        """The crack separating non-qualifying low rows.

        An inclusive low side excludes rows with ``v < low`` (strict
        crack); an exclusive one excludes ``v <= low``.  None for an
        unbounded low side.
        """
        if self.low is None:
            return None
        return EncryptedBoundKey(self.low, inclusive=not self.low_inclusive)

    @property
    def right_key(self) -> Optional[EncryptedBoundKey]:
        """The crack whose left side is the qualifying high side.

        None for an unbounded high side.
        """
        if self.high is None:
            return None
        return EncryptedBoundKey(self.high, inclusive=self.high_inclusive)

    def check_length(self, length: int) -> None:
        """Raise :class:`QueryError` if a bound (either form, pivots too)
        is not of the asked column's ciphertext ``length`` (0: any)."""
        lengths = {len(vector) for bound in (self.low, self.high, *self.pivots)
                   if bound is not None
                   for vector in (bound.eb.vector, bound.ev.numerators)}
        if length and lengths - {length}:
            raise QueryError("query bounds of length %s against a column of "
                             "ciphertext length %d" % (sorted(lengths), length))
