"""The owner's value draws as a parse of the generator's word stream.

A value's encryption (paper 3.1-3.3) draws a multiplier ``xi`` and the
``l - 2`` components of a noise direction ``w``.
:meth:`repro.crypto.scheme.Encryptor._draw` reads them one value at a
time, as ``rng.randrange`` / ``rng.randint`` would — for a plain
:class:`random.Random`, ``r = getrandbits(stop.bit_length())`` repeated
while ``r >= stop``.  This module reads the same draws for a whole block
in arrays.

**The words.**  ``random.Random`` is MT19937, and for ``1 <= k <= 32``
``getrandbits(k)`` is the generator's next 32-bit output word shifted
right by ``32 - k``.  numpy's :class:`numpy.random.MT19937` is the same
generator — the same 624-word state and position counter, twist and
tempering — so set to the state ``getstate()`` exposes, its
``random_raw`` returns the words the Python loop would read, thousands
per call.  A draw below ``stop`` with ``k = stop.bit_length()`` accepts
a word exactly when ``word < stop << (32 - k)``, one comparison per
word.

**The parse.**  What a value consumes is then a parse of that word
stream: skip to the next word accepted as ``xi``, then take the next
``l - 2`` words accepted as ``w``, and repeat.  Each word's two tests are
array comparisons; the sequential part is which accepted ``xi`` word
starts each value.  With ``step[i]`` the ``xi`` candidate following a
value that starts at candidate ``i`` — one cumulative count and three
gathers for all candidates at once — the values start at the orbit of
candidate 0 under ``step``: ``step`` is squared in arrays a few times,
the orbit of that power is walked in Python (one point per group of
values), and the points between are filled back in by halving
(:func:`_orbit`).

**The hand-back.**  Stream position ``624 t + i`` is word ``i`` of the
``t``-th state, tempered, so the generator's state after any number of
words is the 624 words of its current state, untempered, and the
position in it (:func:`_untemper`).  :meth:`DrawStream.close` sets the
generator to exactly that — ``gauss_next`` kept — as if the loop had
drawn the values itself; words drawn past it are dropped.

A ``w`` collinear with ``u`` is drawn again before the next value draws,
which no word-by-word test can see; :meth:`DrawStream.draw` stops at the
first such value and hands the generator back at its first word, for
the loop to draw it and what follows.
"""

from __future__ import annotations

import random
from math import ceil, gcd
from typing import Sequence, Tuple

import numpy as np

#: Words of MT19937 state; stream position ``624 t + i`` is word ``i``
#: of the ``t``-th state.
_STATE_WORDS = 624

#: Most words one parse reads: its arrays are ~30 bytes a word, so a
#: chunk's transients stay bounded whatever the key length.
_PARSE_WORDS = 1 << 17

#: Draws per value the stream reads ahead of the mean, relatively: the
#: words a chunk does not take carry over to the next.
_AHEAD = 1.03

_LOW_HALF = np.int64(0xFFFFFFFF)
_HIGH_HALF = np.int64(32)


class DrawStream:
    """``(xi, w)`` draws, value after value, read off the words of a
    plain :class:`random.Random` as
    :meth:`~repro.crypto.scheme.Encryptor._draw` reads them.

    Opened from ``rng.getstate()``; :meth:`close` hands the generator
    back past exactly the words the values drawn took.  Between the two,
    ``rng`` must not be drawn from.

    Args:
        rng: the generator, a plain :class:`random.Random` (a subclass
            may draw otherwise) whose spans below are at most 32 bits
            wide, one word a draw.
        xi_span: ``xi = 2 r + 1`` with ``r`` uniform below it.
        noise_span: a ``w`` component is uniform below it, less
            ``magnitude``.
        magnitude: the noise magnitude ``B`` (``noise_span = 2 B + 1``).
        u: the key's secret direction; a ``w`` collinear with it is
            drawn again.
        width: components of ``w`` per value, 0 where none is drawn.
    """

    def __init__(
        self,
        rng: random.Random,
        xi_span: int,
        noise_span: int,
        magnitude: int,
        u: Sequence[int],
        width: int,
    ) -> None:
        self._rng = rng
        self._version, state, self._gauss = rng.getstate()
        self._key, start = state[:-1], state[-1]
        self._bits = np.random.MT19937(0)
        self._bits.state = {
            "bit_generator": "MT19937",
            "state": {"key": self._key, "pos": start},
        }
        # Stream positions: the words drawn so far end at ``_drawn``,
        # the values have taken them up to ``_at``, and ``_words``
        # holds them from ``_base`` on — from the first word of the
        # current state once past the opening one, for close().
        self._words = np.empty(0, dtype=np.uint32)
        self._base = self._at = self._drawn = start
        xi_shift = 32 - xi_span.bit_length()
        noise_shift = 32 - noise_span.bit_length()
        self._xi = (np.uint32(xi_span << xi_shift), xi_shift)
        self._noise = (np.uint32(noise_span << noise_shift), noise_shift)
        self._magnitude = magnitude
        self._width = width
        self._per_value = _AHEAD * (
            (1 << 32 - xi_shift) / xi_span
            + width * (1 << 32 - noise_shift) / noise_span
        )
        # w = c u for a rational c iff w = c' u / gcd(u) for an integer
        # c'.  Where some |u_i / gcd(u)| > B no nonzero |w_i| <= B can
        # be such a multiple, so only w = 0 is; otherwise every cross
        # product below is of two numbers under 2^31, exact in int64.
        common = gcd(*u)
        reduced = [u_i // common for u_i in u]
        self._direction = None
        if max(map(abs, reduced)) <= magnitude:
            pivot = next(i for i, u_i in enumerate(reduced) if u_i)
            self._direction = (np.array(reduced, dtype=np.int64), pivot)

    @property
    def closed(self) -> bool:
        """Whether the generator has been handed back."""
        return self._rng is None

    def draw(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next ``count`` values' draws as ``int64`` arrays ``(xis,
        ws)``, ``ws`` the flat run of each value's ``w`` — or, where a
        value's first ``w`` is collinear with ``u``, those of the
        values before it only, the stream closed at that value's first
        word."""
        xis, ws = [], []
        stalled = False
        while count:
            available = self._drawn - self._at
            wanted = min(_PARSE_WORDS, ceil(count * self._per_value) + 64)
            if stalled:
                # One value longer than every word drawn so far.
                wanted = 2 * available
            if available < wanted:
                self._fetch(wanted - available)
            words = self._words[self._at - self._base:]
            xi_at, w_at = _parse(
                words, self._xi[0], self._noise[0], self._width, count
            )
            w = (words[w_at] >> self._noise[1]).astype(np.int64)
            w -= self._magnitude
            redrawn = np.flatnonzero(self._collinear(w))[:1]
            if len(redrawn):
                taken = redrawn[0]
                xi_at, w_at, w = xi_at[:taken], w_at[:taken], w[:taken]
            xis.append(words[xi_at] >> self._xi[1])
            ws.append(w.ravel())
            if len(xi_at):
                last = w_at[-1, -1] if self._width else xi_at[-1]
                self._consume(int(last) + 1)
            if len(redrawn):
                self.close()
                break
            count -= len(xi_at)
            stalled = not len(xi_at)
        xis = np.concatenate(xis).astype(np.int64)
        xis *= 2
        xis += 1
        return xis, np.concatenate(ws)

    def _collinear(self, w: np.ndarray) -> np.ndarray:
        """Per row of an ``n x width`` array of draws, whether it is
        collinear with ``u`` — zero included — as ``_draw`` tests it (no
        row is where no ``w`` is drawn)."""
        if not self._width:
            return np.zeros(len(w), dtype=bool)
        if self._direction is None:
            return ~w.any(axis=1)
        direction, pivot = self._direction
        crossed = w * direction[pivot] - w[:, pivot:pivot + 1] * direction
        return ~crossed.any(axis=1)

    def _fetch(self, count: int) -> None:
        """Draw ``count`` more words."""
        fresh = self._bits.random_raw(count).astype(np.uint32)
        self._words = np.concatenate((self._words, fresh))
        self._drawn += count

    def _consume(self, count: int) -> None:
        """Mark ``count`` more words taken, keeping what close() needs."""
        self._at += count
        keep = self._at
        if keep > _STATE_WORDS:
            keep = _STATE_WORDS * ((keep - 1) // _STATE_WORDS)
        self._words = self._words[keep - self._base:]
        self._base = keep

    def close(self) -> None:
        """Hand the generator back in the state the loop would have left
        it in: past the words taken and no further (a no-op once
        closed)."""
        if self._rng is None:
            return
        at = self._at
        if at <= _STATE_WORDS:
            key, position = self._key, at
        else:
            start = _STATE_WORDS * ((at - 1) // _STATE_WORDS)
            if self._drawn < start + _STATE_WORDS:
                self._fetch(start + _STATE_WORDS - self._drawn)
            offset = start - self._base
            key = tuple(
                _untemper(self._words[offset:offset + _STATE_WORDS]).tolist()
            )
            position = at - start
        self._rng.setstate((self._version, key + (position,), self._gauss))
        self._rng = None


def _parse(
    words: np.ndarray, xi_limit, noise_limit, width: int, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Word indices of the first ``count`` values ``words`` holds whole
    (fewer where it holds fewer): per value its ``xi`` word, and an ``n
    x width`` array of its ``w`` words."""
    xi_ok = words < xi_limit
    candidates = np.flatnonzero(xi_ok)
    if not width:
        xi_at = candidates[:count]
        return xi_at, np.empty((len(xi_at), 0), dtype=np.int64)
    noise_ok = words < noise_limit
    noise_words = np.flatnonzero(noise_ok)
    # Accepted words at or before each position: w's in the high half,
    # xi's in the low.
    accepted = noise_ok.astype(np.int64)
    accepted <<= _HIGH_HALF
    accepted |= xi_ok
    np.cumsum(accepted, out=accepted)
    # The value whose xi is candidate i takes w words first[i] on; the
    # next value's xi is the first candidate after its last.
    first = accepted[candidates] >> _HIGH_HALF
    last = first + (width - 1)
    whole = last < len(noise_words)
    size = len(candidates)
    step = np.full(size + 1, size, dtype=np.int64)
    step[:size][whole] = accepted[noise_words[last[whole]]] & _LOW_HALF
    starts = _orbit(step, count)
    starts = starts[starts < size]
    starts = starts[:np.count_nonzero(whole[starts])]
    return (
        candidates[starts],
        noise_words[first[starts][:, None] + np.arange(width)],
    )


def _orbit(step: np.ndarray, count: int) -> np.ndarray:
    """``0, step[0], step[step[0]], ...``: the first ``count`` points of
    the orbit of 0 under the index map ``step``.  ``step`` is squared
    ``levels`` times in arrays, the orbit of that power walked in
    Python — one point per ``2 ** levels``, ~sqrt(count) of them — and
    the points between filled in by halving, one gather per level."""
    levels = (count.bit_length() - 1) // 2
    powers = [step]
    for _ in range(levels):
        powers.append(powers[-1][powers[-1]])
    jump = powers.pop()
    point, heads = 0, []
    for _ in range(-(-count >> levels)):
        heads.append(point)
        point = jump[point]
    orbit = np.array(heads, dtype=np.int64)
    for power in reversed(powers):
        orbit = np.stack((orbit, power[orbit]), axis=1).ravel()
    return orbit[:count]


def _untemper(words: np.ndarray) -> np.ndarray:
    """The MT19937 state words whose tempered outputs are ``words``
    (``uint32``): the tempering's four xor-shifts undone in reverse.
    Re-applying a shift by ``s`` fixes ``s`` more bits of its input, so
    the shifts by 7 and 11 take ``ceil(32 / s)`` rounds; those by 18 and
    15 take one, the bits they read being ones they do not change."""
    y = words ^ (words >> 18)
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x
    for _ in range(2):
        x = y ^ (x >> 11)
    return x
