"""The trusted client: encrypts data and queries, decrypts results.

Client-side duties in the paper's protocol (Sections 3-5.4):

* encrypt the column before upload — one ``Ev`` row per value, or two
  physical rows per value when ambiguity is on (Section 4.2);
* encrypt each query bound *twice* (``Eb`` for comparisons, ``Ev`` for
  the crack key — Section 4.3), each form an affine map of an entry the
  encryptor pooled, and ship a single
  :class:`~repro.core.query.EncryptedQuery`;
* decrypt the returned rows, discard the ~50% ambiguity false
  positives (Figure 13a), and report plaintext results.  An open is a
  function of the key and the row alone, so the client remembers what
  it made of each row it opened (:class:`OpenedRows`), and the server,
  told the client's session token with each query, names a row it
  shipped whole to that token before by id alone.

The client is the only component holding the
:class:`~repro.crypto.key.SecretKey`.
"""

from __future__ import annotations

import random
import secrets
import time
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.crypto.ciphertext import RowBlock, ValueCiphertext
from repro.crypto.key import SecretKey, generate_key
from repro.crypto.scheme import (
    Encryptor,
    as_integer,
    as_integers,
    checked_domain,
    generate_steerable_key,
)
from repro.core.query import EncryptedBound, EncryptedQuery
from repro.errors import DecryptionError, EncryptionError, QueryError, RowNotHeldError
from repro.linalg.limbs import _WORD_STAGE, PackedInts


@dataclass(frozen=True)
class ClientResult:
    """Decrypted outcome of one query.

    Attributes:
        values: plaintext values of the real rows returned.
        logical_ids: the originating logical row ids, parallel to
            ``values``.
        false_positives: number of fake rows discarded (0 without
            ambiguity).
        returned_rows: total rows the server shipped.
        decrypt_seconds: client-side decrypt-and-filter time — the
            Figure 13b measurement.
    """

    values: np.ndarray
    logical_ids: np.ndarray
    false_positives: int
    returned_rows: int
    decrypt_seconds: float

    @property
    def false_positive_rate(self) -> float:
        """Fraction of returned rows that were fakes (Figure 13a)."""
        if self.returned_rows == 0:
            return 0.0
        return self.false_positives / self.returned_rows


class OpenedRows:
    """What a key made of the rows a client was shipped, by physical id.

    Opening a row is a function of the key and the row alone, and the
    server ships a row whole to a session token once and names it by id
    alone after that (:meth:`~repro.core.server.SecureServer.execute`).
    So per id the client remembers whether the row it opened was real
    and its plaintext.  Whole rows are always opened, every check
    included, and one held must open alike; an id-only row is answered
    from here, or is a :class:`~repro.errors.RowNotHeldError`.

    Both sides keep one rule: only replies of the word stage's floor of
    rows (32) or more and ids ``[0, space)`` — the upload's, each naming
    one ciphertext for the column's life — are remembered, so a reply's
    ids never size the memory.  One client queries one column.  Nothing
    is allocated before :meth:`open` is first called.

    Attributes:
        space: the ids that may be remembered, ``0 .. space - 1``.
        cached_rows: rows answered from memory so far.
    """

    def __init__(self, encryptor: Encryptor, space: int = 0) -> None:
        self.encryptor = encryptor
        self.space = space
        self.cached_rows = 0
        # Per id: 0 not held, 1 a counterfeit, 2 a real row, and its
        # plaintext; and one spare slot, at ``space``, where every other
        # id is looked up and written, its state left 0.
        self._state = self._plain = None

    def open(
        self, ids: np.ndarray, block: RowBlock
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ids and values of a reply's real rows, in reply order: its
        ``int64`` ``ids`` as shipped — an id-only row's as its complement
        ``-1 - id`` — and ``block``, its whole rows in order.

        Raises:
            RowNotHeldError: an id-only row the memory lacks.
            DecryptionError: more or fewer rows than whole ids.
        """
        if self._state is None:
            self._state = np.zeros(self.space + 1, dtype=np.int8)
            self._plain = np.empty(self.space + 1, dtype=np.int64)
        count, size = len(block), len(ids)
        if size == count:  # every row whole
            real, values = self.encryptor.open_block(block)
            self._remember(ids, real, values)
            return ids[real], values
        flipped = named = ~ids  # an id-only row's id; negative for a whole row
        if count:
            whole = ids >= 0
            if np.count_nonzero(whole) != count:
                raise DecryptionError("a reply's whole ids and rows differ")
            named = flipped[~whole]
        # As intp indices, clamped: -1 is huge as uint64.
        slots = np.minimum(named.view(np.uint64), self.space).view(np.intp)
        state = self._state[slots]
        if np.count_nonzero(state) != size - count:
            if not count and np.maximum.reduce(ids) >= 0:
                raise DecryptionError("a reply's whole ids and rows differ")
            raise RowNotHeldError("a reply named by id alone a row not held")
        self.cached_rows += size - count
        held_real = state > 1
        if not count:
            named = named[held_real]
            return named, self._plain[named]
        opened_real, opened_values = self.encryptor.open_block(block)
        self._remember(ids[whole], opened_real, opened_values)
        real = np.empty(size, dtype=bool)
        real[~whole], real[whole] = held_real, opened_real
        plain = np.empty(size, np.result_type(self._plain, opened_values))
        plain[~whole] = self._plain[slots]
        plain[np.flatnonzero(whole)[opened_real]] = opened_values
        return np.maximum(ids, flipped)[real], plain[real]

    def _remember(self, ids, real, values) -> None:
        """Write opened rows under their ``ids`` (in the space); a held row
        that opens to another value is dropped, a ``DecryptionError``."""
        if values.dtype.kind == "O" and self._plain.dtype.kind != "O":
            self._plain = self._plain.astype(object)
        # As intp indices, clamped: -1 is huge as uint64.
        slots = np.minimum(ids.view(np.uint64), self.space).view(np.intp)
        held = self._state[slots]
        if held.any():
            other = (held > 0) & ((held > 1) != real)
            other[real] |= (held[real] > 0) & (self._plain[slots[real]] != values)
            if other.any():
                self._state[slots[other]] = 0
                raise DecryptionError("a held row opened to another value")
        self._state[slots] = real.view(np.int8) + 1
        self._state[self.space] = 0
        self._plain[slots[real]] = values


class TrustedClient:
    """Key holder: encrypts uploads and queries, decrypts responses.

    Args:
        key: secret key; generated fresh when omitted.
        seed: randomness seed for key generation and encryption.
        ambiguity: encrypt values with the Section 4.2 two-branch
            layer (doubles the server's data, halves an adversary's
            certainty).
        key_length: ciphertext length ``l`` when generating a key.
        fake_domain: half-open interval counterfeit pseudo-values are
            drawn from; defaults to the observed data range at
            :meth:`encrypt_dataset` time, so fakes qualify for range
            queries about as often as real rows (the ~50% false
            positive rate of Figure 13a).

    Raises:
        AmbiguityError: ``fake_domain`` is empty or not a pair of
            integers.
    """

    def __init__(
        self,
        key: SecretKey = None,
        seed: int = None,
        ambiguity: bool = False,
        key_length: int = 4,
        fake_domain: Tuple[int, int] = None,
    ) -> None:
        if fake_domain is not None:
            fake_domain = checked_domain(fake_domain)
        self._key_was_auto_generated = key is None
        self._seed = seed
        self._key_length = key_length
        if key is None:
            if ambiguity and fake_domain is not None and key_length >= 4:
                key = generate_steerable_key(
                    key_length, fake_domain, seed=seed
                )
            else:
                key = generate_key(length=key_length, seed=seed)
        self.key = key
        self.ambiguity = ambiguity
        self.fake_domain = fake_domain
        self._encryptor = Encryptor(key, seed=None if seed is None else seed + 1)
        self._opened = OpenedRows(self._encryptor)
        #: The session token of every query: equal seeds, equal tokens.
        self.token = (
            secrets.randbits(64) if seed is None
            else random.Random("token %r" % (seed,)).getrandbits(64)
        ) or 1

    def renew_token(self) -> None:
        """A fresh :attr:`token`, under which no row has been shipped."""
        self.token = secrets.randbits(64) or 1

    @property
    def encryptor(self) -> Encryptor:
        """The underlying scheme operations (key-holder only)."""
        return self._encryptor

    @property
    def cached_rows(self) -> int:
        """Returned rows :meth:`decrypt_results` answered from memory,
        not opened again (:class:`OpenedRows`)."""
        return self._opened.cached_rows

    # -- upload ------------------------------------------------------------------

    def encrypt_dataset(
        self, values: Iterable[int]
    ) -> Tuple[RowBlock, List[int]]:
        """Encrypt a column for upload.

        Returns ``(physical_rows, row_ids)``, the rows as one
        :class:`~repro.crypto.ciphertext.RowBlock` and the ids
        ``0 .. n - 1`` as one :class:`~repro.linalg.limbs.PackedInts`
        run (the list it stands for, held as the ``int64`` words a
        frame carries).  Without ambiguity,
        logical value ``i`` becomes physical row id ``i``.  With it,
        value ``i`` spawns physical ids ``2i`` and ``2i + 1`` — the
        two interpretations the server will manage separately; which of
        the two is real varies per value and stays secret.

        Raises:
            EncryptionError: a value that is not an integer (the scheme
                is exact: nothing is rounded on the way in).
        """
        return self._encrypt_dataset(as_integers(values))

    def _encrypt_dataset(
        self, values: List[int]
    ) -> Tuple[RowBlock, List[int]]:
        """:meth:`encrypt_dataset` of values :func:`as_integers` already
        checked — an upload checks its column once."""
        if self.ambiguity and self.fake_domain is None and values:
            self.fake_domain = (min(values), max(values) + 1)
            if self._key_was_auto_generated and self.key.length >= 4:
                # No data has been uploaded under the provisional key
                # yet, so the owner is free to re-draw one whose
                # ambiguity layer reaches the (just learned) domain.
                self.key = generate_steerable_key(
                    self.key.length, self.fake_domain, seed=self._seed
                )
                self._encryptor = Encryptor(
                    self.key,
                    seed=None if self._seed is None else self._seed + 1,
                )
                self._key_was_auto_generated = False
        rows = self._encrypt_rows(values)
        self._opened = OpenedRows(self._encryptor, len(rows))
        row_ids = np.arange(len(rows), dtype=np.uint64)
        return rows, PackedInts(row_ids.reshape(-1, 1))

    def _encrypt_rows(self, values: List[int]) -> RowBlock:
        """The physical rows of checked ``values`` as one block.

        Counterfeit branches are steered into :attr:`fake_domain` when
        one is known (set explicitly or learned from the dataset) and
        the key length permits; otherwise the unsteered Section 4.2
        construction is used.
        """
        if not self.ambiguity:
            return self._encryptor._encrypt_values(values)
        return self._encryptor._encrypt_values_ambiguous(
            values, self.fake_domain if self.key.length >= 4 else None
        )

    def encrypt_value(self, value: int) -> List[ValueCiphertext]:
        """Physical rows for one value (two when ambiguity is on) —
        what :meth:`_encrypt_rows` makes of it, as the rows themselves."""
        if not self.ambiguity:
            return [self._encryptor.encrypt_value(value)]
        return list(
            self._encryptor.encrypt_value_ambiguous(
                value, self.fake_domain if self.key.length >= 4 else None
            ).interpretations()
        )

    def logical_id(self, physical_row_id):
        """Map a server row id — or an integer array of them — back to
        the logical value index."""
        return physical_row_id // 2 if self.ambiguity else physical_row_id

    # -- queries -------------------------------------------------------------------

    def encrypt_query_bound(self, bound: int) -> EncryptedBound:
        """Encrypt one bound in both modes (Section 4.3), off the
        encryptor's pools."""
        return EncryptedBound(*self._encryptor._query_bound(as_integer(bound)))

    def make_query(
        self,
        low: int = None,
        high: int = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        pivots: Sequence[int] = (),
    ) -> EncryptedQuery:
        """Build the encrypted message for a range query.

        Either bound may be None: ``make_query(high=x)`` is the
        one-sided query ``A <= x`` (cracking only one piece at the
        server), ``make_query(low=x)`` is ``A >= x``; both None selects
        everything.  ``pivots`` are optional extra bounds for
        client-assisted stochastic cracking; the server may crack on
        them but they do not affect the result set.

        Raises:
            QueryError: an inverted range, or a bound or pivot that is
                not an integer.
        """
        try:
            low = None if low is None else as_integer(low)
            high = None if high is None else as_integer(high)
            pivots = as_integers(pivots)
        except EncryptionError as exc:
            raise QueryError("query bounds are integers: %s" % exc) from None
        if low is not None and high is not None and low > high:
            raise QueryError("inverted range: low=%r > high=%r" % (low, high))
        bound = self._encryptor._query_bound
        return EncryptedQuery(
            low=None if low is None else EncryptedBound(*bound(low)),
            high=None if high is None else EncryptedBound(*bound(high)),
            low_inclusive=low_inclusive,
            high_inclusive=high_inclusive,
            pivots=tuple([EncryptedBound(*bound(p)) for p in pivots]),
            token=self.token,
        )

    # -- responses ---------------------------------------------------------------------

    def decrypt_results(
        self,
        row_ids: Sequence[int],
        rows: Sequence[ValueCiphertext],
        id_mapper=None,
    ) -> ClientResult:
        """Decrypt a server response, discarding ambiguity fakes.

        Args:
            row_ids: the reply's physical ids, a row named by id alone
                (shipped whole under :attr:`token` before) as ``-1 - id``.
            rows: the other rows, in order — a row block as responses
                carry it, or any sequence of rows; opened with one
                matrix product either way
                (:meth:`~repro.crypto.scheme.Encryptor.open_block`) and,
                in a reply of the word stage's floor of rows or more,
                remembered (:class:`OpenedRows`).
            id_mapper: physical-to-logical id translation, called once
                with the ``int64`` array of the real rows' physical ids
                and returning their logical ids; defaults to
                :meth:`logical_id` (sessions with inserts pass their
                own mapping, since inserted ids leave the formulaic
                space).

        Raises:
            RowNotHeldError: a row named by id alone that the client
                does not hold, or in a reply under the floor.
            DecryptionError: more or fewer rows than whole ids.
        """
        if id_mapper is None:
            id_mapper = self.logical_id
        tick = time.perf_counter()
        # The scheme is arbitrary precision: values outside the
        # machine-word range arrive exact, as a Python big-int array.
        block = RowBlock.from_rows(rows)
        ids = np.asarray(row_ids, dtype=np.int64)
        returned = len(ids)
        if returned >= _WORD_STAGE[False][0]:
            real_ids, values = self._opened.open(ids, block)
        elif returned == len(block):
            is_real, values = self._encryptor.open_block(block)
            real_ids = ids[is_real]
        else:
            raise RowNotHeldError("a reply under the floor named rows by id")
        logical_ids = np.asarray(id_mapper(real_ids), dtype=np.int64)
        elapsed = time.perf_counter() - tick
        return ClientResult(
            values=values,
            logical_ids=logical_ids,
            false_positives=returned - len(values),
            returned_rows=returned,
            decrypt_seconds=elapsed,
        )
