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
  it made of each row it opened (:class:`OpenedRows`) and answers a row
  shipped again, limb for limb, from memory.

The client is the only component holding the
:class:`~repro.crypto.key.SecretKey`.
"""

from __future__ import annotations

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
from repro.errors import EncryptionError, QueryError
from repro.linalg.limbs import _WORD_STAGE, PackedInts, widen


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
    """What a key made of the rows a client opened, by physical row id.

    Range queries return the same rows again and again, and opening a
    row is a function of the key and the row alone.  So each row opened
    is remembered under its id, as shipped (its ``(l + 1) x k`` limbs)
    with what :meth:`~repro.crypto.scheme.Encryptor.open_block` made of
    it (real or not, and the plaintext).  A row of a reply whose id is
    remembered and whose limbs all equal the remembered ones, compared
    at a common width, is answered from memory; every other row is
    opened, with every check the open runs, and its result replaces the
    entry.  Ids only find an entry and are never trusted: a server that
    changes one limb under a known id gets a full open.

    Only ids ``[0, space)`` are remembered — those the client uploaded —
    so a reply's ids never size the memory; ids the server assigned to
    rows inserted later are opened every time.  Nothing is allocated
    before :meth:`open` is first called; then a slot per id (-1: none)
    and a store of remembered rows, filled in the order they are first
    seen, with room for ``space`` of them (allocated, not written: a
    part of it costs memory once rows are written there).
    A block some of whose plaintexts need more than a word is opened as
    the key opens it, and none of its rows is remembered.

    Attributes:
        space: the ids that may be remembered, ``0 .. space - 1``.
        cached_rows: rows answered from memory so far.
    """

    def __init__(self, encryptor: Encryptor, space: int = 0) -> None:
        self.encryptor = encryptor
        self.space = space
        self.cached_rows = 0
        # Per id its row's slot in the store, -1 for none — and -1 at
        # ``space`` and past it, where every other id is looked up.
        self._slots = None
        self._rows = None
        self._real = None
        self._plain = None
        self._count = 0

    def open(
        self, ids: np.ndarray, block: RowBlock
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``open_block(block)`` — ``(is_real, values)`` — of the rows
        shipped under the ``int64`` ``ids``, each row the memory holds
        as shipped answered from it."""
        limbs = block.limbs
        count = len(limbs)
        if (
            not self.space
            or len(ids) != count
            or limbs.shape[1] != self.encryptor.key.length + 1
        ):
            return self.encryptor.open_block(block)
        if self._slots is None:
            self._slots = np.full(self.space + 1, -1, dtype=np.int32)
            self._rows = np.empty((self.space,) + limbs.shape[1:], np.uint64)
            self._real = np.empty(self.space, dtype=bool)
            self._plain = np.empty(self.space, dtype=np.int64)
        if limbs.shape[2] > self._rows.shape[2]:
            self._widen(limbs.shape[2])
        rows = widen(limbs, self._rows.shape[2])
        # Every id outside [0, space) reads the slot at ``space``: none.
        positions = np.minimum(ids.view(np.uint64), self.space)
        slots = self._slots[positions]
        hit = slots >= 0
        if hit.all():
            hit = (self._rows[slots] == rows).all(axis=(1, 2))
        elif not hit.any():
            # Nothing to look up: the reply is opened whole.
            real, values = self.encryptor.open_block(block)
            if values.dtype.kind != "O":
                self._remember(positions, slots, rows, real, values)
            return real, values
        else:
            known = hit.nonzero()[0]
            hit[known] = (self._rows[slots[known]] == rows[known]).all(
                axis=(1, 2)
            )
        real, plain = self._real[slots], self._plain[slots]
        missed = np.flatnonzero(~hit)
        self.cached_rows += count - len(missed)
        if len(missed):
            if len(missed) < count:
                block, rows = RowBlock._of(limbs[missed]), rows[missed]
                positions, slots = positions[missed], slots[missed]
            opened_real, opened_values = self.encryptor.open_block(block)
            real[missed] = opened_real
            if opened_values.dtype.kind == "O":
                plain = plain.astype(object)
            else:
                self._remember(
                    positions, slots, rows, opened_real, opened_values
                )
            plain[missed[opened_real]] = opened_values
        return real, plain[real]

    def _remember(self, positions, slots, rows, real, values) -> None:
        """Write opened rows under their ``positions`` (ids, ``space``
        for one outside), each with whether it is real and, for the real
        ones, its plaintext among ``values``; an id of the space seen
        for the first time takes a slot.  Ids shipped twice in a reply
        keep the first row shipped, ids outside the space none."""
        if (slots < 0).all():
            # Ids all new, as a reply's unseen rows come: they take a run
            # of slots at the store's end — unless one is outside the
            # space or shipped twice, which the slots read back shows.
            start, end = self._count, self._count + len(slots)
            run = np.arange(start, end, dtype=np.int32)
            self._slots[positions] = run
            if self._slots[self.space] < 0 and (
                self._slots[positions] == run
            ).all():
                self._count = end
                self._rows[start:end] = rows
                self._real[start:end] = real
                self._plain[start:end][real] = values
                return
            self._slots[positions] = -1
        keep = np.zeros(len(positions), dtype=bool)
        keep[np.unique(positions, return_index=True)[1]] = True
        keep &= positions < self.space
        values = values[keep[real]]
        positions, slots = positions[keep], slots[keep]
        rows, real = rows[keep], real[keep]
        fresh = np.flatnonzero(slots < 0)
        if len(fresh):
            end = self._count + len(fresh)
            slots[fresh] = np.arange(self._count, end, dtype=np.int32)
            self._slots[positions[fresh]] = slots[fresh]
            self._count = end
        self._rows[slots] = rows
        self._real[slots] = real
        self._plain[slots[real]] = values

    def _widen(self, k: int) -> None:
        """Move the remembered rows into a store of ``k`` limbs a row
        (a wider reply)."""
        rows = np.empty(self._rows.shape[:2] + (k,), np.uint64)
        rows[:self._count] = widen(self._rows[:self._count], k)
        self._rows = rows


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
            row_ids: physical ids parallel to ``rows``.
            rows: the returned ciphertexts — a row block as responses
                carry it, or any sequence of rows; opened with one
                matrix product either way
                (:meth:`~repro.crypto.scheme.Encryptor.open_block`).
                From the word stage's floor of rows up, a row shipped
                before under the same id, limb for limb, is answered
                from memory instead (:class:`OpenedRows`); a shorter
                reply is opened whole and never remembered.
            id_mapper: physical-to-logical id translation, called once
                with the ``int64`` array of the real rows' physical ids
                and returning their logical ids; defaults to
                :meth:`logical_id` (sessions with inserts pass their
                own mapping, since inserted ids leave the formulaic
                space).
        """
        if id_mapper is None:
            id_mapper = self.logical_id
        tick = time.perf_counter()
        # The scheme is arbitrary precision: values outside the
        # machine-word range arrive exact, as a Python big-int array.
        block = RowBlock.from_rows(rows)
        ids = np.asarray(row_ids, dtype=np.int64)
        if len(block) < _WORD_STAGE[False][0]:
            is_real, values = self._encryptor.open_block(block)
        else:
            is_real, values = self._opened.open(ids, block)
        logical_ids = id_mapper(ids[is_real])
        elapsed = time.perf_counter() - tick
        return ClientResult(
            values=values,
            logical_ids=np.array(logical_ids, dtype=np.int64),
            false_positives=len(is_real) - len(values),
            returned_rows=len(is_real),
            decrypt_seconds=elapsed,
        )
