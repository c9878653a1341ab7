"""Row blocks end to end: result pin, decrypt reference, hot-path guard.

A result set is one array of ``uint64`` limbs — ``l`` numerators and a
denominator per row (:class:`repro.crypto.ciphertext.RowBlock`) — from
the owner's encryption to the engine's column to the wire to
``TrustedClient.decrypt_results``.  These pins keep that path honest:

* the decrypted result stream of a fixed-seed session hashes to the
  value the per-row path produced at the commit before blocks existed;
* batch decryption equals a per-row reference kept *here* (the
  ``Fraction`` decrypt the block kernel replaced), Hypothesis-driven;
* a block opened in 64-bit words equals the big-int loop it replaced
  (kept *here*), tampered limbs included, and no row whose opened
  values leave a word is ever answered from one;
* blocks of different limb counts compare, add, take and concatenate
  by value (sign extension), and a wider row widens a narrower column;
* a warmed query round trip constructs no ``ValueCiphertext`` and no
  ``Fraction`` — a count, so the per-row path cannot creep back
  unnoticed by a timing test.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.client import TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.server import SecureServer, ServerResponse
from repro.core.session import OutsourcedDatabase
from repro.crypto.ciphertext import BoundCiphertext, RowBlock, ValueCiphertext
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor
from repro.errors import UpdateError
from repro.linalg import limbs as L
from repro.linalg.intmat import mat_vec
from repro.linalg.limbs import DIGIT_FACTOR_LIMIT, to_objects, widen
from repro.linalg.vectors import dot, orthogonal_vector

#: sha256 over the decrypted ``ClientResult`` stream of
#: :func:`session_script` in the four configurations below.  First
#: computed at the parent of the row-block PR (per-row wire form,
#: per-row decrypt) over eight, half of them on a sharded column.
#: Sharding is gone, so the digest was recomputed at the parent of its
#: deletion over the unsharded half only, in the same run that still
#: matched the eight-configuration digest.  Re-pinned once more when the
#: owner's draws moved to a keyed SHAKE-256 stream: the ambiguity
#: sessions' counterfeits moved, and with them their false positives and
#: returned rows; the plain sessions' results hash as before.  And once
#: when query bounds came to be drawn from the encryptor's pools: queries
#: stopped reading the sequential stream, so the counterfeits of rows
#: inserted later moved; every result's real values and logical ids
#: (71 per session, key rotation included) stayed the parent's.
RESULT_STREAM_SHA256 = (
    "b4cb3c9e05631d8ac3b28303797db4684c287994c23fb15bca2ad519df254d2f"
)

#: The configurations the pin was computed over.  Each names the frame
#: codec it ran: a session could pick JSON frames then, and both codecs
#: answered alike.  There is one codec now, so the two labels of one
#: ``ambiguity`` setting name the same session — it runs once and its
#: results feed the digest under each label.
PIN_CONFIGS = [
    (ambiguity, codec)
    for ambiguity in (False, True)
    for codec in ("json", "binary")
]


def session_script(ambiguity):
    """Yield every ``ClientResult`` of one fixed-seed session: ranges,
    points, one-sided and batched queries around inserts, deletes, a
    merge and a key rotation."""
    rng = random.Random(20160626)
    values = [rng.randrange(0, 5000) for _ in range(400)]
    db = OutsourcedDatabase(
        values, ambiguity=ambiguity, seed=11, min_piece_size=4,
    )
    inserted = []
    for step in range(60):
        low = rng.randrange(0, 4800)
        kind = step % 6
        if kind == 0:
            yield db.query(low, low + rng.randrange(1, 400))
        elif kind == 1:
            yield db.query_point(values[rng.randrange(len(values))])
        elif kind == 2:
            inserted.append(db.insert(rng.randrange(0, 5000)))
            yield db.query_below(low, inclusive=False)
        elif kind == 3:
            db.delete(rng.randrange(len(values)))
            if inserted and rng.random() < 0.5:
                db.delete(inserted.pop())
            yield db.query_above(low)
        elif kind == 4:
            yield from db.query_many(
                [(low, low + 150), (low + 100, low + 700, False, True)]
            )
        else:
            if step == 29:
                db.merge()
            if step == 47:
                db.rotate_key(new_seed=12)
            yield db.query(low, low + 60, False, False)
    yield db.query()


def _result_bytes(result):
    return repr((
        [int(v) for v in result.values],
        [int(i) for i in result.logical_ids],
        int(result.false_positives),
        int(result.returned_rows),
    )).encode()


def test_decrypted_result_stream_matches_the_per_row_parent():
    digest = hashlib.sha256()
    streams = {}
    for ambiguity, codec in PIN_CONFIGS:
        digest.update(repr((ambiguity, codec)).encode())
        if ambiguity not in streams:
            streams[ambiguity] = [
                _result_bytes(result) for result in session_script(ambiguity)
            ]
        for chunk in streams[ambiguity]:
            digest.update(chunk)
    assert digest.hexdigest() == RESULT_STREAM_SHA256


#: sha256 over ``TrustedClient.encrypt_dataset`` output (rows, ids and
#: the stream's next word) for l in {3, 4, 6} x ambiguity {off, on}.
#: First computed at the same parent, where the batched ``@ M^-1``
#: upload yielded the per-value path's bits; re-pinned when the owner's
#: draws moved to a keyed SHAKE-256 stream, which moved every
#: ciphertext.
ENCRYPT_DATASET_SHA256 = (
    "e2ee6a0416cfad5d01696a510016ac750fa6d57cd8698128d5cf5dfff100266a"
)


def test_encrypt_dataset_is_bit_identical_to_the_per_value_parent():
    rng = random.Random(7)
    values = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(300)]
    values += [2 ** 70, -2 ** 65]
    digest = hashlib.sha256()
    for ambiguity in (False, True):
        for key_length in (3, 4, 6):
            client = TrustedClient(
                seed=5, ambiguity=ambiguity, key_length=key_length
            )
            rows, ids = client.encrypt_dataset(values)
            assert isinstance(rows, RowBlock)
            digest.update(repr(
                [(row.numerators, row.denominator) for row in rows]
            ).encode())
            digest.update(repr(list(ids)).encode())
            digest.update(repr(next(client.encryptor._words)).encode())
    assert digest.hexdigest() == ENCRYPT_DATASET_SHA256


# -- batch decryption against the per-row reference ------------------------------


def reference_decrypt_row(key, row):
    """``Encryptor.decrypt_row`` as it was before blocks: one exact
    mat-vec and ``Fraction`` arithmetic per row.  Returns ``(value,
    multiplier, is_real)``."""
    pre_image = mat_vec(key.matrix, row.numerators)
    payload0, payload1 = key.payload_projection(pre_image)
    if dot(key.u, key.noise_projection(pre_image)) != 0:
        return None, Fraction(0), False
    multiplier = Fraction(-payload1, row.denominator)
    if not (multiplier > 0 and multiplier.denominator == 1
            and multiplier.numerator % 2 == 1):
        return None, multiplier, False
    value = Fraction(payload0, -payload1)
    if value.denominator != 1:
        return None, multiplier, False
    return int(value), multiplier, True


def reference_decrypt_results(key, row_ids, rows, id_mapper):
    values, logical_ids, false_positives = [], [], 0
    for row_id, row in zip(row_ids, rows):
        value, _, is_real = reference_decrypt_row(key, row)
        if is_real:
            values.append(value)
            logical_ids.append(id_mapper(int(row_id)))
        else:
            false_positives += 1
    try:
        values_array = np.array(values, dtype=np.int64)
    except OverflowError:
        values_array = np.array(values, dtype=object)
    return values_array, logical_ids, false_positives


KEYS = {length: generate_key(length=length, seed=900 + length)
        for length in (3, 4, 5, 6)}

ROW_KINDS = ("plain", "ambiguous", "tampered", "zero_xi", "scaled",
             "half_scaled", "even_xi", "fractional_value")

recipes = st.lists(
    st.tuples(
        st.sampled_from(ROW_KINDS),
        st.one_of(
            st.integers(-(2 ** 20), 2 ** 20),
            st.integers(2 ** 63, 2 ** 90),       # object-dtype values
            st.integers(-(2 ** 90), -(2 ** 63) - 1),
        ),
        st.integers(2, 9),
    ),
    max_size=8,
)


def build_rows(key, seed, recipe):
    """Honest rows, counterfeits, and every way a row fails to open."""
    encryptor = Encryptor(key, seed=seed)
    rng = random.Random(seed)
    rows = []
    for kind, value, factor in recipe:
        if kind == "ambiguous":
            steer = {"fake_domain": (value - 50, value + 50)} \
                if key.length >= 4 else {}
            rows.extend(
                encryptor.encrypt_value_ambiguous(value, **steer)
                .interpretations()
            )
            continue
        row = encryptor.encrypt_value(value)
        numerators = list(row.numerators)
        if kind == "tampered":
            # r[0] != 0 by key construction, so this breaks u . noise.
            numerators[0] += factor
            row = ValueCiphertext(tuple(numerators))
        elif kind == "scaled":  # the same rational row, denominator != 1
            row = ValueCiphertext(
                tuple(n * factor for n in numerators), factor
            )
        elif kind == "half_scaled":  # xi / factor: not integral
            row = ValueCiphertext(tuple(numerators), 2 * factor)
        elif kind in ("zero_xi", "even_xi", "fractional_value"):
            xi, payload0 = {
                "zero_xi": (0, value),               # payload1 == 0
                "even_xi": (2 * factor, 2 * factor * value),
                "fractional_value": (2 * factor + 1, value * 2 * factor + 1),
            }[kind]
            noise = orthogonal_vector(key.u, rng)
            row = ValueCiphertext(mat_vec(
                key.matrix_inverse, key.assemble(payload0, -xi, noise)
            ))
        rows.append(row)
    return rows


class TestBlockDecryptMatchesPerRowReference:
    @given(length=st.sampled_from(sorted(KEYS)), seed=st.integers(0, 2 ** 16),
           recipe=recipes, as_block=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_decrypt_results(self, length, seed, recipe, as_block):
        key = KEYS[length]
        rows = build_rows(key, seed, recipe)
        row_ids = [3 * i + 1 for i in range(len(rows))]
        client = TrustedClient(key=key, seed=seed)
        result = client.decrypt_results(
            row_ids, RowBlock.from_rows(rows) if as_block else rows,
            id_mapper=lambda row_id: row_id * 2,
        )
        values, logical_ids, false_positives = reference_decrypt_results(
            key, row_ids, rows, lambda row_id: row_id * 2
        )
        assert result.values.dtype == values.dtype
        assert result.values.tolist() == values.tolist()
        assert result.logical_ids.dtype == np.int64
        assert result.logical_ids.tolist() == logical_ids
        assert result.false_positives == false_positives
        assert result.returned_rows == len(rows)
        # ... and row by row, multiplier included.
        for row in rows:
            opened = client.encryptor.decrypt_row(row)
            assert (opened.value, opened.multiplier, opened.is_real) \
                == reference_decrypt_row(key, row)

    @pytest.mark.parametrize("length", sorted(KEYS))
    def test_every_failure_mode_is_rejected(self, length):
        key = KEYS[length]
        recipe = [(kind, 1234, 3) for kind in ROW_KINDS]
        rows = build_rows(key, 5, recipe)
        is_real, values, _ = Encryptor(key).decrypt_block(rows)
        # plain, the real face of the ambiguous pair, and scaled open;
        # nothing else does (the noise check rejects the tampered row).
        assert values == [1234, 1234, 1234]
        assert sum(is_real) == 3
        assert is_real[0] and sum(is_real[1:3]) == 1 and is_real[5]

    def test_empty_and_one_row_blocks(self):
        client = TrustedClient(seed=3)
        for rows in ((), RowBlock.from_rows(())):
            empty = client.decrypt_results([], rows)
            assert empty.values.dtype == np.int64 and len(empty.values) == 0
            assert (empty.returned_rows, empty.false_positives) == (0, 0)
        one = client.decrypt_results([7], client.encrypt_value(41))
        assert one.values.tolist() == [41] and one.logical_ids.tolist() == [7]

    def test_values_beyond_int64_stay_exact(self):
        client = TrustedClient(seed=3)
        rows, ids = client.encrypt_dataset([5, 2 ** 80, -(2 ** 64)])
        result = client.decrypt_results(ids, rows)
        assert result.values.dtype == object
        assert result.values.tolist() == [5, 2 ** 80, -(2 ** 64)]


# -- opening a block in words --------------------------------------------------------


def reference_open_block(encryptor, rows):
    """``Encryptor.decrypt_block`` as it was before blocks were opened
    in words: one big-int matrix product, then a Python loop of integer
    remainders.  Returns its three results and the opened triples."""
    key = encryptor.key
    p0, p1 = key.payload_positions
    open_rows = (
        key.matrix[p0], tuple(-x for x in key.matrix[p1]), key.ambiguity_row,
    )
    is_real, values, xi_numerators, opened = [], [], [], []
    for row in rows:
        payload0, xi, noise = (dot(r, row.numerators) for r in open_rows)
        opened.append((payload0, xi, noise))
        if noise:
            xi = 0
        real = (
            xi > 0
            and xi % row.denominator == 0
            and xi // row.denominator % 2 == 1
            and payload0 % xi == 0
        )
        is_real.append(real)
        xi_numerators.append(xi)
        if real:
            values.append(payload0 // xi)
    return (is_real, values, xi_numerators), opened


#: Plaintexts from the comfortable middle of the domain out to where
#: ``xi * v`` leaves a machine word and beyond.
WIDE_PLAINTEXTS = (
    [0, 1, -1, 2 ** 31 - 1, -(2 ** 31)]
    + [sign * (2 ** bits + delta)
       for bits in (46, 47, 48, 62, 63, 64, 70)
       for sign in (1, -1) for delta in (-1, 0, 1)]
)
SMALL_PLAINTEXTS = list(range(0, 2 ** 31, 2 ** 25 + 12345))[:48]


def undecided_in_digits(row, opened):
    """Whether the digit path leaves ``row`` (``opened`` its big-int
    ``(payload0, xi, noise)``) to big ints: a clean row with ``xi > 0``
    whose ``xi / denominator`` or ``|payload0| / xi`` rounds past
    ``DIGIT_FACTOR_LIMIT`` (2^31 - 1, which is itself decided).  The
    float64 ratio the path rounds is within 2^-16 of the exact one, so
    none may lie that close to the halfway point past the limit."""
    payload0, xi, noise = opened
    if noise or xi <= 0:
        return False
    halfway = DIGIT_FACTOR_LIMIT + Fraction(1, 2)
    ratios = (Fraction(xi, row.denominator), Fraction(abs(payload0), xi))
    assert all(abs(ratio - halfway) > Fraction(1, 2 ** 10) for ratio in ratios)
    return max(ratios) > halfway


def wide_quotients(encryptor, rows):
    """How many of ``rows`` the digit path leaves to big ints."""
    opened = reference_open_block(encryptor, rows)[1]
    return sum(map(undecided_in_digits, rows, opened))


def spy_stages(monkeypatch):
    """Record the stages of :func:`repro.linalg.limbs.multiply` that
    run: ``(stages, boxed)`` — per stage tried, its name and the rows it
    was tried on, in order; and every row boxed, as a tuple."""
    stages, boxed = [], []

    def rows_of(stage, arguments):
        if stage == "digits":
            return arguments[0].shape[1]
        if stage == "boxed":
            boxed.extend(map(tuple, to_objects(arguments[0]).tolist()))
        return len(arguments[0])

    for name, stage in (("proven_products", "words"),
                        ("exact_products", "digits"),
                        ("boxed_products", "boxed")):
        def spy(*arguments, _real=getattr(L, name), _stage=stage):
            stages.append((_stage, rows_of(_stage, arguments)))
            return _real(*arguments)
        monkeypatch.setattr(L, name, spy)
    return stages, boxed


def whole_block(stages, count):
    """The stages that took all ``count`` rows of a block: ``["words"]``
    when the words kept it, ``[..., "digits"]`` when digits opened it."""
    return [stage for stage, rows in stages if rows == count]


class TestWordSizedOpenMatchesBigInts:
    """``decrypt_block`` over 32+ rows multiplies limb 0 in wrapping
    64-bit words and keeps a row's result only where the float plane
    proves no word wrapped; a block of 64+ rows whose bit-lengths rule
    that proof out is multiplied exactly in 32-bit digits; every other
    row and block is the big-int loop above."""

    @pytest.mark.parametrize("limbs", [1, 2, 3])
    @pytest.mark.parametrize("ambiguity", [False, True])
    @pytest.mark.parametrize("length", [3, 4, 8, 16, 32])
    def test_differential(self, length, ambiguity, limbs, monkeypatch):
        encryptor = Encryptor(generate_key(length=length, seed=3), seed=7)
        plaintexts = SMALL_PLAINTEXTS + (WIDE_PLAINTEXTS if limbs > 1 else [])
        if ambiguity:
            block = encryptor.encrypt_values_ambiguous(plaintexts)
        else:
            block = encryptor.encrypt_values(plaintexts)
        # One bit flipped in a high limb, a low limb and a denominator.
        store = widen(block.limbs, max(limbs, block.limbs.shape[2])).copy()
        store[3, 1, -1] ^= np.uint64(1 << 9)
        store[5, 0, 0] ^= np.uint64(1 << 3)
        store[7, -1, 0] ^= np.uint64(1 << 1)
        block = RowBlock(store)
        rows = list(block)

        stages, refused = spy_stages(monkeypatch)
        before = encryptor.fast_rows, encryptor.exact_rows
        result = encryptor.decrypt_block(block)
        fast = encryptor.fast_rows - before[0]
        exact = encryptor.exact_rows - before[1]
        whole = whole_block(stages, len(rows))

        expected, opened = reference_open_block(encryptor, rows)
        assert result == expected
        assert fast + exact == len(rows) and exact == len(refused)
        refused = set(refused)
        word = range(-(2 ** 63), 2 ** 63)
        if whole == ["words"]:
            assert "digits" not in dict(stages)
            for row, triple in zip(rows, opened):
                if not (
                    all(x in word for x in triple) and row.denominator in word
                ):
                    # Never answered from a word it does not fit.
                    assert row.numerators + (row.denominator,) in refused
            if store.shape[2] > 1:
                # The high limb's flip moves a numerator by 2^73 or more.
                assert rows[3].numerators + (rows[3].denominator,) in refused
        elif len(rows) >= 64:
            # No word could open it: exact digits did, and left to the
            # big-int loop only rows whose quotients leave 31 bits (the
            # plaintext 2^31 - 1 stays in digits, 2^31 does not).
            assert whole[-1] == "digits"
            for row, triple in zip(rows, opened):
                assert (
                    row.numerators + (row.denominator,) in refused
                ) == undecided_in_digits(row, triple)
        else:
            assert exact == len(rows)
        if (length, ambiguity) == (4, False) and limbs < 3:
            # The paper's parameters: only rows that leave a word are
            # opened in big ints.
            assert whole == ["words"]
            assert exact == sum(
                not all(x in word for x in triple) for triple in opened
            )
            assert fast >= len(SMALL_PLAINTEXTS) - 1

    def test_ambiguity_blocks_and_three_limbs_open_in_digits(self, monkeypatch):
        # 87-bit opened values, and a store whose limb count alone puts
        # the rounding bound past 2^62: nothing is attempted in words,
        # and only a counterfeit whose multiplier leaves 31 bits is
        # boxed.
        client = TrustedClient(seed=11, ambiguity=True)
        rows, _ = client.encrypt_dataset(SMALL_PLAINTEXTS)
        encryptor = client.encryptor
        stages, __ = spy_stages(monkeypatch)
        is_real, values, _ = encryptor.decrypt_block(rows)
        assert whole_block(stages, len(rows)) == ["digits"]
        assert sorted(values) == SMALL_PLAINTEXTS and sum(is_real) == len(values)
        wide = wide_quotients(encryptor, list(rows))
        assert wide <= 2
        assert (encryptor.fast_rows, encryptor.exact_rows) == (
            len(rows) - wide, wide
        )
        plain = TrustedClient(seed=11)
        block, _ = plain.encrypt_dataset(SMALL_PLAINTEXTS * 2)
        assert plain.encryptor.decrypt_block(block)[1] == SMALL_PLAINTEXTS * 2
        assert plain.encryptor.fast_rows == len(block)
        wide = RowBlock(widen(block.limbs, 3))
        stages.clear()
        assert plain.encryptor.decrypt_block(wide)[1] == SMALL_PLAINTEXTS * 2
        assert whole_block(stages, len(wide)) == ["digits"]
        assert plain.encryptor.fast_rows == 2 * len(block)
        assert plain.encryptor.exact_rows == 0

    def test_words_hand_a_block_they_mostly_cannot_hold_to_digits(
        self, monkeypatch
    ):
        # The narrowest ambiguity rows pass the word path's bit-length
        # precondition, then open to values past 2^63: it declines the
        # block and digits open it whole.  (Of the narrowest 200, about
        # one in eight opens inside a word; the narrowest 100 sit at
        # the quarter the word path declines under.)
        client = TrustedClient(seed=11, ambiguity=True)
        values = list(range(0, 300_000, 300))
        rows, _ = client.encrypt_dataset(values)
        tops = np.abs(rows.limbs[:, :-1, -1].view(np.int64)).max(axis=1)
        block = rows.take(np.sort(np.argsort(tops)[:200]))
        encryptor = client.encryptor
        stages, __ = spy_stages(monkeypatch)
        assert encryptor.decrypt_block(block) == reference_open_block(
            encryptor, list(block)
        )[0]
        # Tried in words, then opened whole in digits.
        assert whole_block(stages, len(block)) == ["words", "digits"]
        assert (encryptor.fast_rows, encryptor.exact_rows) == (200, 0)

    def test_rows_words_refuse_go_to_digits_when_there_are_enough(
        self, monkeypatch
    ):
        # 150 rows the words prove and 70 they cannot (plaintexts whose
        # xi * v leaves a word): the 70 are opened in digits, and what
        # digits leave undecided (quotients past 31 bits: all of them
        # here) in big ints — every stage splicing into the one before.
        encryptor = Encryptor(generate_key(length=4, seed=3), seed=7)
        values = SMALL_PLAINTEXTS * 3 + [0, 1, -1, -5, 7, 2 ** 30] \
            + [2 ** 62 + i for i in range(70)]
        block = encryptor.encrypt_values(values)
        stages, __ = spy_stages(monkeypatch)
        is_real, opened, xi = encryptor.decrypt_block(block)
        assert opened == values and all(is_real)
        assert xi == reference_open_block(encryptor, list(block))[0][2]
        assert stages == [("words", 220), ("digits", 70), ("boxed", 70)]
        assert (encryptor.fast_rows, encryptor.exact_rows) == (150, 70)
        # ... and with small quotients digits settle what words refused:
        # rows scaled by 2^24 keep the precondition and open past a word.
        stages.clear()
        scaled = RowBlock.from_rows([
            ValueCiphertext(
                tuple(x << 24 for x in row.numerators), row.denominator << 24
            )
            for row in encryptor.encrypt_values(SMALL_PLAINTEXTS * 2)
        ])
        block = RowBlock.concatenate(
            (encryptor.encrypt_values(SMALL_PLAINTEXTS), scaled)
        )
        assert encryptor.decrypt_block(block)[1] == SMALL_PLAINTEXTS * 3
        (words, rows), (digits, refused) = stages
        assert (words, rows, digits) == ("words", 144, "digits")
        assert 64 <= refused <= 96
        assert (encryptor.fast_rows, encryptor.exact_rows) == (150 + 144, 70)

    def test_short_blocks_are_opened_in_big_ints(self):
        client = TrustedClient(seed=11)
        block, _ = client.encrypt_dataset(SMALL_PLAINTEXTS[:12])
        assert client.encryptor.decrypt_block(block)[1] == SMALL_PLAINTEXTS[:12]
        assert (client.encryptor.fast_rows, client.encryptor.exact_rows) == (0, 12)
        ambiguous = TrustedClient(seed=11, ambiguity=True)
        block, _ = ambiguous.encrypt_dataset(SMALL_PLAINTEXTS[:24])
        assert len(block) == 48  # past the word floor, under the digit one
        assert sorted(ambiguous.encryptor.decrypt_block(block)[1]) \
            == SMALL_PLAINTEXTS[:24]
        assert (ambiguous.encryptor.fast_rows, ambiguous.encryptor.exact_rows) \
            == (0, 48)

    def test_open_block_returns_arrays_whichever_path_ran(self):
        for ambiguity, count in ((False, 4), (False, 40), (True, 8), (True, 40)):
            client = TrustedClient(seed=11, ambiguity=ambiguity)
            block, _ = client.encrypt_dataset(SMALL_PLAINTEXTS[:count])
            is_real, values = client.encryptor.open_block(block)
            assert (is_real.dtype, values.dtype) == (bool, np.int64)
            assert sorted(values.tolist()) == SMALL_PLAINTEXTS[:count]
            assert is_real.sum() == count


# -- blocks of different limb counts ------------------------------------------------------


class TestLimbCounts:
    NARROW = [ValueCiphertext((5, -7, 0), 1), ValueCiphertext((-1, 2 ** 62, 3), 2)]
    WIDE = [ValueCiphertext((2 ** 64, -(2 ** 127), -1), 2 ** 70)]

    def test_equality_is_by_value_whatever_the_limb_count(self):
        narrow = RowBlock.from_rows(self.NARROW)
        assert narrow.limbs.shape == (2, 4, 1)
        for k in (2, 3):
            widened = RowBlock(widen(narrow.limbs, k))
            assert widened.limbs.shape == (2, 4, k)
            assert widened == narrow and narrow == widened
            assert widened == self.NARROW and list(widened) == self.NARROW
        assert narrow != RowBlock.from_rows(self.NARROW[::-1])
        assert RowBlock.from_rows(self.WIDE).limbs.shape == (1, 4, 3)

    def test_add_take_and_concatenate_sign_extend(self):
        narrow, wide = RowBlock.from_rows(self.NARROW), RowBlock.from_rows(self.WIDE)
        both = narrow + wide
        assert both.limbs.shape == (3, 4, 3)
        assert both == self.NARROW + self.WIDE
        assert to_objects(both.limbs).tolist() == [
            list(row.numerators) + [row.denominator]
            for row in self.NARROW + self.WIDE
        ]
        assert RowBlock.concatenate((wide, narrow, wide)) == (
            self.WIDE + self.NARROW + self.WIDE
        )
        assert both.take([2, 0]) == [self.WIDE[0], self.NARROW[0]]
        assert both.take(np.array([False, True, False])) == self.NARROW[1:]
        assert both[1:] == self.NARROW[1:] + self.WIDE
        assert narrow + self.WIDE == both  # a list joins like a block

    def test_a_wider_row_widens_a_narrower_column(self):
        column = EncryptedColumn(self.NARROW, [10, 11])
        bound = BoundCiphertext((1, 0, 1))
        assert column.products(0, 2, bound).tolist() == [5, 2]
        assert column._limbs.shape == (2, 4, 1) and column._floats is not None
        column.insert_block([1], RowBlock.from_rows(self.WIDE), [12])
        assert column._limbs.shape == (3, 4, 3)
        assert column.row_ids.tolist() == [10, 12, 11]
        assert column.rows_at([0, 1, 2]) == [
            self.NARROW[0], self.WIDE[0], self.NARROW[1],
        ]
        assert column.products(0, 3, bound).tolist() == [5, 2 ** 64 - 1, 2]
        column.check_invariants()
        # ... and a narrower block joins a wider column as it is.
        column.insert_block([3], RowBlock.from_rows(self.NARROW[:1]), [13])
        assert column.rows_at([3]) == self.NARROW[:1]
        column.delete_positions([1])
        assert column.rows_at(range(3)) == [
            self.NARROW[0], self.NARROW[1], self.NARROW[0],
        ]
        column.check_invariants()


# -- one definition of shipped bytes ---------------------------------------------


class TestShippedBytes:
    def test_bytes_shipped_is_the_reply_frames_the_client_received(self):
        """``server.bytes_shipped`` is measured where reply frames are
        encoded, so on a loopback session (one registry for both ends)
        it equals the client's ``net.bytes_received`` byte for byte —
        hello and create included, error replies too."""
        db = OutsourcedDatabase(range(200), seed=6)
        counted = db.obs.metrics.counter_value

        def check():
            assert counted("server.bytes_shipped") == counted("net.bytes_received")

        check()
        db.insert(50)  # a pending row rides in the next reply's block
        check()
        before = counted("server.bytes_shipped")
        assert len(db.query(10, 80).values) == 72
        assert counted("server.bytes_shipped") - before == db.remote.last_received_bytes
        check()
        db.query(high=5)
        assert len(db.remote.rotate_begin().response.row_ids) == 201
        check()
        with pytest.raises(UpdateError):
            db.remote.delete([10 ** 6])
        assert counted("net.errors") == 1
        check()

    def test_a_response_packs_whatever_rows_it_is_given(self):
        client = TrustedClient(seed=4)
        rows = [client.encryptor.encrypt_value(v) for v in (1, 2)]
        response = ServerResponse(row_ids=np.array([0, 1]), rows=rows)
        assert isinstance(response.rows, RowBlock)
        assert response.rows == rows


# -- the hot path builds no row objects --------------------------------------------


def test_query_round_trip_builds_no_row_objects(monkeypatch):
    """From ``SecureServer.execute`` to the decrypted ``ClientResult``
    of a warmed 150-row query (loopback, binary codec): not one
    ``ValueCiphertext``, not one ``Fraction``."""
    values = list(np.random.default_rng(18).permutation(3000))
    db = OutsourcedDatabase(values, seed=18, codec="binary")
    for _ in range(2):  # crack, then converge
        assert db.query(1000, 1149).returned_rows == 150
    counts = Counter()
    armed = []

    def counting(cls, real):
        def wrapper(*args, **kwargs):
            if armed:
                counts[cls.__name__] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        ValueCiphertext, "__init__",
        counting(ValueCiphertext, ValueCiphertext.__init__),
    )
    monkeypatch.setattr(
        Fraction, "__new__", counting(Fraction, Fraction.__new__)
    )
    real_execute = SecureServer.execute

    def execute(self, query):
        armed.append(True)
        return real_execute(self, query)

    monkeypatch.setattr(SecureServer, "execute", execute)
    result = db.query(1000, 1149)
    armed.clear()
    assert result.returned_rows == 150
    assert sorted(result.values.tolist()) == list(range(1000, 1150))
    assert counts == {}
    # The guard is live: one row materialised on purpose is counted.
    armed.append(True)
    db.server.engine.column.row(0)
    assert counts == {"ValueCiphertext": 1}
