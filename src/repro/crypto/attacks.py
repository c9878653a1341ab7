"""Executable versions of the paper's Section 3.5 attack sketches.

Two attacks are implemented, matching the two layers analysed there:

* :func:`recover_payload_positions` — the *known-ciphertext* attack on
  the noise + scalar layers alone (i.e. on pre-matrix vectors, "assume
  an adversary, Alice, who directly observes noisy vectors before they
  are multiplied by M").  Alice enumerates all ``C(l, 2)`` payload
  position hypotheses and keeps those whose complementary coordinates
  have inner product 0 across every observed pair.  The paper concludes
  this layer "is easy to break" in polynomial time; the tests confirm
  the attack succeeds and count the hypotheses tried.

* :class:`BoundRecoveryAttack` — a *known-plaintext* attack against
  bound ciphertexts.  Because every ``Eb(b)`` is a linear image of
  ``(1, b, lambda)``, all bound ciphertexts live in a 3-dimensional
  subspace regardless of ``l``; once the observed pairs span it
  (three generic pairs!), a linear functional ``w`` with
  ``w . Eb(b) = b`` decrypts every future bound.  This is *stronger*
  than the paper's sketch: the paper counts the ``O(l)`` pairs needed
  to reconstruct the whole key, but query bounds — whose noise
  dimension is one (``lambda * u``) — fall to a constant number of
  leaked pairs.  EXPERIMENTS.md discusses the discrepancy.

* :class:`ValueRecoveryAttack` — the known-plaintext attack against
  *value* ciphertexts, whose noise spans ``l - 3`` free dimensions.
  No linear functional recovers ``v`` (the multiplier ``xi`` gets in
  the way), but a *ratio* of two functionals does:
  ``(w1 . Ev) / (w2 . Ev) = v``, since the key rows ``M[p0]`` and
  ``-M[p1]`` satisfy it exactly.  Each known pair yields one
  homogeneous linear equation ``w1 . Ev - v * (w2 . Ev) = 0`` in the
  ``2l`` unknowns ``(w1, w2)``, so ``O(l)`` pairs pin the solution ray
  — matching the paper's ``N >= (l^2 + l - 2)/(l - 1) + 1 = O(l)``
  count and its conclusion that security "strongly depends on the
  chosen ciphertext size l".

All attacks operate only on material an adversary of the stated model
could hold; they import nothing from the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from repro.crypto.ciphertext import BoundCiphertext, ValueCiphertext
from repro.errors import AttackError
from repro.linalg.solve import integer_nullspace
from repro.linalg.vectors import IntVector


@dataclass(frozen=True)
class PositionHypothesisResult:
    """Outcome of the noise-layer position-recovery attack.

    Attributes:
        consistent_hypotheses: payload position pairs that survived all
            observations (order within a pair is not recoverable —
            both orderings describe the same slot set).
        hypotheses_tested: total number of candidate pairs examined,
            ``C(l, 2)`` — the paper's polynomial bound.
    """

    consistent_hypotheses: Tuple[Tuple[int, int], ...]
    hypotheses_tested: int

    @property
    def unique(self) -> bool:
        """True when exactly one hypothesis survived."""
        return len(self.consistent_hypotheses) == 1


def recover_payload_positions(
    observations: Sequence[Tuple[IntVector, IntVector]],
) -> PositionHypothesisResult:
    """Known-ciphertext attack on the noise layer (pre-matrix vectors).

    Args:
        observations: pairs ``(bound_pre_image, value_pre_image)`` of
            noisy vectors as they would appear *without* the matrix
            layer.  Obtainable via
            :meth:`repro.crypto.scheme.Encryptor.bound_pre_image` /
            :meth:`~repro.crypto.scheme.Encryptor.pre_image` in the
            simulated breach.

    Returns:
        All payload-position hypotheses consistent with every
        observation.  With a handful of observations the true pair is
        almost surely the unique survivor.
    """
    if not observations:
        raise AttackError("the attack needs at least one observation")
    length = len(observations[0][0])
    if any(len(b) != length or len(v) != length for b, v in observations):
        raise AttackError("observations must share one ciphertext length")
    survivors: List[Tuple[int, int]] = []
    hypotheses = list(combinations(range(length), 2))
    for hypothesis in hypotheses:
        i, j = hypothesis
        consistent = True
        for bound_vec, value_vec in observations:
            full = sum(x * y for x, y in zip(bound_vec, value_vec))
            residual = full - bound_vec[i] * value_vec[i] - bound_vec[j] * value_vec[j]
            if residual != 0:
                consistent = False
                break
        if consistent:
            survivors.append(hypothesis)
    return PositionHypothesisResult(
        consistent_hypotheses=tuple(survivors),
        hypotheses_tested=len(hypotheses),
    )


@dataclass
class BoundRecoveryAttack:
    """Known-plaintext attack recovering a bound-decryption functional.

    Collect pairs with :meth:`observe`, then :meth:`fit`.  If fitting
    succeeds, :meth:`decrypt_bound` recovers the plaintext of any
    future bound ciphertext under the same key.

    The functional exists because ``Eb(b) = A @ (1, b, lambda)`` for a
    fixed secret ``l x 3`` matrix ``A``; a ``w`` with
    ``w^T A = (0, 1, 0)`` satisfies ``w . Eb(b) = b`` for *every* b and
    lambda.  Generic keys admit such a ``w`` whenever ``l >= 3``.
    """

    def __init__(self) -> None:
        self._observations: List[Tuple[int, BoundCiphertext]] = []
        self._functional: Optional[Tuple[Fraction, ...]] = None

    @property
    def functional(self) -> Optional[Tuple[Fraction, ...]]:
        """The fitted functional ``w``, or None before a successful fit."""
        return self._functional

    def observe(self, plaintext_bound: int, ciphertext: BoundCiphertext) -> None:
        """Record one leaked plaintext-ciphertext pair."""
        if self._observations:
            expected = self._observations[0][1].length
            if ciphertext.length != expected:
                raise AttackError("inconsistent ciphertext lengths")
        self._observations.append((plaintext_bound, ciphertext))
        self._functional = None

    def fit(self) -> bool:
        """Solve ``w . Eb_i = b_i`` exactly; return True on success.

        The system is homogenised — ``w . Eb_i - b_i * 1 = 0`` — and
        read off the integer nullspace: the basis vector that frees the
        constant's column is ``scale * (w, 1)`` with every other free
        unknown at zero.  An inconsistent system (impossible for
        genuine observations under one key) has no such vector and
        returns False, as does an underdetermined system whose
        particular solution fails self-validation on the observations.
        """
        if not self._observations:
            return False
        length = self._observations[0][1].length
        basis, scale = integer_nullspace(
            [list(ct.vector) + [-int(b)] for b, ct in self._observations]
        )
        if not basis or basis[-1][length] == 0:
            return False
        solution = [Fraction(x, scale) for x in basis[-1][:length]]
        for b, ct in self._observations:
            if sum(w * x for w, x in zip(solution, ct.vector)) != b:
                return False
        self._functional = tuple(solution)
        return True

    def decrypt_bound(self, ciphertext: BoundCiphertext) -> Fraction:
        """Apply the fitted functional to a fresh bound ciphertext.

        Raises:
            AttackError: if :meth:`fit` has not succeeded yet.
        """
        if self._functional is None:
            raise AttackError("call fit() successfully before decrypting")
        return sum(
            w * x for w, x in zip(self._functional, ciphertext.vector)
        )


class ValueRecoveryAttack:
    """Known-plaintext attack recovering a value-decryption *ratio*.

    Collect pairs with :meth:`observe`, then :meth:`fit`; on success
    :meth:`decrypt_value` recovers the plaintext of any fresh value
    ciphertext under the same key.  The number of pairs required grows
    linearly with the ciphertext length ``l`` (roughly ``2l - 3``) —
    the executable form of the paper's Section 3.5 security argument.
    """

    def __init__(self) -> None:
        self._observations: List[Tuple[int, "ValueCiphertext"]] = []
        self._w1: Optional[Tuple[int, ...]] = None
        self._w2: Optional[Tuple[int, ...]] = None

    def observe(self, plaintext_value: int, ciphertext) -> None:
        """Record one leaked value plaintext-ciphertext pair."""
        if self._observations:
            expected = self._observations[0][1].length
            if ciphertext.length != expected:
                raise AttackError("inconsistent ciphertext lengths")
        self._observations.append((plaintext_value, ciphertext))
        self._w1 = None
        self._w2 = None

    def fit(self) -> bool:
        """Find ``(w1, w2)`` with ``w1 . Ev = v * (w2 . Ev)`` on all pairs.

        The system is homogeneous; the (integer, commonly scaled)
        basis of its nullspace is searched for an element whose ``w2``
        component does not vanish on the observations (a ratio needs a
        nonzero denominator, and is indifferent to the scale).
        With too few pairs the nullspace is large and the returned
        functional usually fails on fresh ciphertexts — callers should
        validate on held-out pairs, as :func:`pairs_needed_to_break`
        does.
        """
        if not self._observations:
            return False
        length = self._observations[0][1].length
        basis, __ = integer_nullspace([
            list(ciphertext.numerators)
            + [-int(value) * x for x in ciphertext.numerators]
            for value, ciphertext in self._observations
        ])
        for candidate in basis:
            w1, w2 = candidate[:length], candidate[length:]
            if all(x == 0 for x in w2):
                continue
            denominators_ok = all(
                sum(w * x for w, x in zip(w2, ct.numerators)) != 0
                for __, ct in self._observations
            )
            if denominators_ok:
                self._w1, self._w2 = tuple(w1), tuple(w2)
                return True
        return False

    def decrypt_value(self, ciphertext) -> Fraction:
        """Apply the fitted ratio functional to a fresh value ciphertext.

        Raises:
            AttackError: before a successful :meth:`fit`, or when the
                denominator functional vanishes on this ciphertext.
        """
        if self._w1 is None:
            raise AttackError("call fit() successfully before decrypting")
        numerator = sum(
            w * x for w, x in zip(self._w1, ciphertext.numerators)
        )
        denominator = sum(
            w * x for w, x in zip(self._w2, ciphertext.numerators)
        )
        if denominator == 0:
            raise AttackError("denominator functional vanished")
        return Fraction(numerator, denominator)


def pairs_needed_to_break(attack, pair_stream, holdout, limit: int) -> Optional[int]:
    """Feed pairs until the fitted attack decrypts every holdout pair.

    Args:
        attack: a :class:`BoundRecoveryAttack` or
            :class:`ValueRecoveryAttack` (fresh).
        pair_stream: iterable of ``(plaintext, ciphertext)`` leaks.
        holdout: validation pairs never fed to the attack; the method
            name on the attack (``decrypt_bound`` / ``decrypt_value``)
            is chosen by duck typing.
        limit: maximum pairs to feed.

    Returns:
        The number of pairs after which the attack generalised, or
        None if it never did within ``limit``.
    """
    decrypt = getattr(attack, "decrypt_value", None) or attack.decrypt_bound
    if hasattr(attack, "decrypt_value") and hasattr(attack, "decrypt_bound"):
        raise AttackError("ambiguous attack object")  # pragma: no cover
    for count, (plaintext, ciphertext) in enumerate(pair_stream, start=1):
        if count > limit:
            return None
        attack.observe(plaintext, ciphertext)
        if not attack.fit():
            continue
        try:
            if all(decrypt(ct) == pt for pt, ct in holdout):
                return count
        except AttackError:
            continue
    return None


def rank_matching_attack(
    ciphertexts: Sequence[int],
    known_value_multiset: Sequence[int],
) -> dict:
    """Break a deterministic order-preserving encryption by rank matching.

    The paper's core objection to OPES (Section 2.1): it "reveals the
    data order, hence cannot overcome attacks based on statistical
    analysis on encrypted data".  This is that attack in its strongest
    form: an adversary who knows the plaintext *multiset* (for example
    public reference data whose encrypted copy it observes) aligns the
    sorted unique ciphertexts with the sorted unique plaintexts and
    decrypts the entire column — no key material involved.

    Frequency information transfers too: because deterministic OPE maps
    equal plaintexts to equal ciphertexts, the i-th most common
    ciphertext is the i-th most common plaintext even when only the
    frequency *distribution* (not the exact multiset) is known.

    Args:
        ciphertexts: the encrypted column as the adversary sees it.
        known_value_multiset: the adversary's knowledge of the
            plaintext values (same multiset, any order).

    Returns:
        Mapping of ciphertext to recovered plaintext.

    Raises:
        AttackError: if the multisets have incompatible shapes (the
            adversary's background knowledge is wrong).
    """
    unique_ciphertexts = sorted(set(int(c) for c in ciphertexts))
    unique_values = sorted(set(int(v) for v in known_value_multiset))
    if len(unique_ciphertexts) != len(unique_values):
        raise AttackError(
            "distinct-count mismatch: %d ciphertexts vs %d known values"
            % (len(unique_ciphertexts), len(unique_values))
        )
    return dict(zip(unique_ciphertexts, unique_values))
