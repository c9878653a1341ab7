"""Security audit: run the paper's own attacks against the scheme.

Section 3.5 of the paper sketches what an honest-but-curious adversary
can do; this example executes every sketch and measures where the
scheme holds and where it bends:

1. *Known-ciphertext attack on the noise layer* — strip the matrix
   layer (simulated breach) and recover the secret payload positions
   in C(l, 2) hypotheses.  The paper: "the noise layer of our scheme
   is easy to break"; confirmed.
2. *Known-plaintext attack on values* — leaked (value, Ev) pairs yield
   a decryption functional after O(l) pairs.  The paper: security
   "strongly depends on the chosen ciphertext size l"; confirmed, and
   quantified per l.
3. *Known-plaintext attack on bounds* — leaked (bound, Eb) pairs break
   in a CONSTANT ~3 pairs at any l, because bound noise spans a single
   direction.  Stronger than the paper's sketch; a finding of this
   reproduction.
4. *Order leakage by structure* — watch the resolved-order fraction
   climb as cracking refines the index (Section 4.1), and see the
   ambiguity layer keep logical order uncertain (Section 4.2).

Run:  python examples/security_audit.py
"""

import random

from repro.analysis.leakage import resolved_order_fraction
from repro.bench.figures import ablation_leakage
from repro.crypto.attacks import (
    BoundRecoveryAttack,
    ValueRecoveryAttack,
    pairs_needed_to_break,
    recover_payload_positions,
)
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor


def audit_noise_layer(length, seed=0):
    key = generate_key(length, seed=seed)
    encryptor = Encryptor(key, seed=seed + 1)
    rng = random.Random(seed)
    observations = [
        (
            encryptor.bound_pre_image(
                encryptor.encrypt_bound(rng.randrange(2 ** 31))
            ),
            encryptor.pre_image(
                encryptor.encrypt_value(rng.randrange(2 ** 31))
            )[0],
        )
        for _ in range(6)
    ]
    result = recover_payload_positions(observations)
    recovered = result.unique and set(result.consistent_hypotheses[0]) == set(
        key.payload_positions
    )
    return result.hypotheses_tested, recovered


def audit_known_plaintext(length, seed=0):
    key = generate_key(length, seed=seed)
    encryptor = Encryptor(key, seed=seed + 1)
    rng = random.Random(seed + 2)

    value_holdout = [
        (v, encryptor.encrypt_value(v))
        for v in (rng.randrange(2 ** 31) for _ in range(15))
    ]
    value_pairs = pairs_needed_to_break(
        ValueRecoveryAttack(),
        ((v, encryptor.encrypt_value(v))
         for v in iter(lambda: rng.randrange(2 ** 31), None)),
        value_holdout,
        limit=4 * length + 8,
    )
    bound_holdout = [
        (b, encryptor.encrypt_bound(b))
        for b in (rng.randrange(2 ** 31) for _ in range(15))
    ]
    bound_pairs = pairs_needed_to_break(
        BoundRecoveryAttack(),
        ((b, encryptor.encrypt_bound(b))
         for b in iter(lambda: rng.randrange(2 ** 31), None)),
        bound_holdout,
        limit=12,
    )
    return value_pairs, bound_pairs


def main():
    print("=" * 64)
    print("1. Known-ciphertext attack on the noise layer (Section 3.5)")
    print("=" * 64)
    for length in (4, 8, 16):
        hypotheses, recovered = audit_noise_layer(length)
        print(
            "  l=%2d: tested C(l,2)=%3d hypotheses -> payload positions "
            "recovered: %s" % (length, hypotheses, recovered)
        )
    print("  => without the matrix layer the scheme falls in polynomial "
          "time, as the paper states.")

    print()
    print("=" * 64)
    print("2-3. Known-plaintext attacks (Section 3.5)")
    print("=" * 64)
    print("  %-6s %-28s %-28s" % ("l", "value pairs to break (O(l))",
                                  "bound pairs to break (const!)"))
    for length in (4, 6, 8, 12):
        value_pairs, bound_pairs = audit_known_plaintext(length)
        print("  %-6d %-28s %-28s" % (length, value_pairs, bound_pairs))
    print("  => value security grows with l (pick l generously);")
    print("     bound ciphertexts leak after ~3 known pairs at ANY l —")
    print("     never let query bounds leak alongside their plaintexts.")

    print()
    print("=" * 64)
    print("4. Order leakage by structure (Sections 4.1-4.2)")
    print("=" * 64)
    # Cracked to single rows, as the paper's engine is: left unset, the
    # threshold stops a word-sized column at ~1K-row pieces, and these
    # 800 rows would never crack (nor leak order by structure).
    series = ablation_leakage(size=800, query_count=200,
                              checkpoints=(1, 10, 50, 200), seed=0,
                              min_piece_size=1)
    print("  %-8s %-22s %-22s %-22s" % (
        "queries", "resolved (encrypted)", "resolved (ambig.phys)",
        "resolved (ambig.logical)"))
    for i, (count, frac) in enumerate(series["encrypted_physical"]):
        amb_phys = series["ambiguous_physical"][i][1]
        amb_log = series["ambiguous_logical"][i][1]
        print("  %-8d %-22.3f %-22.3f %-22.3f" % (count, frac, amb_phys, amb_log))
    print("  => structure leaks order as the index refines; ambiguity")
    print("     keeps logical pair order strictly less certain.")
    print("  (An OPES column leaks fraction %.1f before any query runs.)"
          % resolved_order_fraction(list(range(801)), 800))


if __name__ == "__main__":
    main()
