"""E12 — the Appendix-A security games, run empirically (Theorems 1-3).

One row per experiment and instantiation.  The "paper verdict" column is
what Theorems 1-3 predict; the "measured" column is the concrete
adversary's win count.  Rows where the adversary is *supposed* to win
(self-distinction against scheme 1, full-unlinkability against scheme 2)
are part of the reproduction.  Full-unlinkability is a distinguishing
game: there the property holds when the wins sit at chance (trials/2),
not at 0."""

import pytest

from _tables import emit
from repro.core.scheme1 import scheme1_policy
from repro.core.scheme2 import scheme2_policy
from repro.security import games

TRIALS = 2


def test_e12_security_games(benchmark, bench_scheme1, bench_scheme2):
    rows = []

    def record(scheme, result, expected_wins, verdict):
        rows.append((scheme, result.name,
                     f"{result.wins}/{result.trials}", verdict))
        assert result.wins == expected_wins, (scheme, result.name)

    def run():
        w1, w2 = bench_scheme1, bench_scheme2
        honest1, honest2 = w1.members[:2], w2.members[:2]

        record("scheme1",
               games.impersonation_game(honest1, TRIALS, w1.rng),
               0, "secure (Thm 1)")
        record("scheme1",
               games.impersonation_game(honest1, TRIALS, w1.rng, roles=2),
               0, "secure even multi-role (Thm 1)")
        record("scheme1",
               games.stolen_key_game(honest1, w1.framework.authority.group_key(),
                                     TRIALS, w1.rng),
               0, "CGKD key alone insufficient")
        record("scheme1",
               games.traceability_game(w1.framework, w1.members[:3],
                                       TRIALS, w1.rng),
               0, "traceable (Thm 1)")
        record("scheme1",
               games.misattribution_game(w1.framework, honest1, w1.members[2],
                                         TRIALS, w1.rng),
               0, "no-misattribution (Thm 1)")
        record("scheme1",
               games.credential_reuse_unlinkability(w1.framework, w1.members[0],
                                                    w1.members[1], 3, w1.rng),
               0, "unlinkable with reusable credentials (Thm 1)")
        # Enough trials that chance reads apart from a linking test: a
        # guesser lands within 16 ± 9 of 32 with probability > 0.999,
        # where a working test would read 32/32.
        full1 = games.full_unlinkability_game(
            w1.framework, w1.members[0], w1.members[2], w1.members[1],
            32, w1.rng,
        )
        rows.append(("scheme1", full1.name, f"{full1.wins}/{full1.trials}",
                     "full-unlinkability even after corruption (Thm 1): "
                     "chance"))
        assert abs(full1.wins - full1.trials / 2) <= 9
        full2 = games.full_unlinkability_game(
            w2.framework, w2.members[0], w2.members[2], w2.members[1],
            6, w2.rng, policy=scheme2_policy(),
        )
        rows.append(("scheme2", full2.name, f"{full2.wins}/{full2.trials}",
                     "NOT claimed by Thm 3 — corrupted x links via T4=T5^x"))
        # Scheme 2's corrupted adversary runs an exact test on every
        # session: a match is the target, no match is not.
        assert full2.wins == full2.trials

        record("scheme2",
               games.impersonation_game(honest2, TRIALS, w2.rng,
                                        policy=scheme2_policy()),
               0, "secure (Thm 3)")
        record("scheme2",
               games.credential_reuse_unlinkability(
                   w2.framework, w2.members[0], w2.members[1], 3, w2.rng,
                   policy=scheme2_policy()),
               0, "unlinkable across sessions (Thm 3)")
        record("scheme2",
               games.self_distinction_game(honest2, w2.members[2], 2, TRIALS,
                                           w2.rng, scheme2_policy()),
               0, "self-distinction (Thm 3)")
        result = games.self_distinction_game(honest1, w1.members[2], 2, TRIALS,
                                             w1.rng, scheme1_policy())
        rows.append(("scheme1", result.name,
                     f"{result.wins}/{result.trials}",
                     "NOT claimed by Thm 1 — rogue wins, as the paper says"))
        assert result.wins == result.trials

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "e12_games",
        "E12: Appendix-A experiments, adversary wins (0 = property holds; "
        "full-unlinkability: trials/2 = property holds)",
        ("instantiation", "experiment", "adversary wins", "paper verdict"),
        rows,
    )
