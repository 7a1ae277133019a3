"""Request streams of the benchmark's workloads.

A workload is a pass: a fixed list of CLI requests made from the seed.
`descend-f48` and `ascend-f48` are one full enumeration each and ignore
the seed.  `typed-queries` is a pass of small "given (F, t)" requests
whose order and count-only choices come from the seed.  README.md says
why each workload exists.

Requests use only the stable, documented flags `--frobenius`, `--type`,
`--min-type` and `--count-only`; never `--threads`, `--out` or `--dot`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

TYPED_F = range(30, 45)
ORACLE_F = range(14, 19)


@dataclass(frozen=True)
class Request:
    mode: str                 # as-ascending, as-descending or oracle
    frobenius: int
    flag: str | None = None   # --type, --min-type or None (all types)
    t: int | None = None
    count_only: bool = False

    def argv(self) -> list[str]:
        args = [self.mode, "--frobenius", str(self.frobenius)]
        if self.flag is not None:
            args += [self.flag, str(self.t)]
        if self.count_only:
            args.append("--count-only")
        return args

    def answer_key(self) -> str:
        """Names the expected stdout, which does not depend on `mode`."""
        return " ".join(["F=%d" % self.frobenius, *self.argv()[3:]])


def upper_types(F: int) -> list[int]:
    """Types t of F's parity with F/2 <= t <= F.

    The answers are small there, so start-up, the type cut-off and the
    per-t work carry the weight rather than bulk stats and emission,
    which the *-f48 workloads already measure.
    """
    return [t for t in range((F + 1) // 2, F + 1) if (F - t) % 2 == 0]


def typed_questions() -> list[Request]:
    """For every F in 30..44 one question, A(F, t) with --type t for even
    F and A(F, >=t) with --min-type t for odd F, t the middle of
    `upper_types(F)`."""
    reqs = []
    for F in TYPED_F:
        types = upper_types(F)
        reqs.append(Request("as-ascending", F, "--min-type" if F % 2 else "--type",
                            types[len(types) // 2]))
    return reqs


def possible_requests() -> list[Request]:
    """Every request some seed can make, up to `mode`: the answers
    make_digests.py commits."""
    reqs = [Request("as-descending", F) for F in (*ORACLE_F, *TYPED_F, 48)]
    for q in typed_questions():
        reqs += [q, replace(q, count_only=True)]
    reqs += [Request("oracle", F, "--type", t) for F in ORACLE_F for t in upper_types(F)]
    return reqs


def typed_queries(seed: int) -> list[Request]:
    """35 requests.  Each of the 15 `typed_questions()` is asked of both
    algorithms, and the seed picks which of the two adds --count-only.  Then one
    `oracle --frobenius F --type t` for every F in 14..18 with a seeded
    t, and a seeded shuffle.

    The questions are fixed so that every seed does the same work: drawing
    t from the seed changed a pass's cost by 8-20% and its records by up
    to 50% from seed to seed, more than the metrics' bounds.
    """
    rng = random.Random(seed)
    reqs = []
    for q in typed_questions():
        counted = rng.randrange(2)
        for i, mode in enumerate(("as-ascending", "as-descending")):
            reqs.append(replace(q, mode=mode, count_only=i == counted))
    for F in ORACLE_F:
        reqs.append(Request("oracle", F, "--type", rng.choice(upper_types(F))))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {
    "descend-f48": lambda seed: [Request("as-descending", 48)],
    "ascend-f48": lambda seed: [Request("as-ascending", 48)],
    "typed-queries": typed_queries,
}
