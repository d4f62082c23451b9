"""The benchmark's workloads: daemon shape and fixed request schedules.

Every workload runs `ndetd --listen=0 --threads=2 --concurrency=2`, which
gives each cached session a pool of width 1; only `--cache-bytes` differs
(0 means unbounded).  Every workload is a closed loop.  A schedule is a
fixed count of requests made from `--seed`; the count is sized from
`--seconds` so that the timed phase lasts about that long on the reference
machine (4 cores, AVX-512).  See perfbench/README.md for why each workload
was chosen.
"""

import json
import random
from dataclasses import dataclass, field

# Circuits a cold request costs 110-260 ms for at pool width 1.
COLD_CIRCUITS = ("dk16", "donfile", "ex2", "mark1", "bbsse", "cse")
# Average-case request kinds: Definition 1 at Table 5 sizes, and Definition 2
# sized down so that it costs about what a Definition 1 request does.
AVERAGE_KINDS = (
    {"circuit": "cse", "nmax": 10, "num_sets": 1000},
    {"circuit": "bbsse", "nmax": 10, "num_sets": 1000},
    {"circuit": "bbara", "nmax": 2, "num_sets": 48, "definition": "dissimilar"},
)

# Timed requests per second of --seconds, measured on the reference machine.
RATES = {"cold": 5.4, "average": 8.0}
# Each timed phase runs in rounds of this many requests and reports medians
# over rounds, so a slow stretch of the machine moves fewer of them.  A round
# is a whole number of passes over the workload's request kinds.
ROUND = {"cold": 18, "average": 27}


@dataclass
class Workload:
    name: str
    connections: int
    cache_bytes: int
    setup: list = field(default_factory=list)  # request bodies
    timed: list = field(default_factory=list)  # request bodies
    rounds: int = 1  # consecutive blocks of `timed`, measured one by one


def body(**fields):
    """A request without its id, in the daemon's canonical key order."""
    return json.dumps(fields, separators=(",", ":"))


def round_count(name, seconds):
    return max(1, round(seconds * RATES[name] / ROUND[name]))


def cold(seed, seconds):
    # Round robin over a seed-shuffled circuit order: a circuit never follows
    # itself, so every request misses even if the entry just used stayed
    # resident, and every circuit appears equally often.
    order = list(COLD_CIRCUITS)
    random.Random(seed).shuffle(order)
    requests = [body(type="worst_case", circuit=c) for c in order]
    rounds = round_count("cold", seconds)
    return Workload("cold", 1, 1, setup=list(requests),
                    timed=[requests[i % len(order)]
                           for i in range(rounds * ROUND["cold"])],
                    rounds=rounds)


def average(seed, seconds):
    # Every timed request carries a fresh Procedure 1 seed, so each one runs
    # Procedure 1 against a resident database and adds a memo entry.
    rng = random.Random(seed)
    kinds = list(AVERAGE_KINDS)
    rng.shuffle(kinds)
    base = rng.getrandbits(40) << 20
    rounds = round_count("average", seconds)
    timed = [body(type="average_case", **kinds[i % len(kinds)], seed=base + i)
             for i in range(rounds * ROUND["average"])]
    setup = [body(type="worst_case", circuit=k["circuit"])
             for k in AVERAGE_KINDS]
    return Workload("average", 2, 0, setup=setup, timed=timed, rounds=rounds)


WORKLOADS = {"cold": cold, "average": average}


def make(name, seed, seconds):
    return WORKLOADS[name](seed, seconds)


def schedule_rows(workload):
    """Rows of perfbench_client's schedule file: phase, request key index and
    the protocol line (ids are numbered across set-up and timed phase).
    Equal bodies share a key: they ask for the same result."""
    keys = {}
    rows = []
    for phase, bodies in (("S", workload.setup), ("T", workload.timed)):
        for line_body in bodies:
            key = keys.setdefault(line_body, len(keys))
            line = '{"id":%d,%s' % (len(rows) + 1, line_body[1:])
            rows.append("%s\t%d\t%s" % (phase, key, line))
    return rows
