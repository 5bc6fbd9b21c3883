"""verify_quick: the verify requests that take a tenth of a second or less.

The same in-process ``paretotail.cli.run(["verify", ...])`` operations and
checks as ``verify``, without its requests of 0.4-8 s (``student_t(3) --s
2,1``, ``f_dist(2,6) --s 2,1``, and the ``student_t(3)`` and stable Monte
Carlo runs); the stable request comes back at 10000 reps (0.25 s) so the
direct sampler is still exercised.  A round takes about 0.6-1 s, so a run
repeats each request some fifty times instead of three or four, and its
figures average over more of the host's drift.
"""

from __future__ import annotations

import wl_verify
from wl_verify import check_round  # noqa: F401  (the workload interface)

NAME = "verify_quick"
TRACE_ROUNDS = 3

_SLOW = {("student_t(3)", "2,1"), ("f_dist(2,6)", "2,1"), ("student_t(3)", "1"), ("stable(0.5,-0.5)", "4")}
REQUESTS = tuple(r for r in wl_verify.REQUESTS if r[:2] not in _SLOW) + (
    ("stable(0.5,-0.5)", "4", None, 10_000),
)


def setup(seed):
    return wl_verify.State(seed, REQUESTS)


def describe(state) -> str:
    return f"{len(state.requests)} requests per round, 2 of them exit 1 today"
