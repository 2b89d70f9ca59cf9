"""The benchmark's workloads: CLI arguments, code parameters and reference outputs.

Each workload is one ``ghwlab`` invocation.  The two ``ghw`` sweeps are
exhaustive and take no randomness; the ``verify`` workload draws its random
subspaces from ``--seed``, the only place the benchmark seed reaches the
program.  README.md says why each workload is here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "ghw" or "verify"
    p: int
    s: int
    m: int
    e: int
    t: int
    a: int
    jobs: int               # worker processes the CLI may start
    r_list: tuple = ()      # ghw: subcode dimensions swept
    reference: tuple = ()   # ghw: the hierarchy every method must report
    count: int = 0          # verify: number of random subspaces

    @property
    def k(self) -> int:
        return self.t * self.m

    @property
    def q(self) -> int:
        return self.p ** self.s

    def param_args(self) -> list:
        return ["--p", str(self.p), "--s", str(self.s), "--m", str(self.m),
                "--e", str(self.e), "--t", str(self.t), "--a", str(self.a)]

    def cli_args(self, seed: int) -> list:
        if self.command == "ghw":
            return (["ghw"] + self.param_args()
                    + ["--r", ",".join(map(str, self.r_list)), "--method", "all",
                       "--jobs", str(self.jobs), "--no-timing"])
        return (["verify"] + self.param_args()
                + ["--count", str(self.count), "--seed", str(seed)])


WORKLOADS = {
    w.name: w for w in (
        # [80,8] over GF(3): brute scoring dominates (odd-p digit loop in add).
        Workload("brute_80_8", "ghw", p=3, s=1, m=4, e=2, t=2, a=1, jobs=1,
                 r_list=(1, 7), reference=(24, 78)),
        # [17,8] over GF(2): the dual sweep dominates; the only pooled workload.
        Workload("dual_par_17_8", "ghw", p=2, s=1, m=8, e=1, t=1, a=15, jobs=2,
                 r_list=(3,), reference=(11,)),
        # [61,1] over GF(3^10): set-up over a 59,049-element field, then
        # character sums over every element for each random subspace.
        Workload("bigfield_verify_61_1", "verify", p=3, s=10, m=1, e=1, t=1, a=968,
                 jobs=1, count=4),
    )
}

VERIFY_TOLERANCE = 1e-6


def gaussian_binomial(d: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^d, computed independently
    of the program so that examined counts can be checked against it."""
    num = den = 1
    for i in range(r):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den
