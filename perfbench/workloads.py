"""Seeded command scripts for the three workloads.

A script is the list of ``qmetro`` command lines one closed-loop client runs
in order.  It depends only on (workload, seed): the program sees nothing but
the generated command lines.  Each script has a fixed composition (so many
commands of each kind, cutoffs from fixed strata) and draws only the
operating points from the seed, so scripts of different seeds cost alike.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import reference

#: Weight the squeeze stage may spill past a generated cutoff: 100x under
#: the program's SQUEEZE_DEFICIT_LIMIT, so every generated Fock point fits.
SQUEEZE_TAIL_MARGIN = 1e-10
#: Largest readout_scale of a generated lossy (density-matrix) Fock point.
LOSSY_READOUT_LIMIT = 4.0
#: Largest readout_scale of a generated lossless (pure-ket) Fock point.
LOSSLESS_READOUT_LIMIT = 20.0


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``qmetro <argv...>``.

    ``valid`` says whether the input lies inside the physical domain, so the
    command must succeed (exit 0); invalid input must be refused (exit 2).
    """

    argv: tuple
    valid: bool = True

    @property
    def kind(self) -> str:
        return self.argv[0]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _grid(values) -> str:
    return ",".join(repr(v) for v in sorted(set(values)))


def _protocol(n_bar, phi, *eta_args, valid=True) -> Command:
    return Command(("protocol", "--nbar", repr(n_bar), "--phi", repr(phi)) + eta_args, valid)


def point_queries(rng: random.Random) -> list:
    """Short commands whose cost is interpreter start-up and imports."""
    cmds = [  # the README headline operating points
        _protocol(15000.0, 0.001, "--eta", "0.99"),
        _protocol(20000.0, 0.001, "--eta", "0.95"),
    ]
    for i in range(8):  # the whole physical domain, log-uniform
        n_bar = _log_uniform(rng, 1e-2, 1e10)
        phi = min(_log_uniform(rng, 1e-9, math.pi / 2), math.pi / 2)
        if i < 1:
            etas = ("--eta", "1.0")
        elif i < 3:
            etas = ("--eta1", repr(rng.uniform(0.5, 1.0)), "--eta2", repr(rng.uniform(0.5, 1.0)))
        else:
            etas = ("--eta", repr(rng.uniform(0.5, 1.0)))
        cmds.append(_protocol(n_bar, phi, *etas))
    cmds.append(Command((  # a 30-point sweep in the documented sweep regime
        "sweep",
        "--nbar", _grid(_log_uniform(rng, 1.0, 1e6) for _ in range(5)),
        "--phi", _grid(_log_uniform(rng, 1e-3, 1.0) for _ in range(3)),
        "--eta", _grid(rng.uniform(0.8, 0.99) for _ in range(2)),
    )))
    cmds.append(Command(("table", "--nbar", repr(_log_uniform(rng, 0.1, 30.0)))))
    # out-of-domain input, which must be refused: a NaN, then eta > 1 or phi < 0
    n_bar, phi, eta = _log_uniform(rng, 1e-2, 1e6), _log_uniform(rng, 1e-6, 1.0), rng.uniform(0.5, 1)
    cmds.append(_protocol(float("nan"), phi, "--eta", repr(eta), valid=False))
    cmds.append(rng.choice([
        _protocol(n_bar, phi, "--eta", repr(rng.uniform(1.01, 1.5)), valid=False),
        _protocol(n_bar, -phi, "--eta", repr(eta), valid=False),
    ]))
    return cmds


def sweep_grid(rng: random.Random) -> list:
    """Three 10^4-point sweeps over the documented sweep regime."""
    cmds = []
    for _ in range(3):
        lo, hi = _log_uniform(rng, 1.0, 1e2), _log_uniform(rng, 1e4, 1e6)
        cmds.append(Command((
            "sweep",
            "--nbar-logspace", repr(lo), repr(hi), "100",
            "--phi", _grid(_log_uniform(rng, 1e-3, 1.0) for _ in range(10)),
            "--eta", _grid(rng.uniform(0.8, 0.99) for _ in range(10)),
        )))
    return cmds


def squeezed_vacuum_tail(n_bar: float, cutoff: int) -> float:
    """Weight of the squeezed vacuum with mean n_bar above photon number ``cutoff``.

    P(2m) = (2m)! / (4^m m!^2) tanh^{2m} r / cosh r with sinh^2 r = n_bar.
    """
    log_t2 = math.log(n_bar / (n_bar + 1.0))  # tanh^2 r
    log_ch = 0.5 * math.log(n_bar + 1.0)
    tail, m = 0.0, cutoff // 2 + 1
    while True:
        log_p = (math.lgamma(2 * m + 1) - 2 * math.lgamma(m + 1) - 2 * m * math.log(2.0)
                 + m * log_t2 - log_ch)
        term = math.exp(log_p)
        tail += term
        if term < 1e-20 * tail or term == 0.0:
            return tail
        m += 1


def max_n_bar(cutoff: int) -> float:
    """Largest n_bar whose squeezed-vacuum tail past ``cutoff`` stays under the margin."""
    lo, hi = 1e-3, 1e3
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if squeezed_vacuum_tail(mid, cutoff) <= SQUEEZE_TAIL_MARGIN else (lo, mid)
    return lo


def readout_scale(n_bar: float, phi: float, eta: float) -> float:
    """<a^dag a> + |<a^2>| of the protocol output: its larger quadrature's excess noise.

    The Fock pipeline grows its readout basis until the output's number
    distribution, whose tail decays on this scale, fits.
    """
    point = reference.gaussian_point(n_bar, phi, eta, eta)
    return float(point.signal + (point.m_aa[0] ** 2 + point.m_aa[1] ** 2).sqrt())


def _fock_point(rng: random.Random, cutoff: int, eta: float, scale_limit: float) -> tuple:
    """(n_bar, phi) in the upper part of what ``cutoff`` holds, with a bounded readout."""
    top = max_n_bar(cutoff)
    n_bar = _log_uniform(rng, top / 2.0, top)
    while True:
        phi = _log_uniform(rng, 0.02, 0.5)
        if readout_scale(n_bar, phi, eta) <= scale_limit:
            return n_bar, phi


def fock_oracle(rng: random.Random) -> list:
    """Fock-oracle runs, each in a fresh process with a cold squeeze cache."""
    cmds = []
    for cutoff in (60, 100, 150, 200, 200):  # lossy: density-matrix squeeze and loss
        eta = rng.uniform(0.7, 0.99)
        # a lossy readout is a density matrix: keep its grown basis within
        # the dense-expm range, as a user picking a sane cutoff would
        n_bar, phi = _fock_point(rng, cutoff, eta, LOSSY_READOUT_LIMIT)
        cmds.append(_protocol(n_bar, phi, "--eta", repr(eta), "--engine", "both",
                              "--cutoff", str(cutoff)))
    for cutoff in (100, 200):  # lossless: pure-ket squeeze with basis growth
        n_bar, phi = _fock_point(rng, cutoff, 1.0, LOSSLESS_READOUT_LIMIT)
        cmds.append(_protocol(n_bar, phi, "--eta", "1.0", "--engine", "fock",
                              "--cutoff", str(cutoff)))
    cmds += [Command(("table", "--nbar", n_bar, "--oracle")) for n_bar in ("2.0", "4.0")]
    cmds.append(Command(("validate", "--level", "full")))
    return cmds


WORKLOADS = {
    "point_queries": point_queries,
    "sweep_grid": sweep_grid,
    "fock_oracle": fock_oracle,
}


def script(workload: str, seed: int) -> list:
    """The command script of ``workload`` for ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
