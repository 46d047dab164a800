"""The benchmark's workloads: which ``cli.run`` calls make one round, and
which 2-replicate calls make the set-up pass.

Every operation is one ``RunConfig`` at one degree, so a failure counts
once.  Degrees and replicate counts are fixed; ``--seed`` gives each
ensemble its master seed, so the same seed gives the same inputs.  The
moment sweep draws nothing, so its inputs do not depend on the seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

# The d = 3 ensemble at ell = 64 fails its variance check on every seed:
# the Kronecker grid of resolution 77 does not resolve degree 128.  It runs
# with this fixed master seed, so the failure does not depend on --seed.
KNOWN_FAULT_SEED = 221


@dataclass(frozen=True)
class Op:
    name: str
    config: dict  # RunConfig keyword arguments, without the seed
    items: int  # replicates of an ensemble, or CSV rows
    fixed_seed: int | None = None  # known fault: not seeded from --seed

    @property
    def known_fault(self) -> bool:
        return self.fixed_seed is not None


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    threads: int = 1  # BLAS threads, capped at the CPU count
    setup: tuple[dict, ...] = field(init=False)

    def __post_init__(self):
        # one 2-replicate pass of each ensemble configuration
        warm = tuple(
            dict(op.config, replicates=2)
            for op in self.ops
            if op.config["command"] in ("clt", "excursion", "defect")
        )
        object.__setattr__(self, "setup", warm)

    def round_ops(self, seed: int, round_index: int) -> list[tuple[Op, dict]]:
        """The operations of one round, each with its full RunConfig kwargs."""
        base = (seed % 2**32) * 1000 + round_index
        out = []
        for i, op in enumerate(self.ops):
            master = op.fixed_seed if op.known_fault else base * 100 + i
            out.append((op, dict(op.config, seed=master)))
        return out


def _ensemble(command: str, ell: int, reps: int, fixed_seed: int | None = None, **kw) -> Op:
    label = "-".join([command] + [f"{k}{v}" for k, v in kw.items()] + [f"l{ell}"])
    config = dict(command=command, d=2, ell_list=[ell], replicates=reps)
    config.update(kw)
    return Op(label, config, reps, fixed_seed)


def _moment_ops() -> tuple[Op, ...]:
    ells = [256, 512, 1024, 2048]
    ops = [
        Op(f"moments-q{q}-d{d}", dict(command="moments", q=q, d=d, ell_list=ells), len(ells))
        for q, d in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 4))
    ]
    ops += [
        Op(f"constants-q{q}-d{d}", dict(command="constants", q=q, d=d), 1)
        for q in (3, 4, 5)
        for d in (2, 3, 4)
    ]
    return tuple(ops)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "s2-ensembles",
            tuple(
                op
                for ell, reps in ((32, 1000), (64, 500), (128, 300))
                for op in (
                    _ensemble("clt", ell, reps, q=2),
                    _ensemble("clt", ell, reps, q=3),
                    _ensemble("excursion", ell, reps, z=1.0),
                )
            )
            + tuple(_ensemble("defect", ell, reps) for ell, reps in ((32, 400), (64, 200), (128, 150))),
        ),
        Workload(
            "s3-chaos",
            (
                _ensemble("clt", 8, 200, d=3, q=2),
                _ensemble("clt", 64, 500, KNOWN_FAULT_SEED, d=3, q=2),
            ),
            threads=2,  # the dense factorisation and the 281 MB mat-vec use them
        ),
        Workload("moment-sweep", _moment_ops()),
    )
}
