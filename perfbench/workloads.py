"""The three workloads: one round of jobs each, repeated until time is up.

A round is a fixed sequence of input families, so every run has the same
family shares however long it lasts; only the coefficients (and normal-form
trial seeds) change from job to job.  Input ``index`` counts jobs across the
whole run, so no input repeats within a run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import inputs
from inputs import Model


@dataclass
class Job:
    command: str          # CLI subcommand
    family: str
    model: Model
    trials: int = 0
    trial_seed: int = 0

    def argv(self, path: str) -> list:
        argv = [self.command, path, "--format", "json"]
        if self.command == "normal-form":
            argv += ["--trials", str(self.trials), "--seed", str(self.trial_seed)]
        return argv


def _verify(rng, family: str) -> Job:
    if family == "conjugate-doubling":
        model = inputs.doubled(rng, [(5, 2)], True, family)
    elif family == "center-one-scrambled":
        model = inputs.scrambled(rng, 5, inputs.center_one_constants(5), family)
    else:  # ordinary complexification: the negative control
        model = inputs.doubled(rng, [(4, 2)], False, family)
    return Job("verify", family, model)


def _normal_form(rng, family: str) -> Job:
    if family == "dim4-scrambled":
        model = inputs.scrambled(rng, 4, inputs.DIM4_CONSTANTS, family)
        trials = 2
    else:
        model = inputs.scrambled(rng, 5, inputs.center_one_constants(5), family)
        trials = 1
    return Job("normal-form", family, model, trials, rng.randrange(1 << 30))


def _deform(rng, family: str) -> Job:
    if family == "dim4-scrambled":
        model = inputs.scrambled(rng, 4, inputs.DIM4_CONSTANTS, family)
    elif family == "center-one-small":
        model = inputs.small_center_one(rng, 5)
    else:
        p, q = {"doubling-10": (3, 2), "doubling-12": (4, 2), "doubling-14": (5, 2)}[family]
        model = inputs.doubled(rng, [(p, q)], True, family)
    return Job("deform", family, model)


WORKLOADS = {
    "verify": (
        _verify,
        ["conjugate-doubling", "center-one-scrambled", "conjugate-doubling",
         "ordinary-complexification", "conjugate-doubling"],
    ),
    "normal-form": (
        _normal_form,
        ["dim4-scrambled", "center-one-scrambled", "center-one-scrambled"],
    ),
    "deform": (
        _deform,
        ["doubling-12", "center-one-small", "doubling-14", "doubling-10",
         "doubling-12", "dim4-scrambled"],
    ),
}


def round_size(workload: str) -> int:
    return len(WORKLOADS[workload][1])


def make_job(workload: str, seed: int, index: int) -> Job:
    """The job at position ``index`` of a run."""
    build, families = WORKLOADS[workload]
    rng = random.Random(f"{seed}:{workload}:{index}")
    return build(rng, families[index % len(families)])


def warmup_job(workload: str, seed: int, k: int) -> Job:
    """The k-th untimed warm-up: always the round's first family, fresh constants."""
    build, families = WORKLOADS[workload]
    rng = random.Random(f"{seed}:{workload}:warmup{k}")
    return build(rng, families[0])
