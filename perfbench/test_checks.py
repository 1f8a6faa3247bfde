"""Tests of the benchmark's own answer checks and tracer.

    python3 -m pytest perfbench -q

Each check is fed a real chernflat output (it must pass) and tampered copies
of it (each must be rejected).  The models are small so the file runs in a
few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from exact import RationalEchelon, det, g, parse_scalar, format_scalar  # noqa: E402
from workloads import Job, make_job, round_size  # noqa: E402


def run_cli(job: Job, tmp_path) -> tuple:
    from chernflat import cli

    path = tmp_path / "model.json"
    path.write_text(json.dumps(inputs.model_json(job.model)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(job.argv(str(path)))
    return code, out.getvalue()


def tampered(stdout: str, edit) -> str:
    obj = json.loads(stdout)
    edit(obj)
    return json.dumps(obj)


def small_doubling(conjugate: bool, seed: int = 1) -> inputs.Model:
    h = inputs.random_two_step_real(random.Random(seed), 3, 1)
    family = "conjugate-doubling" if conjugate else "ordinary-complexification"
    return inputs.Model(8, inputs.doubling(h, 4, conjugate), family)


# -- verify --------------------------------------------------------------------------


def test_verify_check_passes_and_rejects_a_flipped_verdict(tmp_path):
    job = Job("verify", "conjugate-doubling", small_doubling(True))
    code, stdout = run_cli(job, tmp_path)
    checks.check(job, code, stdout)

    def flip(obj):
        obj["verdict"] = not obj["verdict"]

    with pytest.raises(checks.WrongAnswer, match="verdict"):
        checks.check(job, code, tampered(stdout, flip))
    with pytest.raises(checks.WrongAnswer, match="exit code"):
        checks.check(job, 1, stdout)


def test_verify_check_recomputes_center_and_step(tmp_path):
    job = Job("verify", "conjugate-doubling", small_doubling(True, seed=2))
    code, stdout = run_cli(job, tmp_path)

    def bump_center(obj):
        obj["center-dim"] += 1

    def bump_step(obj):
        obj["nilpotency-step"] = 3

    for edit, what in ((bump_center, "center-dim"), (bump_step, "nilpotency-step")):
        with pytest.raises(checks.WrongAnswer, match=what):
            checks.check(job, code, tampered(stdout, edit))


def test_verify_check_on_the_negative_control(tmp_path):
    job = Job("verify", "ordinary-complexification", small_doubling(False))
    code, stdout = run_cli(job, tmp_path)
    assert code == 1
    checks.check(job, code, stdout)

    def claim_flat(obj):
        obj["qk-chern-flat"] = True

    with pytest.raises(checks.WrongAnswer, match="qk-chern-flat"):
        checks.check(job, code, tampered(stdout, claim_flat))


# -- normal-form ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def dim4_output(tmp_path_factory):
    model = inputs.scrambled(random.Random(4), 4, inputs.DIM4_CONSTANTS, "dim4-scrambled")
    job = Job("normal-form", "dim4-scrambled", model, trials=1, trial_seed=5)
    code, stdout = run_cli(job, tmp_path_factory.mktemp("nf"))
    return job, code, stdout


def test_normal_form_check_passes(dim4_output):
    checks.check(*dim4_output)


def test_normal_form_check_rejects_a_perturbed_frame_entry(dim4_output):
    job, code, stdout = dim4_output

    def perturb(obj):
        entry = parse_scalar(obj["frame"][0][2])
        obj["frame"][0][2] = format_scalar((entry[0] + 1, entry[1]))

    with pytest.raises(checks.WrongAnswer, match="frame"):
        checks.check(job, code, tampered(stdout, perturb))


def test_normal_form_check_rejects_wrong_constants_and_self_test(dim4_output):
    job, code, stdout = dim4_output

    def double_constant(obj):
        obj["constants"][0]["coeff"] = "2"

    def drop_self_test(obj):
        del obj["self-test"]

    with pytest.raises(checks.WrongAnswer, match="constants"):
        checks.check(job, code, tampered(stdout, double_constant))
    with pytest.raises(checks.WrongAnswer, match="self-test"):
        checks.check(job, code, tampered(stdout, drop_self_test))


def test_normal_form_check_rejects_a_singular_frame(dim4_output):
    job, code, stdout = dim4_output

    def zero_column(obj):
        for row in obj["frame"]:
            row[3] = "0"

    with pytest.raises(checks.WrongAnswer, match="singular"):
        checks.check(job, code, tampered(stdout, zero_column))


# -- deform --------------------------------------------------------------------------


@pytest.mark.parametrize("key", ["solution-dim", "inner-rank", "essential-dim"])
def test_deform_check_rejects_an_off_by_one_count(tmp_path, key):
    job = Job("deform", "doubling-8", small_doubling(True, seed=3))
    code, stdout = run_cli(job, tmp_path)
    checks.check(job, code, stdout)

    def off_by_one(obj):
        obj[key] += 1

    with pytest.raises(checks.WrongAnswer, match=key):
        checks.check(job, code, tampered(stdout, off_by_one))


def test_deformation_rank_of_the_abelian_pair():
    # every L anticommuting with J solves the bracket condition: n^2 / 2 unknowns remain
    model = inputs.Model(4, {}, "abelian")
    assert checks.deformation_rank(model) == 8
    assert checks.center_dim(model) == 4
    assert checks.nilpotency_step(model) == 1


# -- exact helpers and inputs -------------------------------------------------------


def test_scalar_text_round_trip():
    for text in ["1", "-1/2", "i", "-i", "3*i", "-3/4*i", "1/2+3/4*i", "-1/2-i", "-5-7/3*i"]:
        assert format_scalar(parse_scalar(text)) == text


def test_rational_echelon_rank_and_det():
    ech = RationalEchelon()
    assert ech.add({0: 1, 1: 2})
    assert ech.add({1: 1, 2: 1})
    assert not ech.add({0: 2, 1: 5, 2: 1})
    assert ech.rank == 2
    assert det([[g(1), g(0, 1)], [g(0, 1), g(1)]]) == g(2)


def test_inputs_depend_only_on_the_seed():
    for workload in ("verify", "normal-form", "deform"):
        for index in range(round_size(workload)):
            a, b = make_job(workload, 9, index), make_job(workload, 9, index)
            assert inputs.model_json(a.model) == inputs.model_json(b.model)
            assert (a.trials, a.trial_seed) == (b.trials, b.trial_seed)
        assert inputs.model_json(make_job(workload, 9, 0).model) != inputs.model_json(
            make_job(workload, 10, 0).model
        )


# -- tracer --------------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_counts_calls(tmp_path):
    import chernflat.cli  # noqa: F401  (loads every module the CLI binds)

    tracer = spans.Tracer()
    tracer.install()
    try:
        mods = {name: sys.modules[f"chernflat.{name}"] for name in ("acs", "cli", "classify", "deform", "forms")}
        for name in ("cli", "classify", "deform"):
            assert mods[name].split is mods["acs"].split
        assert mods["acs"].split.__wrapped__ is not None
        job = Job("verify", "conjugate-doubling", small_doubling(True))
        tracer.begin(0)
        code, stdout = run_cli(job, tmp_path)
        tracer.end()
        checks.check(job, code, stdout)
        per_job = tracer.per_job()[0]
        assert per_job["cli.main"][1] == 1
        assert per_job["acs.is_chern_flat"][1] == 2
        assert per_job["lie.center"][1] == 2
        assert tracer.job_counts[0]["scalars.mul.calls"] > 0
        # self times partition the root span
        root = next(span for span in tracer.spans if span[0] == "cli.main")
        total_self = sum(self_s for self_s, _ in per_job.values())
        assert total_self == pytest.approx(root[3] - root[2], rel=1e-6)
    finally:
        tracer.uninstall()
