"""Acceptance gate: every shipped behavior claim, one check per test.

Each test runs one registered check end to end and prints its PASS/FAIL
line (measured vs required) even under captured output, so a verbose run
shows the twelve verdicts inline.  Each check builds its own runs; only the
boundary least-squares problem, which five checks share, is cached.
"""

import re

import numpy as np
import pytest

from projfree import optimizers, suites
from projfree.feasible_sets import LpBall
from projfree.suites import CRITERIA, SUITES, run_suite
from projfree.trace import write_trace


def _run(num: int, capsys) -> None:
    res = CRITERIA[num]()
    with capsys.disabled():
        print(f"\n  {res.line()}")
    assert res.passed, res.line()


def test_c01_averaged_run_hits_quadratic_rate(capsys):
    _run(1, capsys)


def test_c02_fw_run_hits_linear_rate_within_bound(capsys):
    _run(2, capsys)


def test_c03_nonconvex_min_gap_decays_within_bound(capsys):
    _run(3, capsys)


def test_c03_reports_both_sides_of_its_bound():
    # The worst bound ratio is the measured constant over the allowed one.
    measured = CRITERIA[3]().measured
    worst, got, allowed = (float(v) for v in re.findall(
        r"worst bound ratio (\S+), max min-gap t / ell_1 (\S+) "
        r"vs 1/min\(1/2, C'\) (\S+)$", measured)[0])
    assert 0.0 < got <= allowed
    assert worst == pytest.approx(got / allowed, rel=1e-3)


def test_c04_quasi_convex_run_enters_neighborhood(capsys):
    _run(4, capsys)


def test_c05_stochastic_run_matches_deterministic(capsys):
    _run(5, capsys)


def test_c06_linear_oracle_is_optimal_on_boundary(capsys):
    _run(6, capsys)


def test_c07_projection_satisfies_variational_test(capsys):
    _run(7, capsys)


def test_c08_gradients_match_finite_differences(capsys):
    _run(8, capsys)


def test_c09_oracle_continuity_bound_holds(capsys):
    _run(9, capsys)


def test_c10_perturbation_moments_match_sphere(capsys):
    _run(10, capsys)


def test_c11_averaged_run_converges_with_fewer_steps(capsys):
    _run(11, capsys)


def test_c12_reruns_are_byte_identical(capsys):
    _run(12, capsys)


def test_suite_registry_covers_every_check():
    assert list(CRITERIA) == list(range(1, 13))
    assert SUITES == {
        "convex": [1, 2, 5, 11, 12],
        "quasi": [4],
        "nonconvex": [3],
        "oracles": [6, 7, 8, 9, 10],
        "all": list(range(1, 13)),
    }

@pytest.mark.parametrize("num, method, measured, required", [
    (6, "lmo", "infeasible oracle answer on LpBall(p=1.0", "oracle answers feasible"),
    (7, "project", "projection left the set on LpBall(p=1.0", "projection feasible"),
])
def test_precondition_exit_states_its_own_requirement(
    num, method, measured, required, monkeypatch
):
    def outside(self, x):
        return np.full(self.shape, 2.0 * self.r)

    monkeypatch.setattr(LpBall, method, outside)
    res = CRITERIA[num]()
    assert not res.passed
    assert res.measured.startswith(measured)
    assert res.required == required


def test_measured_values_do_not_depend_on_the_thread_count():
    # The two wall-clock figures, c01's runtime and c11's cost ratio, are
    # the only measured values allowed to differ.
    def measured(threads):
        results, _ = run_suite("convex", threads=threads)
        return [(r.name, re.sub(r"runtime [\d.]+s|cost ratio [\d.]+", "", r.measured))
                for r in results]

    assert measured(1) == measured(4)


# ---------------------------------------------------------------------------
# each check can fail: a planted fault turns its verdict to FAIL


def test_c05_fails_on_a_wrong_batch_schedule(monkeypatch):
    monkeypatch.setattr(optimizers, "spa_batch_size", lambda t, n: min(t**3, n))
    res = CRITERIA[5]()
    assert not res.passed
    assert res.measured.startswith("batch schedule exact: False")


def test_c09_fails_on_a_discontinuous_oracle(monkeypatch):
    lmo = LpBall.lmo

    def flipped(self, c):
        v = lmo(self, c)
        return -v if c[0] <= 0.0 else v

    monkeypatch.setattr(LpBall, "lmo", flipped)
    res = CRITERIA[9]()
    assert not res.passed
    assert int(res.measured.split()[0]) > 0, res.measured


def test_c10_fails_when_the_sphere_samples_are_short(monkeypatch):
    def short(d, rng):
        x = np.zeros(d)
        x[1] = 0.01
        return x

    monkeypatch.setattr(suites, "sample_unit_sphere", short)
    res = CRITERIA[10]()
    assert not res.passed
    for delta in (0.1, 0.3):
        assert f"delta {delta}: norm rate 1.0000, coord rate 1.0000" in res.measured


def test_c12_fails_when_reruns_differ(monkeypatch):
    calls = [0]

    def write_numbered(trace, path):
        write_trace(trace, path)
        calls[0] += 1
        with open(path, "a") as fh:
            fh.write(f"# call {calls[0]}\n")

    monkeypatch.setattr(suites, "write_trace", write_numbered)
    res = CRITERIA[12]()
    assert not res.passed
    assert res.measured.startswith("mismatches: ['fwplr-0.csv'")


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(KeyError):
        run_suite("nope")
