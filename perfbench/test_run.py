"""Self-tests of the round loop in run.py: how failed and wrong operations count.

Importing run.py fixes the thread settings and pins the process to one CPU,
as it does for a benchmark run. Run with ``python3 -m pytest perfbench -q``.
"""

import math
import time

import run
from workloads import Op


def _fixed_probe():
    return 1.0


def _slow():
    time.sleep(0.02)
    return 1


def _raises():
    raise RuntimeError("boom")


def _accept(out):
    pass


def _reject(out):
    raise AssertionError("wrong output")


def test_clean_rounds_are_correct():
    rounds = run.Rounds([Op("a", "slow", _slow, _accept)], _fixed_probe).run(0.0, 2)
    assert rounds.correct and rounds.failed == 0 and rounds.attempted == 2
    assert rounds.round_cost() >= 0.02


def test_an_op_that_raises_makes_the_run_incorrect_and_adds_no_time():
    ops = [Op("a", "slow", _slow, _accept), Op("a", "raises", _raises, _accept)]
    rounds = run.Rounds(ops, _fixed_probe).run(0.0, 2)
    assert not rounds.correct
    assert rounds.failed == 2 and rounds.attempted == 4
    # failing fast must not read as a speed-up: the failed op has no figure
    assert rounds.durations[1] == [] and rounds.costs[1] == []
    assert math.isinf(rounds.round_cost()) and math.isinf(rounds.geomean_cost())


def test_a_wrong_output_makes_the_run_incorrect():
    rounds = run.Rounds([Op("a", "wrong", _slow, _reject)], _fixed_probe).run(0.0, 1)
    assert not rounds.correct and rounds.failed == 0
