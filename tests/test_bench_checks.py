"""The benchmark's own certificate checks, run on a few ops in the test suite.

perfbench/workloads.py is imported as is.  A change that would lower the
benchmark's ok_rate fails here, in about two seconds, before a full
benchmark run.  The synth-n5 ops (one of the five infeasible) call
synth_full and then synth_rhc on one plant, so the second reuses the
synthesis LMI assembled for the first.
"""

import pytest

from conftest import bench_workloads


@pytest.mark.parametrize("name, ops", [("riccati-chain", range(10)), ("sweep-paper", range(1)),
                                       ("synth-n5", range(5))],
                         ids=["riccati-chain", "sweep-paper", "synth-n5"])
def test_ops_pass_their_checks(name, ops):
    workload = bench_workloads().WORKLOADS[name](0)
    for index in ops:
        inp = workload.make_input(index)
        assert workload.check(inp, workload.run(inp)) == [], f"{name} op {index}"
