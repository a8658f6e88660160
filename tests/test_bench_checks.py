"""The benchmark's own certificate checks, run on a few ops in the test suite.

perfbench/workloads.py is imported as is.  A change that would lower the
benchmark's ok_rate fails here, in well under a second, before a full
benchmark run.
"""

import pytest

from conftest import bench_workloads


@pytest.mark.parametrize("name, ops", [("riccati-chain", range(10)), ("sweep-paper", range(1))],
                         ids=["riccati-chain", "sweep-paper"])
def test_ops_pass_their_checks(name, ops):
    workload = bench_workloads().WORKLOADS[name](0)
    for index in ops:
        inp = workload.make_input(index)
        assert workload.check(inp, workload.run(inp)) == [], f"{name} op {index}"
