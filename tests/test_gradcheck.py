import numpy as np

from conftest import weighted_sum
from metavit import tensor as T
from metavit.gradcheck import TOLERANCE, fd_check, run_suite
from metavit.tensor import Tensor


def test_fd_check_catches_a_wrong_gradient():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)

    def broken(a):
        out = a.data * a.data
        return T._node(out, (a,), lambda g: (g * 3.0 * a.data,), "broken-square")

    err = fd_check(lambda: weighted_sum(broken(x)), [x])
    assert err > 0.1


def test_kernel_and_block_suite_under_tolerance():
    cases = run_suite(seed=0, include_model=False)
    names = {c.name for c in cases}
    assert {"matmul", "softmax_rows", "layer_norm", "gelu", "conv2d",
            "conv2d-depthwise", "conv2d-depthwise-stride2", "linear-rank3", "fan-in",
            "attention-tiled", "attention-heads", "attention-unbounded",
            "block-ca", "block-dca", "block-dca-sequential", "block-sa"} <= names
    worst = max(c.max_rel_err for c in cases)
    assert worst < TOLERANCE, [(c.name, c.max_rel_err) for c in cases if not c.passed]
