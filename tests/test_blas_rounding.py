"""The BLAS kernel's rounding properties that bit-exact Q-values rely on.

Every network pass runs over ``net.padded`` rows, the last row repeated up to
a multiple of 4, so a row's Q-values do not depend on the rows around it:
acting on one state agrees with a batched backtest, and the gradient step's
targets, from passes over each distinct frame row once, agree with an eval
forward over the batch's next states. Two kernel properties carry this:
an output-layer row rounds alike wherever it falls in a whole 4-row group,
and hidden rows round alike at 2 rows or more. They are not IEEE rules: the
kernel's row blocking sets the summation order, and so the last bits. A host
whose kernel breaks one fails the one test named for it here.

The third test pins that a row of a partial last group (a tail row, one of
the last n mod 4) rounds alike in products with the same tail. No code
relies on that since every pass is padded; it stays as a record of the
kernel's behaviour.
"""

import numpy as np
import pytest

from ddqn_trader.net import NetConfig, head, hidden, init_params
from reference import padded_rows

CONFIG = NetConfig(input_dim=8)


def _layer2(n: int, seed: int):
    """Params, ``n`` random states and their layer-2 activations."""
    rng = np.random.default_rng(seed)
    params = init_params(CONFIG, rng)
    states = rng.normal(size=(n, CONFIG.input_dim))
    return params, states, hidden(params, states)


@pytest.mark.parametrize("n", [255, 256, 4096, 4099])
def test_head_row_rounds_alike_in_every_whole_4_row_group(n):
    params, _, a2 = _layer2(n, seed=n)
    full = head(params, a2)
    body = n - n % 4  # the rows of the full product in whole groups
    rng = np.random.default_rng(n + 1)
    for m in (1, 2, 3, 5, 254, 745, body):
        rows = rng.choice(body, size=min(m, body), replace=False)
        rows = rows if m % 2 else np.sort(rows)  # any order, not only frame order
        q = head(params, np.ascontiguousarray(a2[padded_rows(rows)]))
        assert np.array_equal(q[: len(rows)], full[rows]), f"{len(rows)} rows of {n}"


@pytest.mark.parametrize("n", [17, 18, 19, 257, 4097, 4098, 4099])
@pytest.mark.parametrize("body", [4, 8, 744])
def test_head_tail_row_rounds_alike_with_the_same_tail(n, body):
    params, _, a2 = _layer2(n, seed=n)
    tail = n % 4
    full = head(params, a2)
    other = _layer2(body, seed=body)[2]  # other rows in whole groups before the tail
    q = head(params, np.concatenate([other, a2[n - tail :]]))
    assert np.array_equal(q[body:], full[n - tail :])


@pytest.mark.parametrize("m", [2, 3, 4, 5, 17, 128, 745])
def test_hidden_rows_round_alike_at_2_rows_or_more(m):
    params, states, a2 = _layer2(4096, seed=3)
    rows = np.random.default_rng(m).choice(4096, size=m, replace=False)
    assert np.array_equal(hidden(params, np.ascontiguousarray(states[rows])), a2[rows])
