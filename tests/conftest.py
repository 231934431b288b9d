from datetime import date, timedelta

import numpy as np
import pytest

from ddqn_trader.market_data import FeatureFrame, ModelId
from ddqn_trader.net import NetConfig, NetParams
from reference import params_from_layers


def weekdays(start: date, count: int) -> tuple[date, ...]:
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return tuple(out)


def make_frame(target_returns, values=None, model=ModelId.M0, start=date(2020, 1, 6)):
    """Hand-rolled feature frame for environment and agent tests."""
    targets = np.asarray(target_returns, dtype=np.float64)
    n = len(targets)
    k = ModelId(model).n_features
    if values is None:
        values = np.random.default_rng(0).normal(scale=0.05, size=(n, k))
    return FeatureFrame(ModelId(model), weekdays(start, n), np.asarray(values), targets)


@pytest.fixture
def frame300():
    rng = np.random.default_rng(7)
    return make_frame(rng.normal(scale=0.01, size=300))


@pytest.fixture
def frame10():
    # distinct, hand-pickable returns
    targets = np.array([0.0, 0.01, -0.02, 0.03, 0.005, -0.011, 0.002, -0.004, 0.02, -0.01])
    return make_frame(targets)


def _checkpoint_vectors(record: dict, convert) -> dict:
    """``record`` with ``convert`` applied to each network and Adam moment."""
    adam = dict(record["adam"], m=convert(record["adam"]["m"]), v=convert(record["adam"]["v"]))
    return dict(record, online=convert(record["online"]), target=convert(record["target"]),
                adam=adam)


def with_head(record: dict, width: int) -> dict:
    """A checkpoint record of a 2-input net, changed to a ``width``-unit output
    layer, laid out as a net with that head would be."""
    shapes = NetConfig(input_dim=2).layer_shapes

    def widen(flat):
        p = NetParams(np.array(flat), shapes)
        w3, b3 = np.resize(p.weights[2], (shapes[2][0], width)), np.resize(p.biases[2], width)
        return params_from_layers(p.weights[:2] + [w3], p.biases[:2] + [b3]).flat.tolist()

    return _checkpoint_vectors(record, widen)


def version_1_record(record: dict) -> dict:
    """A checkpoint record of a 2-input net in the layout of checkpoint version 1:
    per-layer weight and bias lists, Adam's moments split the same way, and a
    net config that also held ``output_dim`` and ``seed``."""
    shapes = NetConfig(input_dim=2).layer_shapes

    def layers(flat):
        p = NetParams(np.array(flat), shapes)
        return {"weights": [w.ravel().tolist() for w in p.weights],
                "biases": [b.tolist() for b in p.biases]}

    old = _checkpoint_vectors(record, layers)
    m, v = old["adam"]["m"], old["adam"]["v"]
    old["adam"] = {"m_weights": m["weights"], "m_biases": m["biases"],
                   "v_weights": v["weights"], "v_biases": v["biases"], "t": record["adam"]["t"]}
    old["net_config"] = dict(record["net_config"], output_dim=3, seed=None)
    return dict(old, version=1)
