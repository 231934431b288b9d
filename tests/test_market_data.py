import csv
import math
import re
from datetime import date

import numpy as np
import pytest

from ddqn_trader import market_data
from ddqn_trader.errors import ConfigError, DataError
from ddqn_trader.market_data import (
    FRAME_CSV_BLOCK_ROWS,
    FeatureFrame,
    ModelId,
    PriceSeries,
    SplitSpec,
    build_features,
    ewma_vol,
    load_csv,
    log_returns,
    normalize,
    read_frame_csv,
    split,
    synth_generate,
    write_frame_csv,
)

from conftest import weekdays


def write_csv(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def make_prices(closes, asset_id="spx", start=date(2020, 1, 6)):
    return PriceSeries(asset_id, weekdays(start, len(closes)), np.asarray(closes, dtype=float))


# ---------------------------------------------------------------- load_csv

def test_load_csv_two_rows(tmp_path):
    path = write_csv(tmp_path, "date,close\n2020-01-02,100.0\n2020-01-03,101.0\n")
    series = load_csv(path)
    assert len(series) == 2
    assert series.dates == (date(2020, 1, 2), date(2020, 1, 3))
    assert series.closes.tolist() == [100.0, 101.0]
    assert series.drop_count == 0


def test_load_csv_drops_missing_close(tmp_path):
    path = write_csv(tmp_path, "date,close\n2020-01-02,100.0\n2020-01-03,\n2020-01-06,102.0\n")
    series = load_csv(path)
    assert len(series) == 2
    assert series.drop_count == 1


def test_load_csv_sorts_out_of_order_dates(tmp_path):
    rows = ["2020-01-08,103.0", "2020-01-02,100.0", "2020-01-06,101.0"]
    path = write_csv(tmp_path, "date,close\n" + "\n".join(rows) + "\n")
    series = load_csv(path)
    # independent sort oracle over the raw rows
    expected = sorted((date.fromisoformat(r.split(",")[0]), float(r.split(",")[1])) for r in rows)
    assert series.dates == tuple(d for d, _ in expected)
    assert series.closes.tolist() == [c for _, c in expected]


def test_load_csv_duplicate_date_rejected(tmp_path):
    path = write_csv(tmp_path, "date,close\n2020-01-02,100.0\n2020-01-02,101.0\n")
    with pytest.raises(DataError, match="2020-01-02"):
        load_csv(path)


@pytest.mark.parametrize("close", ["0.0", "-1.5"])
def test_load_csv_non_positive_close_names_file(tmp_path, close):
    path = write_csv(tmp_path, f"date,close\n2020-01-02,100.0\n2020-01-03,{close}\n")
    with pytest.raises(DataError, match="^" + re.escape(
            f"{path}: prices: non-positive close on 2020-01-03") + "$"):
        load_csv(path)


def test_load_csv_zero_valid_rows(tmp_path):
    path = write_csv(tmp_path, "date,close\nnot-a-date,oops\n")
    with pytest.raises(DataError, match="no valid rows"):
        load_csv(path)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_requires_named_header(tmp_path):
    path = write_csv(tmp_path, "day,price\n2020-01-02,100.0\n")
    with pytest.raises(DataError, match="header"):
        load_csv(path)


def test_load_csv_extra_columns_ok(tmp_path):
    path = write_csv(tmp_path, "Close,volume,Date\n100.0,5,2020-01-02\n101.0,9,2020-01-03\n")
    series = load_csv(path)
    assert series.closes.tolist() == [100.0, 101.0]


def test_price_series_rejects_nonpositive_close():
    with pytest.raises(DataError, match="non-positive"):
        make_prices([100.0, 0.0, 101.0])


# ------------------------------------------------------------- log_returns

def test_log_returns_constant_price():
    series = make_prices([100.0, 100.0])
    out = log_returns(series, 1)
    assert out.tolist() == [0.0]
    assert len(out) == len(series.dates[1:])


def test_log_returns_inverse_of_exp():
    series = make_prices([100.0, 100.0 * math.exp(0.01)])
    out = log_returns(series, 1)
    assert out[0] == pytest.approx(0.01, abs=1e-15)


def test_log_returns_geometric_closed_form():
    closes = 100.0 * 1.001 ** np.arange(30)
    out = log_returns(make_prices(closes), 5)
    # closed form: every 5-day log return of a ratio-r geometric series is 5*ln(r)
    assert np.allclose(out, 5 * math.log(1.001), atol=1e-12)
    assert len(out) == 25


def test_log_returns_bad_horizon():
    with pytest.raises(ValueError, match="horizon"):
        log_returns(make_prices([1.0, 2.0, 3.0]), 2)


def test_log_returns_series_too_short():
    with pytest.raises(DataError, match="need more than 5"):
        log_returns(make_prices([1.0] * 5), 5)


def test_log_returns_non_finite_rejected():
    with pytest.raises(DataError, match="spx: non-finite return values"):
        log_returns(make_prices([100.0, math.inf]), 1)


def test_log_returns_recover_price_ratio():
    rng = np.random.default_rng(3)
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=200)))
    series = make_prices(closes)
    r1 = log_returns(series, 1)
    recovered = np.exp(np.cumsum(r1))
    assert np.allclose(recovered, closes[1:] / closes[0], rtol=1e-12)


# ---------------------------------------------------------------- ewma_vol

def _array(values):
    return np.asarray(values, dtype=float)


def test_ewma_all_zero_returns():
    out = ewma_vol(_array([0.0] * 30), decay=0.94)
    assert np.all(out == 0.0)


def test_ewma_constant_returns_fixed_point():
    # seed equals c^2, and c^2 is the exact fixed point of the recursion
    c = 0.02
    out = ewma_vol(_array([c] * 50), decay=0.94)
    assert np.allclose(out, abs(c), atol=1e-15)


def test_ewma_hand_recursion():
    # seed var_0 = mean(r^2) over the first 20 (here both) = (4e-4 + 0) / 2 = 2e-4
    out = ewma_vol(_array([0.02, 0.0]), decay=0.5)
    # var_1 = .5*2e-4 + .5*4e-4 = 3e-4 ; var_2 = .5*3e-4 + .5*0 = 1.5e-4
    assert out[0] == pytest.approx(math.sqrt(3e-4), abs=1e-15)
    assert out[1] == pytest.approx(math.sqrt(1.5e-4), abs=1e-15)


def test_ewma_seed_uses_first_twenty():
    rng = np.random.default_rng(5)
    values = rng.normal(0, 0.01, size=60)
    out = ewma_vol(_array(values), decay=0.9)
    # independent recursion oracle
    var = float(np.mean(values[:20] ** 2))
    for t in range(60):
        var = 0.9 * var + 0.1 * values[t] ** 2
        assert out[t] == pytest.approx(math.sqrt(var), rel=1e-12)


@pytest.mark.parametrize("decay", [0.0, 1.0, -0.5, 1.5])
def test_ewma_decay_out_of_range(decay):
    with pytest.raises(ValueError, match="decay"):
        ewma_vol(_array([0.01]), decay=decay)


@pytest.mark.parametrize("decay", [1.5, math.nan])
def test_ewma_decay_out_of_range_is_config_error(decay):
    with pytest.raises(ConfigError, match=r"decay must be in \(0, 1\)"):
        ewma_vol(_array([0.01]), decay=decay)


def test_ewma_empty_returns_rejected():
    with pytest.raises(DataError, match="empty return series"):
        ewma_vol(_array([]), decay=0.94)


# --------------------------------------------------------------- normalize

def test_ewma_equals_numpy_scalar_recursion():
    returns = _array(np.random.default_rng(5).normal(scale=0.01, size=5000))
    sq = returns**2
    var_prev = float(np.mean(sq[:20]))
    var = np.empty(len(sq))
    for t in range(len(sq)):
        var_prev = 0.94 * var_prev + (1.0 - 0.94) * sq[t]
        var[t] = var_prev
    assert ewma_vol(returns, 0.94).tobytes() == np.sqrt(var).tobytes()


def test_normalize_zero_return():
    out = normalize(_array([0.0]), _array([0.01]))
    assert out[0] == 0.0


def test_normalize_direct_arithmetic():
    out = normalize(_array([0.01]), _array([0.01]))
    expected = 0.01 / (0.01 * math.sqrt(252.0))  # = 1/sqrt(252) ~ 0.0629940788349
    assert out[0] == pytest.approx(expected, abs=1e-15)
    assert out[0] == pytest.approx(0.06299407883487121, abs=1e-15)


def test_normalize_sign_symmetry():
    out = normalize(_array([-0.02]), _array([0.02]))
    assert out[0] == pytest.approx(-1.0 / math.sqrt(252.0), abs=1e-15)


def test_normalize_zero_sigma_with_return_names_position():
    with pytest.raises(DataError, match="at position 1$"):
        normalize(_array([0.0, 0.01]), _array([0.01, 0.0]))


def test_normalize_zero_sigma_zero_return_passes():
    out = normalize(_array([0.0, 0.01]), _array([0.0, 0.01]))
    assert out.tolist()[0] == 0.0


# ----------------------------------------------------------- build_features

def synth_map(seed=11, n=120):
    return {
        role: synth_generate(0.0003, 0.01, n, seed + i, regime="trend", asset_id=role)
        for i, role in enumerate(("spx", "russell", "wti", "gold"))
    }


def test_build_features_m0_has_two_columns():
    frame = build_features(ModelId.M0, synth_map())
    assert frame.n_features == 2
    assert frame.columns == (("spx", 1), ("spx", 5))


def test_build_features_m3_has_eight_columns():
    frame = build_features(ModelId.M3, synth_map())
    assert frame.n_features == 8


@pytest.mark.parametrize("model", list(ModelId))
def test_build_features_column_count_rule(model):
    frame = build_features(model, synth_map())
    assert frame.n_features == 2 * (int(model) + 1)
    assert np.all(np.isfinite(frame.values))


def test_build_features_inner_join_drops_missing_date():
    series = synth_map()
    russell = series["russell"]
    missing = russell.dates[60]
    keep = [i for i in range(len(russell)) if i != 60]
    series["russell"] = PriceSeries(
        "russell", tuple(russell.dates[i] for i in keep), russell.closes[keep]
    )
    frame = build_features(ModelId.M1, series)
    assert missing not in frame.dates
    full = build_features(ModelId.M1, synth_map())
    assert missing in full.dates


def test_build_features_missing_asset_named():
    series = synth_map()
    del series["gold"]
    with pytest.raises(DataError, match="gold"):
        build_features(ModelId.M3, series)


def test_build_features_target_is_raw_traded_return():
    series = synth_map()
    frame = build_features(ModelId.M1, series)
    spx = series["spx"]
    raw = dict(zip(spx.dates[1:], np.log(spx.closes[1:] / spx.closes[:-1])))
    for d, target in zip(frame.dates, frame.target_returns):
        assert target == pytest.approx(raw[d], abs=1e-15)


def test_build_features_invariant_under_price_scaling():
    series = synth_map()
    scaled = {
        role: PriceSeries(role, s.dates, s.closes * 3.0) for role, s in series.items()
    }
    a = build_features(ModelId.M2, series)
    b = build_features(ModelId.M2, scaled)
    assert np.allclose(a.values, b.values, atol=1e-12)
    assert np.allclose(a.target_returns, b.target_returns, atol=1e-12)


def test_build_features_horizon_scaled_option():
    series = synth_map()
    default = build_features(ModelId.M0, series)
    scaled = build_features(ModelId.M0, series, horizon_scaled=True)
    # 1-day column identical, 5-day column rescaled by sqrt(252)/sqrt(252/5)
    assert np.allclose(default.values[:, 0], scaled.values[:, 0], atol=1e-15)
    ratio = math.sqrt(252.0) / math.sqrt(252.0 / 5.0)
    assert np.allclose(scaled.values[:, 1], default.values[:, 1] * ratio, rtol=1e-12)


def dict_join_reference(model, series_by_role, decay=0.94, horizon_scaled=False):
    """build_features as a join of one date -> value dict per column: the
    frame, and the (role, horizon) of each column in the order it joined them."""
    model = ModelId(model)
    roles = ("spx", "russell", "wti", "gold")[: int(model) + 1]
    column_maps, target_map = {}, {}
    scale5 = math.sqrt(252.0 / 5.0) if horizon_scaled else math.sqrt(252.0)
    for role in roles:
        price = series_by_role[role]
        r1 = log_returns(price, 1)
        sigma = ewma_vol(r1, decay)
        # the 5-day return on date t is normalized by the 1-day sigma of date t
        sigma_on = dict(zip(price.dates[1:], sigma))
        sigma5 = np.array([sigma_on[d] for d in price.dates[5:]])
        n5 = normalize(log_returns(price, 5), sigma5, scale5)
        column_maps[(role, 1)] = dict(zip(price.dates[1:], normalize(r1, sigma)))
        column_maps[(role, 5)] = dict(zip(price.dates[5:], n5))
        if role == "spx":
            target_map = dict(zip(price.dates[1:], r1))
    column_order = tuple((role, h) for role in roles for h in (1, 5))
    common = set(target_map)
    for col in column_order:
        common &= set(column_maps[col])
    dates = tuple(sorted(common))
    values = np.array([[column_maps[c][d] for c in column_order] for d in dates])
    target = np.array([target_map[d] for d in dates])
    return FeatureFrame(model, dates, values, target), column_order


def drop_rows(series, rows):
    keep = [i for i in range(len(series)) if i not in set(rows)]
    return PriceSeries(series.asset_id, tuple(series.dates[i] for i in keep), series.closes[keep])


def _companion_missing_date(series):
    series["russell"] = drop_rows(series["russell"], [60])


def _traded_missing_date(series):
    series["spx"] = drop_rows(series["spx"], [3, 70])


def _companion_inside_traded(series):
    gold = series["gold"]
    series["gold"] = PriceSeries("gold", gold.dates[10:-7], gold.closes[10:-7])


@pytest.mark.parametrize("horizon_scaled", [False, True])
@pytest.mark.parametrize("edit", [None, _companion_missing_date, _traded_missing_date,
                                  _companion_inside_traded])
@pytest.mark.parametrize("model", list(ModelId))
def test_build_features_equals_dict_join_reference(model, edit, horizon_scaled):
    series = synth_map(n=150)
    if edit is not None:
        edit(series)
    frame = build_features(model, series, horizon_scaled=horizon_scaled)
    ref, ref_columns = dict_join_reference(model, series, horizon_scaled=horizon_scaled)
    assert frame.dates == ref.dates
    assert frame.columns == ref_columns
    assert frame.values.tobytes() == ref.values.tobytes()
    assert frame.target_returns.tobytes() == ref.target_returns.tobytes()


def test_build_features_companion_window_bounds_the_frame():
    series = synth_map(n=150)
    _companion_inside_traded(series)
    frame = build_features(ModelId.M3, series)
    gold = series["gold"]
    assert frame.dates[0] == gold.dates[5]  # the first 5-day gold return
    assert frame.dates[-1] == gold.dates[-1]


def test_build_features_no_overlapping_dates():
    series = synth_map(n=40)
    spx = series["spx"]
    series["russell"] = synth_generate(0.0, 0.01, 40, 3, asset_id="russell",
                                       start=spx.dates[-1])
    with pytest.raises(DataError, match="M1: no overlapping dates"):
        build_features(ModelId.M1, series)


# ------------------------------------------------------------------- split

def test_split_partitions_by_count():
    frame = build_features(ModelId.M0, synth_map(n=120))
    boundary = frame.dates[69]
    spec = SplitSpec(frame.dates[0], boundary, frame.dates[-1])
    train, test = split(frame, spec)
    assert len(train) == 70
    assert len(test) == len(frame) - 70
    assert train.dates[-1] <= boundary < test.dates[0]


def test_split_boundary_between_trading_days_loses_nothing():
    frame = build_features(ModelId.M0, synth_map(n=120))
    friday = next(d for d in frame.dates[40:] if d.weekday() == 4)
    from datetime import timedelta

    saturday = friday + timedelta(days=1)
    train, test = split(frame, SplitSpec(frame.dates[0], saturday, frame.dates[-1]))
    assert len(train) + len(test) == len(frame)
    assert train.dates[-1] == friday


def test_split_train_end_after_last_date_errors():
    frame = build_features(ModelId.M0, synth_map(n=120))
    from datetime import timedelta

    with pytest.raises(DataError, match="train_end"):
        split(frame, SplitSpec(frame.dates[0], frame.dates[-1] + timedelta(days=5),
                               frame.dates[-1] + timedelta(days=10)))


def test_split_empty_test_partition_errors():
    frame = build_features(ModelId.M0, synth_map(n=120))
    from datetime import timedelta

    # train_end on a Friday, test_end on the following Saturday: the test
    # partition covers no trading day
    friday_idx = next(i for i in range(40, len(frame)) if frame.dates[i].weekday() == 4)
    friday = frame.dates[friday_idx]
    with pytest.raises(DataError, match="empty"):
        split(frame, SplitSpec(frame.dates[0], friday, friday + timedelta(days=1)))


def test_split_spec_ordering_validated():
    with pytest.raises(DataError, match="train_start"):
        SplitSpec(date(2021, 1, 4), date(2021, 1, 4), date(2021, 2, 1))


# ----------------------------------------------------------- synth_generate

def test_synth_noiseless_trend_is_geometric():
    series = synth_generate(mu=0.001, sigma=0.0, n_days=10, seed=0)
    ratios = series.closes[1:] / series.closes[:-1]
    assert np.allclose(ratios, math.exp(0.001), rtol=1e-12)


def test_synth_same_seed_identical():
    a = synth_generate(0.0005, 0.01, 50, seed=9)
    b = synth_generate(0.0005, 0.01, 50, seed=9)
    assert a.dates == b.dates
    assert np.array_equal(a.closes, b.closes)


def test_synth_meanrevert_alternates_exactly():
    a = 0.01
    series = synth_generate(mu=a, sigma=0.0, n_days=12, seed=4, regime="meanrevert")
    returns = np.diff(np.log(series.closes))
    expected = a * (-1.0) ** np.arange(11)  # construction oracle: +a, -a, +a, ...
    assert np.allclose(returns, expected, atol=1e-12)


def test_synth_flat_ignores_mu():
    a = synth_generate(mu=0.5, sigma=0.01, n_days=30, seed=2, regime="flat")
    b = synth_generate(mu=0.0, sigma=0.01, n_days=30, seed=2, regime="flat")
    assert np.array_equal(a.closes, b.closes)


def test_synth_validation():
    with pytest.raises(ValueError, match="sigma"):
        synth_generate(0.0, -1.0, 20, 0)
    with pytest.raises(ValueError, match="n_days"):
        synth_generate(0.0, 0.01, 5, 0)
    with pytest.raises(ValueError, match="regime"):
        synth_generate(0.0, 0.01, 20, 0, regime="chaotic")


# ------------------------------------------------------------ frame CSV io

def test_frame_csv_round_trip(tmp_path):
    frame = build_features(ModelId.M1, synth_map())
    path = tmp_path / "frame.csv"
    write_frame_csv(frame, path)
    loaded = read_frame_csv(path, ModelId.M1)
    assert loaded.dates == frame.dates
    assert loaded.columns == frame.columns
    assert np.array_equal(loaded.values, frame.values)  # repr round-trip is exact
    assert np.array_equal(loaded.target_returns, frame.target_returns)


def edge_frame(rows):
    edge = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, -1.5e-300, 123456.789]
    cells = np.resize(np.array(edge), rows * 5).reshape(rows, 5)
    return FeatureFrame(ModelId.M1, weekdays(date(2020, 1, 6), rows),
                        cells[:, :4], cells[:, 4] * -1.0)


def csv_writer_reference(frame, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + [f"f{i}" for i in range(frame.n_features)] + ["target_return"])
        rows = zip(frame.dates, frame.values.tolist(), frame.target_returns.tolist())
        for d, values, target in rows:
            writer.writerow([d.isoformat()] + [repr(v) for v in values] + [repr(target)])


@pytest.mark.parametrize("rows", [1, FRAME_CSV_BLOCK_ROWS - 1, FRAME_CSV_BLOCK_ROWS,
                                  FRAME_CSV_BLOCK_ROWS + 1])
def test_write_frame_csv_bytes_equal_csv_writer(tmp_path, rows):
    frame = edge_frame(rows)
    write_frame_csv(frame, tmp_path / "fast.csv")
    csv_writer_reference(frame, tmp_path / "ref.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    assert fast.count(b"\r\n") == rows + 1 and b"\n" not in fast.replace(b"\r\n", b"")
    for text in (b"-0.0", b"5e-324", b"1e-05", b"1e+16", b"0.30000000000000004"):
        assert text in fast
    loaded = read_frame_csv(tmp_path / "fast.csv", ModelId.M1)
    assert loaded.values.tobytes() == frame.values.tobytes()
    assert loaded.target_returns.tobytes() == frame.target_returns.tobytes()


def test_read_frame_csv_round_trip_with_blank_lines(tmp_path):
    frame = edge_frame(23)
    path = tmp_path / "frame.csv"
    write_frame_csv(frame, path)
    lines = path.read_bytes().split(b"\r\n")
    for at in (len(lines) - 1, 9, 4, 1):  # after the last row, between rows, after the header
        lines.insert(at, b"")
    path.write_bytes(b"\r\n".join(lines))
    loaded = read_frame_csv(path, ModelId.M1)
    assert loaded.dates == frame.dates
    assert loaded.values.tobytes() == frame.values.tobytes()
    assert loaded.target_returns.tobytes() == frame.target_returns.tobytes()
    assert loaded.values.flags.c_contiguous and loaded.target_returns.shape == (23,)


def rewrite_lines(path, edits):
    """Replace cells of a frame CSV: ``edits`` maps (line number, cell index) to text."""
    lines = path.read_text().splitlines()
    for (line_num, cell), text in edits.items():
        cells = lines[line_num - 1].split(",")
        cells[cell] = text
        lines[line_num - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edits, message", [
    # the first bad line in file order wins, whatever its column
    ({(3, 2): "x1", (5, 0): "2020-13-01"}, r"line 3: could not convert string to float: 'x1'"),
    ({(3, 0): "someday", (5, 1): "x2"}, r"line 3: Invalid isoformat string: 'someday'"),
    # within a line, cells are read left to right
    ({(4, 3): "x3", (4, 1): "x4"}, r"line 4: could not convert string to float: 'x4'"),
    ({(4, 3): "x5", (4, 0): "never"}, r"line 4: Invalid isoformat string: 'never'"),
    # a bad cell before a short line is reported, and a short line before a bad cell
    ({(3, 1): "x6", (6, 1): "1,2"}, r"line 3: could not convert string to float: 'x6'"),
    ({(3, 1): "1,2", (6, 1): "x7"}, r"line 3: 5 cells, header has 4"),
])
def test_read_frame_csv_reports_first_bad_line(tmp_path, edits, message):
    frame = build_features(ModelId.M0, synth_map())
    path = tmp_path / "frame.csv"
    write_frame_csv(frame, path)
    rewrite_lines(path, edits)
    with pytest.raises(DataError, match=r"frame\.csv: " + message + "$"):
        read_frame_csv(path, ModelId.M0)


@pytest.mark.parametrize("block_rows", [1, 2, 3])
@pytest.mark.parametrize("edits, message", [
    # lines 2-4, 5-7, 8-10 and 11-13 form the blocks of 3 rows
    ({(9, 2): "x1", (12, 1): "1,2"}, r"line 9: could not convert string to float: 'x1'"),
    ({(9, 2): "1,2", (12, 1): "x2"}, r"line 9: 5 cells, header has 4"),
    ({(11, 0): "someday", (13, 1): "x3", (8, 2): "x4"}, r"line 8: .*'x4'"),
    ({(13, 3): "x5", (7, 0): "1,2"}, r"line 7: 5 cells, header has 4"),
])
def test_read_frame_csv_blocks_report_first_bad_line(tmp_path, monkeypatch, block_rows, edits,
                                                     message):
    monkeypatch.setattr(market_data, "FRAME_CSV_BLOCK_ROWS", block_rows)
    frame = build_features(ModelId.M0, synth_map())
    path = tmp_path / "frame.csv"
    write_frame_csv(frame, path)
    loaded = read_frame_csv(path, ModelId.M0)
    assert loaded.dates == frame.dates
    assert loaded.values.tobytes() == frame.values.tobytes()
    assert loaded.target_returns.tobytes() == frame.target_returns.tobytes()
    rewrite_lines(path, edits)
    with pytest.raises(DataError, match=r"frame\.csv: " + message + "$"):
        read_frame_csv(path, ModelId.M0)


def test_frame_csv_rereads_deterministically(tmp_path):
    frame = build_features(ModelId.M0, synth_map())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_frame_csv(frame, p1)
    write_frame_csv(frame, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_frame_csv_non_numeric_cell_names_file_and_line(tmp_path):
    frame = build_features(ModelId.M0, synth_map())
    path = tmp_path / "frame.csv"
    write_frame_csv(frame, path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "n/a"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"frame\.csv: line 3: .*n/a"):
        read_frame_csv(path, ModelId.M0)


@pytest.mark.parametrize("bad, message", [
    # the first bad row wins, and within it the leftmost column
    ({(4, 0): np.nan, (2, 3): np.inf, (2, 1): -np.inf}, "2020-01-08 in column f1 (spx 5d)"),
    ({(3, 4): np.nan, (5, 0): np.nan}, "2020-01-09 in column target_return"),
    ({(0, 2): np.nan}, "2020-01-06 in column f2 (russell 1d)"),
])
def test_non_finite_frame_names_first_bad_row_and_column(bad, message):
    frame = edge_frame(6)
    cells = np.column_stack([frame.values, frame.target_returns])
    for at, value in bad.items():
        cells[at] = value
    message = f"feature frame contains non-finite values: first on {message}"
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        FeatureFrame(frame.model_id, frame.dates, cells[:, :4], cells[:, 4])


def test_read_frame_csv_non_finite_cell_names_file_row_and_column(tmp_path):
    path = tmp_path / "frame.csv"
    write_frame_csv(edge_frame(6), path)
    rewrite_lines(path, {(5, 3): "nan", (6, 1): "inf"})  # line 5 is the frame's 4th row
    with pytest.raises(DataError, match=r"frame\.csv: feature frame contains non-finite "
                                        r"values: first on 2020-01-09 in column f2 "
                                        r"\(russell 1d\)$"):
        read_frame_csv(path, ModelId.M1)


def test_read_frame_csv_width_mismatch(tmp_path):
    frame = build_features(ModelId.M0, synth_map())
    path = tmp_path / "frame.csv"
    write_frame_csv(frame, path)
    with pytest.raises(DataError, match="expects 4"):
        read_frame_csv(path, ModelId.M1)
