"""Price ingestion, return normalization, and feature-frame assembly.

Daily closes become log returns, and log returns become unit-scale features by
dividing through an EWMA volatility estimate:

    feature_t = r_t / (sigma_t * sqrt(252))
    sigma_t^2 = decay * sigma_{t-1}^2 + (1 - decay) * r_t^2

A feature frame stacks the normalized 1-day and 5-day returns of the traded
asset plus zero to three companion assets (inner-joined on dates) and carries
the raw 1-day return of the traded asset alongside, which is what the trading
environment pays rewards with.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, timedelta
from enum import IntEnum

import numpy as np

from .errors import DataError

ANNUALIZATION = math.sqrt(252.0)
DEFAULT_EWMA_DECAY = 0.94  # RiskMetrics daily convention
EWMA_SEED_WINDOW = 20
VALID_HORIZONS = (1, 5)

TRADED_ASSET = "spx"


class ModelId(IntEnum):
    """Feature-set variants: each step up adds one companion asset."""

    M0 = 0  # traded asset only
    M1 = 1  # + small-cap equity index
    M2 = 2  # + crude oil
    M3 = 3  # + gold

    @property
    def n_features(self) -> int:
        return 2 * (self.value + 1)


MODEL_ROLES: dict[ModelId, tuple[str, ...]] = {
    ModelId.M0: ("spx",),
    ModelId.M1: ("spx", "russell"),
    ModelId.M2: ("spx", "russell", "wti"),
    ModelId.M3: ("spx", "russell", "wti", "gold"),
}


@dataclass(frozen=True)
class PriceSeries:
    """Ordered daily closes for one asset.

    ``drop_count`` records rows discarded during CSV parsing; it is 0 for
    programmatically built series.
    """

    asset_id: str
    dates: tuple[date, ...]
    closes: np.ndarray
    drop_count: int = 0

    def __post_init__(self):
        closes = np.asarray(self.closes, dtype=np.float64)
        object.__setattr__(self, "closes", closes)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != len(closes):
            raise DataError(f"{self.asset_id}: {len(self.dates)} dates vs {len(closes)} closes")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur == prev:
                raise DataError(f"{self.asset_id}: duplicate date {cur.isoformat()}")
            if cur < prev:
                raise DataError(f"{self.asset_id}: dates not increasing at {cur.isoformat()}")
        if len(closes) and not np.all(closes > 0):
            bad = self.dates[int(np.argmin(closes > 0))]
            raise DataError(f"{self.asset_id}: non-positive close on {bad.isoformat()}")
        closes.flags.writeable = False

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class ReturnSeries:
    """Log returns over a fixed horizon, one value per date."""

    asset_id: str
    horizon: int
    dates: tuple[date, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != len(values):
            raise DataError(f"{self.asset_id}: date/value length mismatch")
        if not np.all(np.isfinite(values)):
            raise DataError(f"{self.asset_id}: non-finite return values")
        values.flags.writeable = False

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class VolSeries:
    """EWMA daily volatility aligned to the date index of its source returns."""

    asset_id: str
    dates: tuple[date, ...]
    sigma: np.ndarray
    decay: float

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.float64)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != len(sigma):
            raise DataError(f"{self.asset_id}: date/sigma length mismatch")
        if len(sigma) and (not np.all(np.isfinite(sigma)) or np.any(sigma < 0)):
            raise DataError(f"{self.asset_id}: invalid volatility values")
        if not 0.0 < self.decay < 1.0:
            raise DataError(f"decay must be in (0, 1), got {self.decay}")
        sigma.flags.writeable = False

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class FeatureFrame:
    """Date-aligned matrix of normalized returns plus the raw traded-asset return.

    ``values[i, j]`` is the normalized return of ``columns[j]`` on ``dates[i]``;
    ``target_returns[i]`` is the raw 1-day log return of the traded asset
    realized on ``dates[i]``.
    """

    model_id: ModelId
    dates: tuple[date, ...]
    columns: tuple[tuple[str, int], ...]
    values: np.ndarray
    target_returns: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        target = np.asarray(self.target_returns, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "target_returns", target)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "columns", tuple(tuple(c) for c in self.columns))
        object.__setattr__(self, "model_id", ModelId(self.model_id))
        n = len(self.dates)
        if values.shape != (n, len(self.columns)):
            raise DataError(f"feature matrix shape {values.shape} != ({n}, {len(self.columns)})")
        if target.shape != (n,):
            raise DataError(f"target_returns shape {target.shape} != ({n},)")
        if len(self.columns) != self.model_id.n_features:
            raise DataError(
                f"{self.model_id.name} expects {self.model_id.n_features} features, "
                f"got {len(self.columns)}"
            )
        if n and (not np.all(np.isfinite(values)) or not np.all(np.isfinite(target))):
            raise DataError("feature frame contains non-finite values")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise DataError("feature frame dates not strictly increasing")
        values.flags.writeable = False
        target.flags.writeable = False

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def n_features(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class SplitSpec:
    """Calendar boundaries of the train/test partition (both ends inclusive)."""

    train_start: date
    train_end: date
    test_end: date

    def __post_init__(self):
        if not self.train_start < self.train_end < self.test_end:
            raise DataError(
                f"split dates must satisfy train_start < train_end < test_end, got "
                f"{self.train_start} / {self.train_end} / {self.test_end}"
            )


def load_csv(path, asset_id: str | None = None) -> PriceSeries:
    """Parse a ``date,close`` CSV into a PriceSeries.

    Rows whose date or close cannot be parsed are dropped and counted in
    ``drop_count``. Rows come back sorted by date; duplicate dates are a hard
    error naming the offending date.
    """
    path = str(path)
    if asset_id is None:
        asset_id = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        names = [h.strip().lower() for h in header]
        if "date" not in names or "close" not in names:
            raise DataError(f"{path}: header must name 'date' and 'close' columns, got {header}")
        i_date, i_close = names.index("date"), names.index("close")
        rows: list[tuple[date, float]] = []
        dropped = 0
        for raw in reader:
            if not raw or all(not cell.strip() for cell in raw):
                continue
            try:
                d = date.fromisoformat(raw[i_date].strip())
                c = float(raw[i_close].strip())
            except (ValueError, IndexError):
                dropped += 1
                continue
            if not math.isfinite(c):
                dropped += 1
                continue
            rows.append((d, c))
    if not rows:
        raise DataError(f"{path}: no valid rows")
    rows.sort(key=lambda r: r[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise DataError(f"{path}: duplicate date {d2.isoformat()}")
    dates = tuple(r[0] for r in rows)
    closes = np.array([r[1] for r in rows])
    return PriceSeries(asset_id, dates, closes, drop_count=dropped)


def log_returns(series: PriceSeries, horizon: int) -> ReturnSeries:
    """value_t = ln(close_t / close_{t-horizon}); output starts ``horizon`` rows in."""
    if horizon not in VALID_HORIZONS:
        raise ValueError(f"horizon must be one of {VALID_HORIZONS}, got {horizon}")
    if len(series) <= horizon:
        raise DataError(
            f"{series.asset_id}: need more than {horizon} rows for {horizon}-day returns, "
            f"got {len(series)}"
        )
    values = np.log(series.closes[horizon:] / series.closes[:-horizon])
    return ReturnSeries(series.asset_id, horizon, series.dates[horizon:], values)


def ewma_vol(returns: ReturnSeries, decay: float, seed_var: float | None = None) -> VolSeries:
    """Exponentially weighted moving volatility of a return series.

    var_t = decay * var_{t-1} + (1 - decay) * r_t^2, seeded with the mean
    squared return over the first 20 observations (or all, if fewer) unless
    ``seed_var`` overrides it. sigma_t includes the current return, so it is
    strictly positive on any date whose trailing window saw a nonzero return.
    """
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must be in (0, 1), got {decay}")
    if len(returns) == 0:
        raise DataError(f"{returns.asset_id}: empty return series")
    sq = returns.values**2
    var_prev = float(np.mean(sq[: min(EWMA_SEED_WINDOW, len(sq))])) if seed_var is None else float(seed_var)
    var = np.empty(len(sq))
    for t in range(len(sq)):
        var_prev = decay * var_prev + (1.0 - decay) * sq[t]
        var[t] = var_prev
    return VolSeries(returns.asset_id, returns.dates, np.sqrt(var), decay)


def normalize(
    returns: ReturnSeries, vol: VolSeries, annualization: float = ANNUALIZATION
) -> ReturnSeries:
    """Scale returns to r_t / (sigma_t * annualization).

    Dates must align exactly. A zero sigma passes through as 0 when the return
    is also 0, and is an error otherwise.
    """
    if returns.dates != vol.dates:
        raise DataError(f"{returns.asset_id}: return/volatility date indices differ")
    out = np.zeros(len(returns))
    zero_sigma = vol.sigma == 0.0
    if np.any(zero_sigma & (returns.values != 0.0)):
        bad = returns.dates[int(np.argmax(zero_sigma & (returns.values != 0.0)))]
        raise DataError(
            f"{returns.asset_id}: zero volatility with nonzero return on {bad.isoformat()}"
        )
    ok = ~zero_sigma
    out[ok] = returns.values[ok] / (vol.sigma[ok] * annualization)
    return ReturnSeries(returns.asset_id, returns.horizon, returns.dates, out)


def _asset_columns(price: PriceSeries, decay: float, horizon_scaled: bool):
    """Normalized 1-day/5-day features plus the raw 1-day returns for one asset."""
    r1 = log_returns(price, 1)
    r5 = log_returns(price, 5)
    vol = ewma_vol(r1, decay)
    n1 = normalize(r1, vol)
    # vol shares r1's date index; the 5-day series starts four rows later
    vol5 = VolSeries(vol.asset_id, vol.dates[4:], vol.sigma[4:], decay)
    scale = math.sqrt(252.0 / 5.0) if horizon_scaled else ANNUALIZATION
    n5 = normalize(r5, vol5, annualization=scale)
    return n1, n5, r1


def build_features(
    model_id: ModelId | int,
    series_by_role: dict[str, PriceSeries],
    decay: float = DEFAULT_EWMA_DECAY,
    horizon_scaled: bool = False,
) -> FeatureFrame:
    """Assemble the feature frame for a model from its required price series.

    ``series_by_role`` maps role names ("spx", "russell", "wti", "gold") to
    price series. Dates are inner-joined across every feature column, so a date
    missing from any required series drops the whole row. ``horizon_scaled``
    switches the 5-day columns to a sqrt(252/5) scale instead of the default
    shared daily sqrt(252) scale.
    """
    model = ModelId(model_id)
    roles = MODEL_ROLES[model]
    missing = [r for r in roles if r not in series_by_role]
    if missing:
        raise DataError(f"{model.name}: missing price series for {', '.join(missing)}")
    column_maps: dict[tuple[str, int], dict[date, float]] = {}
    target_map: dict[date, float] = {}
    for role in roles:
        n1, n5, r1 = _asset_columns(series_by_role[role], decay, horizon_scaled)
        column_maps[(role, 1)] = dict(zip(n1.dates, n1.values))
        column_maps[(role, 5)] = dict(zip(n5.dates, n5.values))
        if role == TRADED_ASSET:
            target_map = dict(zip(r1.dates, r1.values))
    column_order = tuple((role, h) for role in roles for h in (1, 5))
    common = set(target_map)
    for col in column_order:
        common &= set(column_maps[col])
    if not common:
        raise DataError(f"{model.name}: no overlapping dates across required series")
    dates = tuple(sorted(common))
    values = np.array([[column_maps[c][d] for c in column_order] for d in dates])
    target = np.array([target_map[d] for d in dates])
    return FeatureFrame(model, dates, column_order, values, target)


def split(frame: FeatureFrame, spec: SplitSpec) -> tuple[FeatureFrame, FeatureFrame]:
    """Partition a frame into train rows in [train_start, train_end] and test
    rows in (train_end, test_end]. Boundaries must lie within the frame's range
    and neither side may come out empty."""
    if not frame.dates:
        raise DataError("cannot split an empty frame")
    first, last = frame.dates[0], frame.dates[-1]
    for name, d in (("train_start", spec.train_start), ("train_end", spec.train_end),
                    ("test_end", spec.test_end)):
        if not first <= d <= last:
            raise DataError(
                f"{name} {d.isoformat()} outside frame range "
                f"[{first.isoformat()}, {last.isoformat()}]"
            )
    dates = np.array(frame.dates)
    in_train = (dates >= spec.train_start) & (dates <= spec.train_end)
    in_test = (dates > spec.train_end) & (dates <= spec.test_end)
    if not in_train.any() or not in_test.any():
        raise DataError("split produced an empty partition")

    def _take(mask) -> FeatureFrame:
        idx = np.flatnonzero(mask)
        return FeatureFrame(
            frame.model_id,
            tuple(frame.dates[i] for i in idx),
            frame.columns,
            frame.values[idx],
            frame.target_returns[idx],
        )

    return _take(in_train), _take(in_test)


def _weekdays(start: date, count: int) -> tuple[date, ...]:
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return tuple(out)


def synth_generate(
    mu: float,
    sigma: float,
    n_days: int,
    seed: int,
    regime: str = "trend",
    asset_id: str = "synth",
    start: date = date(2018, 1, 1),
    start_price: float = 100.0,
) -> PriceSeries:
    """Generate a deterministic synthetic daily close series.

    Regimes: "trend" draws log returns mu + sigma*z; "meanrevert" alternates
    the deterministic component +mu, -mu, ... (mu acts as the alternation
    amplitude); "flat" drops the drift entirely. Dates are consecutive
    weekdays. Same seed, same series.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if n_days < 10:
        raise ValueError(f"n_days must be >= 10, got {n_days}")
    if regime not in ("trend", "meanrevert", "flat"):
        raise ValueError(f"unknown regime {regime!r}")
    rng = np.random.default_rng(seed)
    noise = sigma * rng.standard_normal(n_days - 1)
    if regime == "trend":
        drift = np.full(n_days - 1, mu)
    elif regime == "meanrevert":
        drift = mu * (-1.0) ** np.arange(n_days - 1)
    else:
        drift = np.zeros(n_days - 1)
    returns = drift + noise
    closes = start_price * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    return PriceSeries(asset_id, _weekdays(start, n_days), closes)


def write_frame_csv(frame: FeatureFrame, path) -> None:
    """Serialize a frame as ``date, f0..f{n-1}, target_return`` with full-precision floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + [f"f{i}" for i in range(frame.n_features)] + ["target_return"])
        rows = zip(frame.dates, frame.values.tolist(), frame.target_returns.tolist())
        for d, values, target in rows:
            writer.writerow([d.isoformat()] + [repr(v) for v in values] + [repr(target)])


def read_frame_csv(path, model_id: ModelId | int) -> FeatureFrame:
    """Read a frame written by :func:`write_frame_csv`.

    Column identities are reconstructed from the model's fixed role/horizon
    layout, so the width in the file must match the model.
    """
    model = ModelId(model_id)
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        n_feat = len(header) - 2
        if header[0] != "date" or header[-1] != "target_return" or n_feat < 1:
            raise DataError(f"{path}: not a feature-frame CSV (header {header})")
        if n_feat != model.n_features:
            raise DataError(
                f"{path}: {n_feat} feature columns but {model.name} expects {model.n_features}"
            )
        dates, rows, targets = [], [], []
        for raw in reader:
            if not raw:
                continue
            if len(raw) != len(header):
                raise DataError(
                    f"{path}: line {reader.line_num}: {len(raw)} cells, header has {len(header)}"
                )
            try:
                dates.append(date.fromisoformat(raw[0]))
                rows.append([float(v) for v in raw[1:-1]])
                targets.append(float(raw[-1]))
            except ValueError as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not dates:
        raise DataError(f"{path}: no data rows")
    columns = tuple((role, h) for role in MODEL_ROLES[model] for h in (1, 5))
    return FeatureFrame(model, tuple(dates), columns, np.array(rows), np.array(targets))
