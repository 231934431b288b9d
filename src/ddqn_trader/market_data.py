"""Price ingestion, return normalization, and feature-frame assembly.

Daily closes become log returns, and log returns become unit-scale features by
dividing through an EWMA volatility estimate:

    feature_t = r_t / (sigma_t * sqrt(252))
    sigma_t^2 = decay * sigma_{t-1}^2 + (1 - decay) * r_t^2

A feature frame stacks the normalized 1-day and 5-day returns of the traded
asset plus zero to three companion assets (inner-joined on dates) and carries
the raw 1-day return of the traded asset alongside, which is what the trading
environment pays rewards with.

Between the two dated types, ``PriceSeries`` in and ``FeatureFrame`` out, the
returns, volatilities and features are plain arrays: the 1-day returns and
their sigma fall on ``dates[1:]`` of the price series, the 5-day returns on
``dates[5:]``, so the 5-day sigma is ``sigma[4:]``.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import math
from dataclasses import dataclass
from datetime import date
from enum import IntEnum

import numpy as np

from .errors import ConfigError, DataError

ANNUALIZATION = math.sqrt(252.0)
DEFAULT_EWMA_DECAY = 0.94  # RiskMetrics daily convention
EWMA_SEED_WINDOW = 20
VALID_HORIZONS = (1, 5)
FRAME_CSV_BLOCK_ROWS = 512  # rows per block of write_frame_csv and read_frame_csv

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
class FeatureFrame:
    """Date-aligned matrix of normalized returns plus the raw traded-asset return.

    ``values[i, j]`` is the normalized return of ``columns[j]`` on ``dates[i]``;
    ``target_returns[i]`` is the raw 1-day log return of the traded asset
    realized on ``dates[i]``.
    """

    model_id: ModelId
    dates: tuple[date, ...]
    values: np.ndarray
    target_returns: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        target = np.asarray(self.target_returns, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "target_returns", target)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "model_id", ModelId(self.model_id))
        n = len(self.dates)
        if values.shape != (n, self.n_features):
            raise DataError(f"feature matrix shape {values.shape} != ({n}, {self.n_features})")
        if target.shape != (n,):
            raise DataError(f"target_returns shape {target.shape} != ({n},)")
        if n and (not np.all(np.isfinite(values)) or not np.all(np.isfinite(target))):
            # first bad cell in row-major order, the order of the frame's CSV
            bad = ~np.isfinite(np.column_stack([values, target]))
            i, j = divmod(int(np.argmax(bad)), bad.shape[1])
            column = ("target_return" if j == self.n_features
                      else f"f{j} ({self.columns[j][0]} {self.columns[j][1]}d)")
            raise DataError(f"feature frame contains non-finite values: first on "
                            f"{self.dates[i]} in column {column}")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise DataError("feature frame dates not strictly increasing")
        values.flags.writeable = False
        target.flags.writeable = False

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def n_features(self) -> int:
        return self.model_id.n_features

    @property
    def columns(self) -> tuple[tuple[str, int], ...]:
        """(role, horizon) of each feature column: each of the model's roles
        from ``MODEL_ROLES``, its 1-day and then its 5-day return."""
        return tuple((role, h) for role in MODEL_ROLES[self.model_id] for h in (1, 5))

    def summary(self) -> dict:
        """Row count and ISO first and last dates, as the JSON outputs record them."""
        return {"rows": len(self), "first_date": self.dates[0].isoformat(),
                "last_date": self.dates[-1].isoformat()}


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
    ``drop_count``. Rows come back sorted by date; a duplicate date or a
    non-positive close is a hard error naming the file and the date.
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
    dates = tuple(r[0] for r in rows)
    closes = np.array([r[1] for r in rows])
    try:
        return PriceSeries(asset_id, dates, closes, drop_count=dropped)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def log_returns(series: PriceSeries, horizon: int) -> np.ndarray:
    """r_t = ln(close_t / close_{t-horizon}), on the dates ``series.dates[horizon:]``."""
    if horizon not in VALID_HORIZONS:
        raise ValueError(f"horizon must be one of {VALID_HORIZONS}, got {horizon}")
    if len(series) <= horizon:
        raise DataError(
            f"{series.asset_id}: need more than {horizon} rows for {horizon}-day returns, "
            f"got {len(series)}"
        )
    values = np.log(series.closes[horizon:] / series.closes[:-horizon])
    if not np.all(np.isfinite(values)):
        raise DataError(f"{series.asset_id}: non-finite return values")
    return values


def ewma_vol(returns: np.ndarray, decay: float) -> np.ndarray:
    """Exponentially weighted moving volatility, one sigma per return.

    var_t = decay * var_{t-1} + (1 - decay) * r_t^2, seeded with the mean
    squared return over the first 20 observations (or all, if fewer). sigma_t
    includes the current return, so it is strictly positive on any date whose
    trailing window saw a nonzero return.
    """
    if not 0.0 < decay < 1.0:
        raise ConfigError(f"decay must be in (0, 1), got {decay}")
    if len(returns) == 0:
        raise DataError("empty return series")
    sq = returns**2
    var_prev = float(np.mean(sq[:EWMA_SEED_WINDOW]))
    # Python floats run the recursion faster than numpy scalars, with the same
    # IEEE operations in the same order
    var = []
    for s in sq.tolist():
        var_prev = decay * var_prev + (1.0 - decay) * s
        var.append(var_prev)
    return np.sqrt(var)


def normalize(
    returns: np.ndarray, sigma: np.ndarray, annualization: float = ANNUALIZATION
) -> np.ndarray:
    """Scale returns to r_t / (sigma_t * annualization), position by position.

    A zero sigma passes through as 0 when the return is also 0, and is an
    error naming the position otherwise.
    """
    zero_sigma = sigma == 0.0
    bad = zero_sigma & (returns != 0.0)
    if np.any(bad):
        raise DataError(f"zero volatility with nonzero return at position {int(np.argmax(bad))}")
    out = np.zeros(len(returns))
    ok = ~zero_sigma
    out[ok] = returns[ok] / (sigma[ok] * annualization)
    return out


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
    scale5 = math.sqrt(252.0 / 5.0) if horizon_scaled else ANNUALIZATION
    # each column as (date ordinals, values), in the order of FeatureFrame.columns
    columns: list[tuple[np.ndarray, np.ndarray]] = []
    for role in roles:
        price = series_by_role[role]
        r1, r5 = log_returns(price, 1), log_returns(price, 5)
        sigma = ewma_vol(r1, decay)
        # r1 and sigma fall on price.dates[1:], r5 four rows later on price.dates[5:]
        days = np.array([d.toordinal() for d in price.dates[1:]], dtype=np.int64)
        columns += [(days, normalize(r1, sigma)),
                    (days[4:], normalize(r5, sigma[4:], annualization=scale5))]
        if role == TRADED_ASSET:
            target_days, target_values, target_dates = days, r1, price.dates[1:]
    common = target_days
    for days, _ in columns:
        common = np.intersect1d(common, days, assume_unique=True)
    if not len(common):
        raise DataError(f"{model.name}: no overlapping dates across required series")
    values = np.empty((len(common), len(columns)))
    for j, (days, column) in enumerate(columns):
        values[:, j] = column[np.searchsorted(days, common)]
    rows = np.searchsorted(target_days, common)
    dates = tuple(target_dates[i] for i in rows.tolist())
    target = target_values[rows]
    return FeatureFrame(model, dates, values, target)


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
    # the dates strictly increase, so each side is one contiguous run of rows
    lo = bisect.bisect_left(frame.dates, spec.train_start)
    mid = bisect.bisect_right(frame.dates, spec.train_end)
    hi = bisect.bisect_right(frame.dates, spec.test_end)
    if lo == mid or mid == hi:
        raise DataError("split produced an empty partition")

    def _rows(start: int, stop: int) -> FeatureFrame:
        return FeatureFrame(frame.model_id, frame.dates[start:stop], frame.values[start:stop],
                            frame.target_returns[start:stop])

    return _rows(lo, mid), _rows(mid, hi)


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
    if not math.isfinite(mu):
        raise ConfigError(f"mu must be finite, got {mu}")
    if not 0 <= sigma < math.inf:
        raise ConfigError(f"sigma must be finite and >= 0, got {sigma}")
    if n_days < 10:
        raise ConfigError(f"n_days must be >= 10, got {n_days}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if regime not in ("trend", "meanrevert", "flat"):
        raise ConfigError(f"unknown regime {regime!r}")
    weekdays_left = int(np.busday_count(start, np.datetime64(date.max) + 1))
    if n_days > weekdays_left:
        raise ConfigError(f"n_days {n_days} from {start.isoformat()} runs past "
                          f"{date.max.isoformat()}: at most {weekdays_left} weekdays")
    if regime == "trend":
        drift = np.full(n_days - 1, mu)
    elif regime == "meanrevert":
        drift = mu * (-1.0) ** np.arange(n_days - 1)
    else:
        drift = np.zeros(n_days - 1)
    rng = np.random.default_rng(seed)
    # an overflow or inf - inf here ends in a non-finite close, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        returns = drift + sigma * rng.standard_normal(n_days - 1)
        closes = start_price * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    if not np.isfinite(closes).all():
        raise ConfigError(f"synthetic closes are not finite (mu {mu}, sigma {sigma}, "
                          f"start_price {start_price}, {n_days} days)")
    dates = np.busday_offset(start, np.arange(n_days), roll="forward").astype(object)
    return PriceSeries(asset_id, tuple(dates), closes)


def write_frame_csv(frame: FeatureFrame, path) -> None:
    """Serialize a frame as ``date, f0..f{n-1}, target_return`` with full-precision floats.

    The bytes are those of ``csv.writer``: rows end in CRLF and every float is
    its shortest round-trip ``repr``. No field needs quoting, as each one is an
    ISO date or a float. Rows are rendered column by column, one block of
    ``FRAME_CSV_BLOCK_ROWS`` at a time.
    """
    header = ["date", *(f"f{i}" for i in range(frame.n_features)), "target_return"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(frame), FRAME_CSV_BLOCK_ROWS):
            stop = start + FRAME_CSV_BLOCK_ROWS
            cells = [map(date.isoformat, frame.dates[start:stop])]
            cells += [map(repr, column) for column in frame.values[start:stop].T.tolist()]
            cells.append(map(repr, frame.target_returns[start:stop].tolist()))
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _convert_rows(path, rows: list, line_nums: list, dates: list, blocks: list) -> None:
    """Append a block of frame rows to ``dates`` and, as one column-major array
    (feature 0 of every row, ..., then the targets), to ``blocks``. A bad cell
    is reported for the block's first bad line, as a line-by-line read would."""
    if not rows:
        return
    by_column = list(zip(*rows))
    try:
        dates.extend(map(date.fromisoformat, by_column[0]))
        cells = np.array(list(map(float, itertools.chain.from_iterable(by_column[1:]))))
    except ValueError:
        for line_num, raw in zip(line_nums, rows):
            try:
                date.fromisoformat(raw[0])
                list(map(float, raw[1:]))
            except ValueError as exc:
                raise DataError(f"{path}: line {line_num}: {exc}") from None
        raise
    blocks.append(cells.reshape(len(by_column) - 1, len(rows)))


def read_frame_csv(path, model_id: ModelId | int = ModelId.M0) -> FeatureFrame:
    """Read a frame written by :func:`write_frame_csv`.

    Column identities are reconstructed from the model's fixed role/horizon
    layout, so the width in the file must match the model. Cells are converted
    column by column, one block of ``FRAME_CSV_BLOCK_ROWS`` rows at a time; a
    bad cell or row width is reported for the first bad line in file order.
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
        dates, blocks, rows, line_nums = [], [], [], []
        for raw in reader:
            if not raw:
                continue
            if len(raw) != len(header):
                _convert_rows(path, rows, line_nums, dates, blocks)  # bad cells before it first
                raise DataError(
                    f"{path}: line {reader.line_num}: {len(raw)} cells, header has {len(header)}"
                )
            rows.append(raw)
            line_nums.append(reader.line_num)
            if len(rows) == FRAME_CSV_BLOCK_ROWS:
                _convert_rows(path, rows, line_nums, dates, blocks)
                rows, line_nums = [], []
        _convert_rows(path, rows, line_nums, dates, blocks)
    if not dates:
        raise DataError(f"{path}: no data rows")
    cells = np.concatenate(blocks, axis=1)
    try:
        return FeatureFrame(model, dates, cells[:-1].T, cells[-1])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
