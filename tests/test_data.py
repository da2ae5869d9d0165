import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from enspost import data, models
from enspost.data import (
    StationSeries,
    SyntheticConfig,
    generate_synthetic,
    impute_missing,
    impute_series,
    lead_time_offset,
    load_station_csv,
    parse_iso_dates,
    time_index,
    write_station_csv,
    write_truth_csv,
)
from enspost.errors import (
    DataError,
    ImputationFailure,
    InvalidConfig,
    InvalidEnsemble,
    InvalidInput,
    ParseError,
)
from enspost.seasonal import SeasonalCoeffs
from enspost.timeseries import ARCoeffs, GARCHCoeffs, ar_teacher_forced, garch_path, garch_start

from conftest import make_series


# ---------------------------------------------------------------------------
# ensemble statistics
# ---------------------------------------------------------------------------


def _ensemble_stats(members) -> tuple[float, float]:
    """ens_mean and ens_sd of a one-day series with these members."""
    series = StationSeries.build("X", 24, [np.datetime64("2015-01-01")], [0.0], [members])
    return float(series.ens_mean[0]), float(series.ens_sd[0])


def test_ensemble_stats_symmetric_case():
    assert _ensemble_stats([1.0, 2.0, 3.0]) == pytest.approx((2.0, 1.0))


def test_ensemble_stats_constant_then_rejected_downstream():
    with pytest.raises(InvalidEnsemble, match=r"degenerate ensemble \(sd=0\) on 2015-01-01"):
        _ensemble_stats([5.0, 5.0, 5.0, 5.0])
    dates = np.datetime64("2015-01-01") + np.arange(2)
    with pytest.raises(InvalidEnsemble):
        StationSeries.build("X", 24, dates, [1.0, 2.0], [[5.0, 5.0], [5.0, 5.0]])


def test_ensemble_stats_two_pass_oracle(rng):
    x = rng.standard_normal(50)
    mean, sd = _ensemble_stats(x)
    oracle_mean = sum(float(v) for v in x) / 50
    oracle_var = sum((float(v) - oracle_mean) ** 2 for v in x) / 49
    assert mean == pytest.approx(oracle_mean, abs=1e-12)
    assert sd == pytest.approx(np.sqrt(oracle_var), abs=1e-12)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=40))
def test_ensemble_stats_matches_two_pass(values):
    m = sum(values) / len(values)
    v = sum((x - m) ** 2 for x in values) / (len(values) - 1)
    if v == 0.0:  # equal members, or spreads whose squares underflow: sd 0
        with pytest.raises(InvalidEnsemble, match="degenerate ensemble"):
            _ensemble_stats(values)
        return
    mean, sd = _ensemble_stats(values)
    assert mean == pytest.approx(m, abs=1e-9)
    assert sd == pytest.approx(np.sqrt(v), abs=1e-9)


def test_ensemble_stats_rejects_small_or_nonfinite():
    with pytest.raises(InvalidEnsemble):
        _ensemble_stats([1.0])
    with pytest.raises(InvalidEnsemble):
        _ensemble_stats([1.0, np.inf])
    with pytest.raises(InvalidEnsemble):
        _ensemble_stats([1e308, 1.7e308])


@pytest.mark.parametrize("n", [1, 255, 256, 257, 2192])
def test_member_stats_are_numpys_mean_and_sd_to_the_bit(n):
    members = np.random.default_rng(n).normal(10.0, 3.0, size=(n, 50))
    mean, sd = data._member_stats(members)
    assert np.array_equal(mean, members.mean(axis=1))
    assert np.array_equal(sd, members.std(axis=1, ddof=1))


@pytest.mark.parametrize("value, message", [
    (np.inf, "ensemble members, mean or sd not finite on 2016-08-23"),
    (np.nan, "ensemble members, mean or sd not finite on 2016-08-23"),
    (None, r"degenerate ensemble \(sd=0\) on 2016-08-23"),
], ids=["inf", "nan", "zero_sd"])
def test_a_bad_row_in_a_later_block_is_named_by_its_date(value, message):
    # row 600 lies in the third _BLOCK_ROWS block of the statistics
    members = np.random.default_rng(3).normal(size=(700, 5))
    if value is None:
        members[600] = 1.5
    else:
        members[600, 2] = value
    dates = np.datetime64("2015-01-01") + np.arange(700)
    with pytest.raises(InvalidEnsemble, match=f"^{message}$"):
        StationSeries.build("X", 24, dates, np.zeros(700), members)


# ---------------------------------------------------------------------------
# imputation
# ---------------------------------------------------------------------------


def test_impute_symmetric_neighbors():
    out = impute_missing([1.0, np.nan, 3.0], half_window=1, decay=0.5)
    assert out[1] == pytest.approx(2.0)


def test_impute_identity_on_complete():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(impute_missing(x), x)


def test_impute_weighted_sum_oracle():
    x = np.array([0.0, np.nan, np.nan, np.nan, 4.0])
    out = impute_missing(x, half_window=4, decay=0.5)
    lam = 0.5
    for i in (1, 2, 3):
        wsum = vsum = 0.0
        for d in range(1, 5):
            for j in (i - d, i + d):
                if 0 <= j < 5 and np.isfinite(x[j]):
                    wsum += lam ** d
                    vsum += lam ** d * x[j]
        assert out[i] == pytest.approx(vsum / wsum, abs=1e-12)


def test_impute_long_gap_rejected():
    x = np.array([1.0, np.nan, np.nan, np.nan, np.nan, 2.0])
    with pytest.raises(ImputationFailure, match="index 4"):
        impute_missing(x, half_window=6)


def test_impute_unreachable_side_rejected():
    with pytest.raises(ImputationFailure):
        impute_missing(np.array([np.nan, np.nan, 1.0, 2.0]), half_window=1, max_gap=3)


def test_impute_idempotent(rng):
    x = rng.normal(size=30)
    x[[4, 11, 12]] = np.nan
    once = impute_missing(x)
    twice = impute_missing(once)
    assert np.array_equal(once, twice)


def test_impute_series_round_trip(rng):
    obs = rng.normal(size=20)
    obs[7] = np.nan
    series = make_series(obs, rng=rng)
    fixed = impute_series(series)
    assert fixed.is_complete()
    mask = np.ones(20, dtype=bool)
    mask[7] = False
    assert np.array_equal(fixed.obs[mask], series.obs[mask])
    assert not fixed.obs.flags.writeable and not np.shares_memory(fixed.obs, series.obs)
    for name in ("dates", "members", "ens_mean", "ens_sd"):
        assert getattr(fixed, name) is getattr(series, name), name


# ---------------------------------------------------------------------------
# series invariants and CSV round trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("start, end", [
    ("2015-02-11", "2015-05-30"), (None, "2015-03-01"), ("2015-06-01", None), (None, None),
    ("2015-04-04", "2015-04-04"), ("2014-06-01", "2015-01-01"), ("2015-07-19", "2016-01-01"),
], ids=["interior", "open_start", "open_end", "whole", "one_day", "first_day", "last_day"])
def test_window_is_read_only_views_equal_to_a_build_of_its_rows(start, end):
    series, _ = generate_synthetic(SyntheticConfig(n_days=200, m=50, seed=5))
    mask = np.ones(series.n_days, dtype=bool)
    if start is not None:
        mask &= series.dates >= np.datetime64(start)
    if end is not None:
        mask &= series.dates <= np.datetime64(end)
    window = series.window(start, end)
    rebuilt = StationSeries.build(series.station_id, series.lead_time_h, series.dates[mask],
                                  series.obs[mask], series.members[mask])
    assert (window.station_id, window.lead_time_h) == (series.station_id, series.lead_time_h)
    for name in ("dates", "obs", "members", "ens_mean", "ens_sd"):
        view = getattr(window, name)
        assert not view.flags.writeable, name
        assert np.shares_memory(view, getattr(series, name)), name
        assert np.array_equal(view, getattr(rebuilt, name)), name


@pytest.mark.parametrize("start, end", [
    ("2015-07-20", None), (None, "2014-12-31"), ("2015-03-02", "2015-03-01"),
    ("2016-01-01", "2014-01-01")], ids=["after", "before", "inverted", "inverted_outside"])
def test_empty_or_inverted_window_raises_builds_parse_error(start, end):
    series, _ = generate_synthetic(SyntheticConfig(n_days=200, m=3, seed=5))
    with pytest.raises(ParseError, match="^series has no rows$"):
        series.window(start, end)


def test_window_of_a_long_series_copies_no_rows():
    series, _ = generate_synthetic(SyntheticConfig(n_days=2192, m=50, seed=1))
    tracemalloc.start()
    try:
        window = series.window("2015-01-01", "2019-12-31")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert window.n_days == 1826
    assert peak < 64 * 1024  # one copy of the window's members alone is 730 kB


def test_loading_a_long_station_file_peaks_below_two_member_arrays(tmp_path):
    series, _ = generate_synthetic(SyntheticConfig(n_days=2192, m=50, seed=1))
    path = tmp_path / "s.csv"
    write_station_csv(series, path)
    del series
    tracemalloc.start()
    try:
        loaded = load_station_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.members.shape == (2192, 50)
    assert peak < 2 * loaded.members.nbytes  # 0.84 MiB each; a tripled array peaked at 2.68


def test_a_synthetic_draw_peaks_below_two_member_arrays():
    tracemalloc.start()
    try:
        series, _ = generate_synthetic(SyntheticConfig(n_days=2192, m=50, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * series.members.nbytes  # a tripled array peaked at 3.01 MiB


def test_build_rejects_date_gap():
    dates = np.array(["2015-01-01", "2015-01-02", "2015-01-04"], dtype="datetime64[D]")
    with pytest.raises(ParseError, match="gapped"):
        StationSeries.build("X", 24, dates, np.zeros(3), np.random.default_rng(0).normal(size=(3, 4)))


def test_build_rejects_duplicate_date():
    # duplicate pair sits at file rows 3 and 4 (header counted); the second is named
    dates = np.array(["2015-01-01", "2015-01-02", "2015-01-02"], dtype="datetime64[D]")
    with pytest.raises(ParseError, match="row 4"):
        StationSeries.build("X", 24, dates, np.zeros(3), np.random.default_rng(0).normal(size=(3, 4)))


def test_series_arrays_read_only(rng):
    series = make_series(rng.normal(size=5), rng=rng)
    with pytest.raises(ValueError):
        series.obs[0] = 1.0


def test_build_copies_what_it_is_handed_and_freezes_the_copies(rng):
    dates = np.datetime64("2015-01-01") + np.arange(5)
    obs, members = rng.normal(size=5), rng.normal(size=(5, 4))
    series = StationSeries.build("X", 24, dates, obs, members)
    kept = {name: getattr(series, name).copy() for name in ("dates", "obs", "members")}
    dates += 1
    obs[:] = 99.0
    members[:] = 99.0
    for name in ("dates", "obs", "members", "ens_mean", "ens_sd"):
        assert not getattr(series, name).flags.writeable, name
    for name, before in kept.items():
        assert np.array_equal(getattr(series, name), before), name


def test_load_smoke_three_rows(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "station_id,date,lead_time_h,obs,m1,m2\n"
        "A,2015-01-01,24,1.5,1.0,2.0\n"
        "A,2015-01-02,24,,2.0,3.0\n"
        "A,2015-01-03,24,2.5,3.0,4.0\n")
    series = load_station_csv(path)
    assert series.n_days == 3
    assert series.station_id == "A"
    assert np.isnan(series.obs[1])
    assert series.ens_mean[0] == pytest.approx(1.5)


def test_load_duplicate_date_names_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "station_id,date,lead_time_h,obs,m1,m2\n"
        "A,2015-01-01,24,1.5,1.0,2.0\n"
        "A,2015-01-01,24,1.6,1.0,2.0\n")
    with pytest.raises(ParseError, match="row 3"):
        load_station_csv(path)


@pytest.mark.parametrize("lead", ["24.5", "24.9"])
def test_load_non_integral_lead_time_names_row(tmp_path, lead):
    path = tmp_path / "s.csv"
    path.write_text(
        "station_id,date,lead_time_h,obs,m1,m2\n"
        "A,2015-01-01,24,1.5,1.0,2.0\n"
        f"A,2015-01-02,{lead},1.6,1.0,2.0\n")
    with pytest.raises(ParseError, match="row 3"):
        load_station_csv(path, lead_time_h=24)


def test_load_bad_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("station,when,lead,obs,m1\nA,2015-01-01,24,1,2\n")
    with pytest.raises(ParseError, match="row 1"):
        load_station_csv(path)


def test_load_filters_mixed_file(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "station_id,date,lead_time_h,obs,m1,m2\n"
        "A,2015-01-01,24,1.5,1.0,2.0\n"
        "B,2015-01-01,24,2.5,2.0,3.0\n"
        "A,2015-01-02,24,1.6,1.1,2.1\n")
    series = load_station_csv(path, station_id="A", lead_time_h=24)
    assert series.n_days == 2
    with pytest.raises(ParseError, match="filters"):
        load_station_csv(path)


def test_a_filtered_read_holds_only_its_own_rows(tmp_path):
    paths = []
    for k, sid in enumerate("ABC"):
        series, _ = generate_synthetic(SyntheticConfig(n_days=300, m=7, seed=k, station_id=sid))
        paths.append(tmp_path / f"{sid}.csv")
        write_station_csv(series, paths[-1])
    header, *rows = zip(*(path.read_text().splitlines(keepends=True) for path in paths))
    path = tmp_path / "mixed.csv"
    path.write_text(header[0] + "".join(line for date_rows in rows for line in date_rows))
    loaded = load_station_csv(path, station_id="B")
    assert np.array_equal(loaded.members, load_station_csv(paths[1]).members)
    assert loaded.members.base is None
    assert loaded.members.nbytes == 300 * 7 * 8


_HEADER = "station_id,date,lead_time_h,obs,m1,m2\n"
_ROW_1 = "A,2015-01-01,24,1.5,1.0,2.0\n"


@pytest.mark.parametrize("text, filters, message", [
    ("", {}, "empty file: missing header"),
    ("station,when,lead,obs,m1\nA,2015-01-01,24,1,2\n", {},
     "row 1: header must start with station_id,date,lead_time_h,obs, "
     "got ['station', 'when', 'lead', 'obs']"),
    ("station_id,date,lead_time_h,obs\n", {}, "row 1: member columns must be m1..mM in order"),
    ("station_id,date,lead_time_h,obs,m2,m1\n", {},
     "row 1: member columns must be m1..mM in order"),
    (_HEADER + _ROW_1 + "A,2015-01-02,24,1.6,1.0\n", {}, "row 3: expected 6 fields, got 5"),
    (_HEADER + "A,2015-01-01,24h,1.5,1.0,2.0\n", {},
     "row 2: cannot parse lead_time_h value '24h'"),
    (_HEADER + "A,2015-01-01,inf,1.5,1.0,2.0\n", {},
     "row 2: non-finite lead_time_h value 'inf'"),
    (_HEADER + _ROW_1 + "A,2015-01-02,24.5,1.6,1.0,2.0\n", {"lead_time_h": 24},
     "row 3: non-integral lead_time_h value '24.5'"),
    (_HEADER + _ROW_1 + "B,2015-01-01,24,1.5,1.0,2.0\n", {},
     "row 3: file mixes [('A', 24), ('B', 24)]; pass station_id/lead_time_h filters"),
    (_HEADER + _ROW_1 + "A,2015-01-02,48,1.5,1.0,2.0\n", {"station_id": "A"},
     "row 3: file mixes [('A', 24), ('A', 48)]; pass station_id/lead_time_h filters"),
    (_HEADER + _ROW_1 + "A,2015-13-45,24,1.6,1.0,2.0\n", {},
     "row 3: invalid ISO date '2015-13-45'"),
    (_HEADER + "A,2015-01-01,24,x,1.0,2.0\n", {}, "row 2: cannot parse obs value 'x'"),
    (_HEADER + "A,2015-01-01,24,nan,1.0,2.0\n", {}, "row 2: non-finite obs value 'nan'"),
    (_HEADER + _ROW_1 + "A,2015-01-02,24,1.6,1.0,abc\n", {},
     "row 3: cannot parse m2 value 'abc'"),
    (_HEADER + "A,2015-01-01,24,1.5,-inf,2.0\n", {}, "row 2: non-finite m1 value '-inf'"),
    (_HEADER + _ROW_1, {"station_id": "Z"}, "no rows match station_id='Z', lead_time_h=None"),
    (_HEADER + _ROW_1, {"lead_time_h": 48}, "no rows match station_id=None, lead_time_h=48"),
    (_HEADER + "\n\n", {}, "no rows match station_id=None, lead_time_h=None"),
    (_HEADER + _ROW_1 + _ROW_1, {},
     "{path}: duplicated or non-monotone dates at row 3: 2015-01-01 -> 2015-01-01"),
], ids=["empty", "header", "no_members", "member_order", "field_count", "lead_parse",
        "lead_nonfinite", "lead_nonintegral", "mixed_stations", "mixed_leads", "date",
        "obs_parse", "obs_nonfinite", "member_parse", "member_nonfinite", "no_station_match",
        "no_lead_match", "blank_rows_only", "duplicate_date"])
def test_load_error_messages_are_pinned(tmp_path, text, filters, message):
    path = tmp_path / "s.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as caught:
        load_station_csv(path, **filters)
    assert str(caught.value) == message.format(path=path)


@pytest.mark.parametrize("date", [
    "", "NaT", "nat", "today", "now", "2015", "2015-01", "2015-01-01T12", "2015-01-01T12:30Z",
    "2015-1-02", " 2015-01-02", "2015-01-02 "])
def test_load_rejects_text_that_is_not_a_date(tmp_path, date):
    path = tmp_path / "s.csv"
    path.write_text(_HEADER + _ROW_1 + f"A,{date},24,1.6,1.0,2.0\n")
    with pytest.raises(ParseError) as caught:
        load_station_csv(path)
    assert str(caught.value) == f"row 3: invalid ISO date {date!r}"


def test_parse_iso_dates_accepts_only_what_it_writes_back():
    texts = ["2015-01-01", "2016-02-29", "0999-12-31"]
    assert parse_iso_dates(texts).astype(str).tolist() == texts
    for text in ("2015-02-29", "2015-13-01", "NaT", "today", "2015-01"):
        with pytest.raises(ValueError):
            parse_iso_dates([text])


def _by_rows(path, station_id=None, lead_time_h=None):
    """The one-cell-at-a-time reader alone: the reference for the bulk path."""
    return data._read_station_csv(path, data._convert_rows, station_id, lead_time_h)


def _outcome(load, *args):
    try:
        series = load(*args)
    except DataError as exc:
        return type(exc).__name__, str(exc)
    return series


def _assert_same_outcome(path, *filters):
    fast, slow = _outcome(load_station_csv, path, *filters), _outcome(_by_rows, path, *filters)
    if isinstance(slow, tuple):
        assert fast == slow
        return
    assert not isinstance(fast, tuple), fast
    assert (fast.station_id, fast.lead_time_h) == (slow.station_id, slow.lead_time_h)
    for name in ("dates", "obs", "members", "ens_mean", "ens_sd"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=name == "obs"), name


_CELL_TEXTS = ["1_000", " 1.5", "1.5 ", "１２", "nan", "inf", "-inf", "", "1e", "1e400", "0x10",
               "2015-1-1", "2015-01-03", "24", "24.0", "48", "A", "B", "+3", ".5", "NaT", "1,5"]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6),
                                st.sampled_from(_CELL_TEXTS)), max_size=4),
       station_id=st.sampled_from([None, "A", "B"]),
       lead_time_h=st.sampled_from([None, 24, 48]))
def test_bulk_and_row_readers_agree(tmp_path, edits, station_id, lead_time_h):
    rows = [[sid, f"2015-01-0{day}", "24", f"{day}.5", "1.0", f"{day}.25", "2.0"]
            for sid in ("A", "B") for day in (1, 2, 3)]
    for row, col, text in edits:
        rows[row][col] = text
    path = tmp_path / "s.csv"
    path.write_text("station_id,date,lead_time_h,obs,m1,m2,m3\n"
                    + "".join(",".join(row) + "\n" for row in rows))
    _assert_same_outcome(path, station_id, lead_time_h)


@pytest.mark.parametrize("n_days", [255, 256, 257, 513])
def test_bulk_reader_across_block_edges(tmp_path, n_days):
    series, _ = generate_synthetic(SyntheticConfig(n_days=n_days, m=4, seed=n_days))
    path = tmp_path / "s.csv"
    write_station_csv(series, path)
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(n_days // 2, "\n")  # a blank row counts toward the row numbers
    path.write_text("".join(lines))
    _assert_same_outcome(path)
    assert load_station_csv(path).n_days == n_days
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",x\r\n"
    path.write_text("".join(lines))
    with pytest.raises(ParseError) as caught:
        load_station_csv(path)
    assert str(caught.value) == f"row {n_days + 2}: cannot parse m4 value 'x'"


def test_rows_filtered_out_are_not_parsed(tmp_path):
    # only the field count and lead time of another station's rows are read
    dates = np.datetime64("2015-01-01") + np.arange(300)
    body = "".join(f"A,{d},24,1.5,1.0,2.0\nB,{d},24,nan,abc,\n" for d in dates)
    path = tmp_path / "s.csv"
    path.write_text(_HEADER + body)
    series = load_station_csv(path, station_id="A")
    assert series.n_days == 300 and series.dates[-1] == dates[-1]
    _assert_same_outcome(path, "A")


_ROW_2 = "A,2015-01-02,24,2.5,2.0,3.0\n"


@pytest.mark.parametrize("text, filters, expected", [
    (_HEADER + _ROW_1 + "   \n" + _ROW_2, (), "row 3: expected 6 fields, got 1"),
    (_HEADER + "#" + _ROW_1 + _ROW_2, (),
     "row 3: file mixes [('#A', 24), ('A', 24)]; pass station_id/lead_time_h filters"),
    (_HEADER + "#" + _ROW_1 + _ROW_2, ("A",), 1),
    (_HEADER + '"A,""x""",2015-01-01,24,1.5,1.0,2.0\n', (), 1),
    (_HEADER + ('"A\nB",2015-01-01,24,1.5,1.0,2.0\n'
                'A,2015-01-01,24,1.5,1.0,2.0\n"A\nB",2015-01-02,24,1.5,1.0,2.0\n'), ("A\nB",), 2),
    ((_HEADER + _ROW_1 + "\n" + _ROW_2).replace("\n", "\r"), (), 2),
    ((_HEADER + _ROW_1 + "\n" + _ROW_2).replace("\n", "\r\n"), (), 2),
    (_HEADER + _ROW_1 + _ROW_2.rstrip("\n"), (), 2),
    (_HEADER + '"A","2015-01-01","24","1.5","1.0",2.0\n', (), 1),
    (_HEADER + "A,2015-01-01, 24 ,\t1.5, 1.0\t,2.0  \n", (), 1),
    (_HEADER + "A,2015-01-01,24,1.5,1.0,\x1c2.0\n", (), "row 2: cannot parse m2 value '\\x1c2.0'"),
    (_HEADER + "A,2015-01-01,24,1.5,1.0\x1f,2.0\n", (), "row 2: cannot parse m1 value '1.0\\x1f'"),
    (_HEADER + _ROW_1 + "A,2015-01-02,24,2.5,0." + "0" * 140_000 + "1,3.0\n", (),
     "field larger than field limit (131072)"),
    (_HEADER + '"A' + "x" * 70_000 + "\n" + "x" * 70_000 + '",2015-01-01,24,1.5,1.0,2.0\n', (),
     "field larger than field limit (131072)"),
], ids=["whitespace_line", "hash_row", "hash_row_filtered", "quoted_comma_and_quotes",
        "quoted_line_break", "cr_line_ends", "crlf_line_ends", "no_final_newline",
        "quoted_numbers", "padded_cells", "separator_before_member", "separator_after_member",
        "member_past_csv_field_limit", "station_id_over_two_lines_past_csv_field_limit"])
def test_bulk_and_row_readers_agree_on_layout(tmp_path, text, filters, expected):
    # layouts where csv.reader and numpy's tokenizer could split a file differently
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    _assert_same_outcome(path, *filters)
    if isinstance(expected, int):
        assert load_station_csv(path, *filters).n_days == expected
    else:
        with pytest.raises(DataError) as caught:
            load_station_csv(path, *filters)
        assert expected in str(caught.value)


def _csv_writer_bytes(series) -> bytes:
    """The file written one csv.writer row at a time, one cell format at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["station_id", "date", "lead_time_h", "obs"]
                    + [f"m{i + 1}" for i in range(series.n_members)])
    for i in range(series.n_days):
        obs = "" if np.isnan(series.obs[i]) else "%.9f" % series.obs[i]
        writer.writerow([series.station_id, str(series.dates[i]), series.lead_time_h, obs]
                        + ["%.9f" % v for v in series.members[i]])
    return buf.getvalue().encode()


@pytest.mark.parametrize("station_id", ['A,"B"', "50%s%%", "S01"])
def test_write_matches_csv_writer_and_round_trips(tmp_path, rng, station_id):
    block = data._BLOCK_ROWS
    # one block, and three blocks with missing obs in the first two
    for n_days, missing in [(30, [0, 17]), (2 * block + 3, [17, block, block + 1])]:
        obs = rng.normal(size=n_days) * 1e3
        obs[missing] = np.nan
        obs[5] = -0.0
        series = make_series(obs, station_id=station_id, rng=rng, m=3)
        path = tmp_path / "s.csv"
        write_station_csv(series, path)
        assert path.read_bytes() == _csv_writer_bytes(series)
        back = load_station_csv(path)
        assert back.station_id == station_id
        assert np.array_equal(np.isnan(back.obs), np.isnan(series.obs))
        assert np.allclose(back.obs, series.obs, atol=1e-9, equal_nan=True)
        assert np.allclose(back.members, series.members, atol=1e-9)


def test_truth_writer_matches_csv_writer(tmp_path):
    garch = GARCHCoeffs(0.1, 0.5, 0.3)
    for n_days in (40, 2 * data._BLOCK_ROWS + 3):  # one block, three blocks
        series, truth = generate_synthetic(SyntheticConfig(n_days=n_days, m=3, seed=4,
                                                           garch=garch))
        path = tmp_path / "truth.csv"
        write_truth_csv(series.dates, truth, path)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["date", "mu", "sigma", "mu_seasonal", "sigma_seasonal"])
        for i in range(series.n_days):
            writer.writerow([str(series.dates[i])] + ["%.9f" % v[i] for v in (
                truth.mu, truth.sigma, truth.mu_seasonal, truth.sigma_seasonal)])
        assert path.read_bytes() == buf.getvalue().encode()


def test_csv_round_trip(tmp_path, rng):
    series, _ = generate_synthetic(SyntheticConfig(n_days=40, m=5, seed=9))
    path = tmp_path / "round.csv"
    write_station_csv(series, path)
    back = load_station_csv(path)
    assert np.array_equal(back.dates, series.dates)
    assert np.allclose(back.obs, series.obs, atol=1e-9)
    assert np.allclose(back.members, series.members, atol=1e-9)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_synthetic_degenerate_dgp_moments():
    # all seasonal amplitudes 0, tau=0, bias 0, a1=b1=0: obs iid N(a0, e^(2 b0))
    cfg = SyntheticConfig(
        n_days=4000, seed=11,
        loc=SeasonalCoeffs(3.0, 0.0), scale=SeasonalCoeffs(0.2, 0.0),
        ar=ARCoeffs(0, 0.0, ()),
        clim_amp=0.0, weather_sd=0.0, spread_amp=0.0)
    series, truth = generate_synthetic(cfg)
    sigma = np.exp(0.2)
    n = series.n_days
    assert np.mean(series.obs) == pytest.approx(3.0, abs=3 * sigma / np.sqrt(n))
    assert np.std(series.obs) == pytest.approx(sigma, abs=3 * sigma / np.sqrt(2 * n))
    assert np.allclose(truth.mu, 3.0)
    assert np.allclose(truth.sigma, sigma)


def test_synthetic_ar_autocorrelation():
    cfg = SyntheticConfig(n_days=2000, seed=21, ar=ARCoeffs(1, 0.0, (0.8,)),
                          scale=SeasonalCoeffs(0.0, 0.0))
    series, truth = generate_synthetic(cfg)
    r = series.obs - truth.mu_seasonal
    rho1 = np.corrcoef(r[1:], r[:-1])[0, 1]
    assert rho1 == pytest.approx(0.8, abs=0.05)


def test_synthetic_same_seed_identical():
    a, ta = generate_synthetic(SyntheticConfig(n_days=100, seed=5))
    b, tb = generate_synthetic(SyntheticConfig(n_days=100, seed=5))
    assert np.array_equal(a.obs, b.obs)
    assert np.array_equal(a.members, b.members)
    assert np.array_equal(ta.mu, tb.mu)


def test_synthetic_seed_changes_draw_not_invariants():
    for seed in (1, 2, 3):
        series, truth = generate_synthetic(SyntheticConfig(n_days=150, seed=seed))
        assert series.is_complete()
        assert np.all(series.ens_sd > 0)
        assert np.all(np.diff(series.dates) == np.timedelta64(1, "D"))
        assert np.all(truth.sigma > 0)
    a, _ = generate_synthetic(SyntheticConfig(n_days=150, seed=1))
    b, _ = generate_synthetic(SyntheticConfig(n_days=150, seed=2))
    assert not np.array_equal(a.obs, b.obs)


def test_synthetic_truth_innovations_standard_normal():
    series, truth = generate_synthetic(SyntheticConfig(n_days=3000, seed=3,
                                                       standardized_ar=True))
    z = (series.obs - truth.mu) / truth.sigma
    assert abs(np.mean(z)) < 0.06
    assert np.std(z) == pytest.approx(1.0, abs=0.05)


def test_synthetic_nonstationary_rejected():
    with pytest.raises(InvalidConfig):
        generate_synthetic(SyntheticConfig(ar=ARCoeffs(1, 0.0, (1.05,))))
    with pytest.raises(InvalidConfig):
        generate_synthetic(SyntheticConfig(garch=GARCHCoeffs(0.1, 0.7, 0.3)))


@pytest.mark.parametrize("changes", [
    {"seed": -1}, {"ens_bias": np.nan}, {"ens_bias": np.inf}, {"ens_bias": -np.inf},
    {"ens_dispersion": np.nan}, {"ens_dispersion": np.inf},
], ids=["seed", "bias_nan", "bias_inf", "bias_minus_inf", "dispersion_nan", "dispersion_inf"])
def test_synthetic_config_rejects_negative_seed_and_non_finite_distortions(changes):
    with pytest.raises(InvalidConfig):
        SyntheticConfig(n_days=50, **changes).validate()


@pytest.mark.parametrize("members", [[1e308, 1.7e308], [-1.7e308, -1e308], [1e308, -1.7e308]])
def test_build_rejects_ensembles_whose_statistics_overflow(members):
    # every member is finite, but their mean or sd is not
    dates = np.datetime64("2015-01-01") + np.arange(2)
    with pytest.raises(InvalidEnsemble, match="^ensemble members, mean or sd not finite on 2015-01-02$"):
        StationSeries.build("X", 24, dates, [1.0, 2.0], [[1.0, 2.0], members])


@pytest.mark.parametrize("changes", [
    {"ens_bias": 1e308}, {"ens_bias": -1.7e308}, {"ens_dispersion": 1e308},
], ids=["bias", "minus_bias", "dispersion"])
def test_synthetic_draw_that_overflows_is_a_config_error(changes):
    with pytest.raises(InvalidConfig, match="ens_bias .* and ens_dispersion .* give a draw "
                                            "that is not finite"):
        generate_synthetic(SyntheticConfig(n_days=60, m=5, **changes))


def _simulate_ar(eta, tau, innovations):
    # the generator's AR loop before it ran on linear_recursion: AR(p) around
    # eta driven by the innovations, with the history before them at eta
    p = tau.size
    x = np.empty(innovations.size)
    for t in range(x.size):
        acc = eta
        for j in range(1, p + 1):
            past = x[t - j] if t - j >= 0 else eta
            acc += tau[j - 1] * (past - eta)
        x[t] = acc + innovations[t]
    return x


@pytest.mark.parametrize("world", [
    dict(standardized_ar=True),
    dict(),
    dict(garch=GARCHCoeffs(0.1, 0.55, 0.35)),
    dict(ar=ARCoeffs(0, 0.0, ())),
    dict(ar=ARCoeffs(1, 0.0, (-0.8,)), weather_ar=0.0),
])
def test_synthetic_ar_paths_are_the_plain_loop_to_the_bit(monkeypatch, world):
    # at p <= 1 and eta = 0 the kernel's AR paths are the loop's to the bit, so
    # every array the generator returns is too
    cfg = SyntheticConfig(n_days=400, m=5, seed=8, **world)
    series, truth = generate_synthetic(cfg)
    kernel = data.linear_recursion

    def loop(coeffs, drive):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim == 2:  # the GARCH variance, time-varying coefficients
            return kernel(coeffs, drive)
        return _simulate_ar(0.0, coeffs, drive)

    monkeypatch.setattr(data, "linear_recursion", loop)
    series_loop, truth_loop = generate_synthetic(cfg)
    assert np.array_equal(series.obs, series_loop.obs)
    assert np.array_equal(series.members, series_loop.members)
    for name in ("mu", "sigma", "mu_seasonal", "sigma_seasonal"):
        assert np.array_equal(getattr(truth, name), getattr(truth_loop, name)), name


@pytest.mark.parametrize("seed", range(1, 6))
def test_synthetic_garch_truth_follows_garch_path(seed):
    # sigma_G^2 = (sigma / sigma_S)^2 is the models' GARCH path run on the
    # generator's own innovations rho = (r - E[r | past]) / sigma_S
    g = GARCHCoeffs(0.1, 0.55, 0.35)
    series, truth = generate_synthetic(SyntheticConfig(seed=seed, garch=g))
    sig_g2 = np.square(truth.sigma / truth.sigma_seasonal)
    r = series.obs - truth.mu_seasonal
    rho = (r - (truth.mu - truth.mu_seasonal)) / truth.sigma_seasonal
    expected = garch_path((g.omega0, g.omega1, g.omega2), np.square(rho), sig_g2[0])
    np.testing.assert_allclose(sig_g2, expected, rtol=1e-12)


@pytest.mark.parametrize("garch", [GARCHCoeffs(0.1, 0.55, 0.35), GARCHCoeffs(0.1, 0.6, 0.3995),
                                   GARCHCoeffs(0.0, 0.55, 0.35)],
                         ids=["stationary", "persistence-0.9995", "omega0-zero"])
def test_synthetic_garch_draw_starts_at_garch_start(monkeypatch, garch):
    # the draw's variance path starts where the truth's and the models' do,
    # also above persistence 0.999, where garch_start floors 1 - omega1 - omega2
    drives = []
    kernel = data.linear_recursion

    def recording(coeffs, drive):
        if np.ndim(coeffs) == 2:  # the GARCH variance, time-varying coefficients
            drives.append(np.array(drive))
        return kernel(coeffs, drive)

    monkeypatch.setattr(data, "linear_recursion", recording)
    generate_synthetic(SyntheticConfig(n_days=40, m=3, seed=4, garch=garch))
    [drive] = drives
    assert drive[0] == garch_start((garch.omega0, garch.omega1, garch.omega2))


@pytest.mark.parametrize("world", [
    dict(standardized_ar=True),
    dict(standardized_ar=False),
    dict(standardized_ar=False, garch=GARCHCoeffs(0.1, 0.55, 0.35)),
], ids=["sar", "dar", "dar-garch"])
def test_synthetic_truth_mean_is_the_ar_on_errors_over_d(world):
    # one rule: x = (y - mu_S) / d with d = sigma_S for standardized errors
    # and 1 for mean errors; the truth mean is mu_S + d times x's one-step AR
    ar = ARCoeffs(2, 0.4, (0.5, -0.2))
    series, truth = generate_synthetic(SyntheticConfig(n_days=600, m=5, seed=21, ar=ar,
                                                       **world))
    d = truth.sigma_seasonal if world["standardized_ar"] else np.ones(series.n_days)
    x_hat = ar_teacher_forced(ar, (series.obs - truth.mu_seasonal) / d, ar.p)
    np.testing.assert_allclose(truth.mu[ar.p:], truth.mu_seasonal[ar.p:] + d[ar.p:] * x_hat,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("lead", [24, 72, 120])
@pytest.mark.parametrize("kind, world", [
    ("SAR-SEMOS", dict(standardized_ar=True)),
    ("DAR-SEMOS", dict()),
    ("DAR-GARCH-SEMOS", dict(garch=GARCHCoeffs(0.1, 0.55, 0.35))),
], ids=["sar", "dar", "dar-garch"])
def test_synthetic_truth_is_the_true_models_prediction_at_its_lead(kind, world, lead):
    # the truth of a cell is models.predict of the generating coefficients at
    # the cell's lead, once the GARCH start (models: first day; generator:
    # burn-in) has worn off
    cfg = SyntheticConfig(n_days=800, seed=5, lead_time_h=lead,
                          ar=ARCoeffs(2, 0.4, (0.5, -0.2)), **world)
    series, truth = generate_synthetic(cfg)
    true_model = models.FittedModel(
        kind=kind, loc=cfg.loc.as_vector(), scale=cfg.scale.as_vector(), ar=cfg.ar,
        garch=cfg.garch, meta={"origin": cfg.start_date, "lead_time_h": lead})
    mu, sigma = models.predict(true_model, series, series.dates[100:])
    np.testing.assert_allclose(mu, truth.mu[100:], rtol=1e-12, atol=0)
    np.testing.assert_allclose(sigma, truth.sigma[100:], rtol=1e-12, atol=0)


@pytest.mark.parametrize("lead", [0, -5])
def test_synthetic_config_rejects_leads_below_one_hour(lead):
    with pytest.raises(InvalidConfig, match=f"^lead time must be >= 1 h, got {lead} h$"):
        SyntheticConfig(lead_time_h=lead).validate()
    with pytest.raises(InvalidConfig):
        generate_synthetic(SyntheticConfig(n_days=50, lead_time_h=lead))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_synthetic_invariants_hold_for_any_seed(seed):
    series, _ = generate_synthetic(SyntheticConfig(n_days=60, m=6, seed=seed))
    assert series.is_complete()
    assert np.all(series.ens_sd > 0)


# ---------------------------------------------------------------------------
# time index and lead offsets
# ---------------------------------------------------------------------------


def test_time_index_runs_across_years():
    dates = np.datetime64("2015-12-30") + np.arange(5)
    t = time_index(dates, "2015-12-30")
    assert np.array_equal(t, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_lead_time_offsets():
    assert [lead_time_offset(h) for h in (24, 48, 72, 96, 120)] == [0, 1, 2, 3, 4]
    assert [lead_time_offset(h) for h in (1, 23, 25)] == [0, 0, 1]


@pytest.mark.parametrize("lead", [0, -24])
def test_lead_time_offset_rejects_leads_below_one_hour(lead):
    # a 0 h offset of -1 would let a forecast read the observation it predicts
    with pytest.raises(InvalidInput, match="lead time must be >= 1 h"):
        lead_time_offset(lead)
