"""Series ingestion, serialisation round trips and the constants registry."""

import math
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import renewcast as rc
from renewcast import corpus
from renewcast.errors import DataError, ModelError

MINIMAL = """\
# toy series
# technology: toy
# kind: installed_power
# unit: GW
2000,1.0
"""


def test_single_row_loads():
    s = rc.load_capacity_series(MINIMAL)
    assert len(s.samples) == 1
    assert s.samples[0] == (2000.0, 1.0)
    assert s.technology == "toy"
    assert s.provenance == "toy series"


def test_rows_sorted_by_year():
    text = "# kind: installed_power\n# unit: GW\n2001,5\n2000,3\n"
    s = rc.load_capacity_series(text)
    assert s.samples == ((2000.0, 3.0), (2001.0, 5.0))


def test_unordered_rows_keep_their_text():
    text = "# kind: installed_power\n# unit: GW\n2001,5\n2000,3.0\n2002,7\n"
    s = rc.load_capacity_series(text)
    assert s.samples == ((2000.0, 3.0), (2001.0, 5.0), (2002.0, 7.0))
    assert s.row_text == ("2000,3.0", "2001,5", "2002,7")


def test_made_series_holds_floats():
    s = rc.make_series("x", "installed_power", "GW", [(2001, 2), (2000, 1)])
    assert s.samples == ((2000.0, 1.0), (2001.0, 2.0))
    assert all(type(x) is float for sample in s.samples for x in sample)


@pytest.mark.parametrize("probe", [math.nan, math.inf, -math.inf, -0.0, 1e308, 5e-324])
@pytest.mark.parametrize("column", ["year", "value"])
def test_made_series_loads_back_from_its_dump(probe, column):
    # make_series refuses what load_capacity_series refuses in the rows
    # dump_series writes, so every series it returns loads back
    samples = [(2000.0, 1.0), (2001.0, 2.0), (2002.0, 4.0)]
    samples[1] = (probe, 2.0) if column == "year" else (2001.0, probe)
    rows = "".join(f"{y!r},{v!r}\n" for y, v in samples)
    try:
        series = rc.make_series("pv", "installed_power", "GW", samples)
    except DataError as made:
        with pytest.raises(DataError) as loaded:
            rc.load_capacity_series("# kind: installed_power\n# unit: GW\n" + rows)
        if not math.isfinite(probe):
            assert str(made) == f"series 'pv': non-finite sample {samples[1]!r}"
            assert str(loaded.value) == f"line 4: non-finite entry in {rows.split()[1]!r}"
        return
    loaded = rc.load_capacity_series(rc.dump_series(series))
    assert (loaded.years, loaded.values) == (series.years, series.values)
    assert rc.dump_series(loaded) == rc.dump_series(series)


def test_fractional_years_parse():
    text = "# kind: installed_power\n# unit: GW\n2020.5,1\n2021,2\n"
    s = rc.load_capacity_series(text)
    assert s.years == (2020.5, 2021.0)


@pytest.mark.parametrize("bad_value", ["0", "-3"])
def test_nonpositive_rejected_for_log_fit_series(bad_value):
    text = f"# kind: installed_power\n# unit: GW\n2000,1\n2001,{bad_value}\n"
    with pytest.raises(DataError, match=rf"^series 'unnamed': value {float(bad_value)!r} at 2001 "
                                        r"must be > 0$"):
        rc.load_capacity_series(text)


def test_generation_series_allows_zero():
    text = "# kind: annual_generation\n# unit: TWh_per_year\n2000,0\n2001,2\n"
    s = rc.load_capacity_series(text)
    assert s.values == (0.0, 2.0)


def test_duplicate_year_rejected():
    text = "# kind: installed_power\n# unit: GW\n2000,1\n2000,2\n"
    with pytest.raises(DataError, match=r"^series 'unnamed': year 2000 repeated$"):
        rc.load_capacity_series(text)


def test_empty_series_rejected():
    with pytest.raises(DataError, match=r"^series 'unnamed' has no data rows$"):
        rc.load_capacity_series("# kind: installed_power\n# unit: GW\n")


def test_unknown_quantity_kind():
    with pytest.raises(DataError, match=r"^unknown quantity kind 'capacity'$"):
        rc.make_series("x", "capacity", "GW", [(2000, 1.0)])


def test_unit_invalid_for_kind():
    text = "# kind: installed_power\n# unit: USD_per_MWh\n2000,1\n"
    with pytest.raises(DataError,
                       match=r"^unit 'USD_per_MWh' not valid for kind 'installed_power'$"):
        rc.load_capacity_series(text)


def test_malformed_row():
    with pytest.raises(DataError, match=r"^line 3: expected 'year,value', got '2000;1'$"):
        rc.load_capacity_series("# kind: installed_power\n# unit: GW\n2000;1\n")
    with pytest.raises(DataError, match=r"^line 4: comment after data rows$"):
        rc.load_capacity_series(
            "# kind: installed_power\n# unit: GW\n2000,1\n# late comment\n2001,2\n")


def _reference_load(source):
    """The per-line loader and per-sample checks that load_capacity_series
    replaced by column-wise ones; the bulk loader must agree with it."""
    header, rows, row_text = [], [], []
    meta = {"technology": "", "kind": "", "unit": ""}
    in_header = True
    for n, line in enumerate(source.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if not in_header:
                raise DataError(f"line {n}: comment after data rows")
            header.append(line)
            body = line[1:].strip()
            for key in meta:
                prefix = f"{key}:"
                if body.startswith(prefix):
                    meta[key] = body[len(prefix):].strip()
            continue
        in_header = False
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"line {n}: expected 'year,value', got {line!r}")
        try:
            year = float(parts[0])
            value = float(parts[1])
        except ValueError as exc:
            raise DataError(f"line {n}: {exc}") from None
        if not (math.isfinite(year) and math.isfinite(value)):
            raise DataError(f"line {n}: non-finite entry in {line!r}")
        rows.append((year, value))
        row_text.append(line)
    provenance = " ".join(
        l[1:].strip() for l in header
        if not any(l[1:].strip().startswith(f"{k}:") for k in meta))
    technology, kind, unit = meta["technology"] or "unnamed", meta["kind"], meta["unit"]

    if kind not in corpus._KIND_UNITS:
        raise DataError(f"unknown quantity kind {kind!r}")
    if unit not in corpus._KIND_UNITS[kind]:
        raise DataError(f"unit {unit!r} not valid for kind {kind!r}")
    if not rows:
        raise DataError(f"series {technology!r} has no data rows")
    order = sorted(range(len(rows)), key=lambda i: rows[i][0])
    rows, row_text = [rows[i] for i in order], [row_text[i] for i in order]
    for (y0, _), (y1, _) in zip(rows, rows[1:]):
        if y1 == y0:
            raise DataError(f"series {technology!r}: year {y0:g} repeated")
    strict = kind in corpus._LOG_FIT_KINDS
    for y, v in rows:
        if v < 0 or strict and v == 0:
            raise DataError(f"series {technology!r}: value {v!r} at {y:g} "
                            f"must be {'>' if strict else '>='} 0")
    return corpus.CapacitySeries(technology, kind, unit, tuple(y for y, _ in rows),
                                 tuple(v for _, v in rows), provenance, tuple(header),
                                 tuple(row_text))


_BLANK = st.sampled_from(["", " ", "\t ", "  \t"])
_SCHEMA = st.sampled_from([("installed_power", "GW"), ("annual_generation", "TWh_per_year"),
                           ("unit_cost", "USD_per_MWh"), ("unit_cost", "furlongs")])
_YEAR = st.one_of(st.integers(1950, 2050).map(str),
                  st.sampled_from(["2000", "2000.5", "2e3", " 2001 "]))
_VALUE = st.one_of(
    st.sampled_from(["1", "0", "0.0", "-3", "1e308", "1.7e308", "-1e308", "5e-324", "1_000"]),
    st.floats(min_value=-1.0, max_value=1e308).map(repr))
_ROW = st.tuples(_YEAR, _VALUE).map(",".join)
_BAD_LINE = st.one_of(
    _YEAR,                                                  # one field
    st.tuples(_YEAR, _VALUE, _VALUE).map(",".join),         # three fields
    st.tuples(_YEAR, st.sampled_from(["nan", "inf", "-inf", "abc", "", "1;2"])).map(",".join),
    st.tuples(st.sampled_from(["nan", "-inf", "x"]), _VALUE).map(",".join),
    st.sampled_from(["# a comment after the data", " # indented comment", "2000;1"]))


# header lines that are almost directives (a space before the colon, a
# capital, no space after '#', a second colon, no colon) and a repeated one
_NEAR_MISS = st.sampled_from(["# unit : GW", "# Unit: GW", "#kind:installed_power",
                              "# technology:a:b", "# technology", "# technology: again"])


@st.composite
def _series_texts(draw):
    """Series files: a header with directives, provenance and blank lines, then
    rows (unsorted, duplicate years, values <= 0 or near the float maximum)
    with blank lines between them, and at times bad lines among the rows."""
    kind, unit = draw(_SCHEMA)
    header = ["# technology: toy", f"# kind: {kind}", f"# unit: {unit}"]
    header += draw(st.lists(st.one_of(_BLANK, st.just("# a provenance note"), _NEAR_MISS),
                            max_size=3))
    rows = draw(st.lists(st.one_of(_ROW, _ROW, _ROW, _BLANK), max_size=12))
    if draw(st.integers(0, 2)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(_BAD_LINE))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    lines = draw(st.permutations(header)) + rows
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@settings(max_examples=800, deadline=None, derandomize=True)
@given(text=_series_texts())
@example(text="# kind: installed_power\n# unit: GW\n2000,1,2\n2001\n")
@example(text="# kind: installed_power\n# unit: GW\n2000,1.7e308\n2001,1.7e308\n")
@example(text="# kind: unit_cost\r\n# unit: USD_per_MWh\r\n\r\n2001,3\r\n \r\n2000,4\r\n")
@example(text="# kind: annual_generation\n# unit: TWh_per_year\n2000,0\n2000,nan\n")
def test_bulk_loader_equals_per_line_loader(text):
    try:
        want = _reference_load(text)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            rc.load_capacity_series(text)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert rc.load_capacity_series(text) == want


def test_round_trip_is_byte_identical_modulo_order():
    sorted_text = MINIMAL
    assert rc.dump_series(rc.load_capacity_series(sorted_text)) == sorted_text

    shuffled = "# kind: installed_power\n# unit: GW\n2001,5\n2000,3\n"
    normalized = "# kind: installed_power\n# unit: GW\n2000,3\n2001,5\n"
    assert rc.dump_series(rc.load_capacity_series(shuffled)) == normalized


def test_round_trip_all_bundled_files():
    for name in ("pv", "wind", "offshore_wind", "hydro", "pv_lcoe",
                 "wind_lcoe", "battery"):
        text = corpus.read_dataset(name)
        assert rc.dump_series(rc.load_capacity_series(text)) == text


def test_bundled_pv_is_cumulative_and_recent(pv_series):
    values = pv_series.values
    assert all(b > a for a, b in zip(values, values[1:]))
    assert pv_series.last_year >= 2019
    assert pv_series.unit == "GW"
    assert pv_series.quantity_kind == "installed_power"


@pytest.mark.parametrize("name", sorted(corpus.SERIES_SCHEMAS))
def test_bundled_series_load_with_their_schema(name):
    series = corpus.load_series(name)
    assert (series.quantity_kind, series.unit) == corpus.SERIES_SCHEMAS[name]
    assert series.samples


def test_series_declaring_another_unit_is_rejected(tmp_path):
    fname = corpus.BUNDLED_DATASETS["wind_lcoe"]
    text = corpus.read_dataset("wind_lcoe")
    (tmp_path / fname).write_text(text.replace("# unit: USD_per_MWh", "# unit: USD_per_kWh"),
                                  encoding="utf-8")
    with pytest.raises(DataError, match=r"declares unit_cost/USD_per_kWh, "
                                        r"not unit_cost/USD_per_MWh$") as excinfo:
        corpus.load_series("wind_lcoe", tmp_path)
    assert fname in str(excinfo.value)


def test_unknown_dataset_name():
    with pytest.raises(DataError, match=r"^no bundled dataset 'nope'; known: "):
        corpus.load_bundled("nope")


def test_every_bundled_dataset_is_a_plain_file():
    # read_dataset opens these paths directly, so the package must ship them
    # as files beside its modules
    for name in corpus.BUNDLED_DATASETS:
        assert os.path.isfile(corpus.bundled_path(name)), name


def test_the_package_ships_only_its_listed_datasets():
    # every bundled dataset is a series; fixed numbers live in the registry
    assert corpus.BUNDLED_DATASETS.keys() == corpus.SERIES_SCHEMAS.keys()
    data_dir = os.path.dirname(corpus.bundled_path("pv"))
    assert sorted(os.listdir(data_dir)) == sorted(corpus.BUNDLED_DATASETS.values())


# -- constants registry ------------------------------------------------------

# Checked-in citation table: every registered input constant with its value
# and unit, enumerated against the registry.
CORE_CONSTANTS = {
    "electric_demand_2030": (35000.0, "TWh_per_year"),
    "primary_demand_2030": (186000.0, "TWh_per_year"),
    "reduced_primary_2030": (106950.0, "TWh_per_year"),
    "electric_threshold_fig5": (33000.0, "TWh_per_year"),
    "primary_threshold_fig5": (198000.0, "TWh_per_year"),
    "efficiency_reduction": (0.425, "fraction"),
    "cf_pv": (0.256, "fraction"),
    "cf_wind": (0.354, "fraction"),
    "cf_hydro": (0.43, "fraction"),
    "pv_density": (42.8, "MW_per_km2"),
    "desert_area": (34.93e6, "km2"),
    "onshore_wind_potential": (690000.0, "TWh_per_year"),
    "offshore_20m": (41200.0, "TWh_per_year"),
    "offshore_50m": (92500.0, "TWh_per_year"),
    "offshore_200m": (192000.0, "TWh_per_year"),
    "offshore_1000m": (301085.0, "TWh_per_year"),
    "offshore_area_20m": (2.75, "million_km2"),
    "offshore_area_50m": (6.2, "million_km2"),
    "offshore_area_200m": (12.8, "million_km2"),
    "offshore_area_1000m": (20.07, "million_km2"),
    "wind_total_potential_as_stated": (301775.0, "TWh_per_year"),
    "hours_per_year": (8760.0, "h"),
    "swanson_learning_rate": (0.20, "fraction_per_doubling"),
    "stated_pv_area_electric_km2": (357667.0, "km2"),
    "stated_pv_area_primary_km2": (2.015e6, "km2"),
    "stated_desert_fraction_electric": (0.0121, "fraction"),
    "stated_desert_fraction_primary": (0.0683, "fraction"),
    "stated_desert_fraction_reduced": (0.0393, "fraction"),
    "stated_wind_fraction_electric": (0.1159, "fraction"),
    "stated_wind_fraction_primary": (0.6163, "fraction"),
    "stated_wind_fraction_reduced": (0.3544, "fraction"),
    "stated_onshore_times_primary": (3.7, "ratio"),
    "stated_onshore_times_electric": (19.9, "ratio"),
    "stated_offshore50_times_electric": (2.64, "ratio"),
    "stated_offshore1000_times_primary": (1.6, "ratio"),
    "stated_battery_cost_2030": (10.0, "USD_per_kWh"),
    "stated_offshore_1tw_year": (2032.0, "year"),
    "stated_mix_2025_pv": (15000.0, "TWh_per_year"),
    "stated_mix_2025_wind": (11700.0, "TWh_per_year"),
    "stated_mix_2025_hydro": (6300.0, "TWh_per_year"),
    "stated_mix_2025_total": (33000.0, "TWh_per_year"),
    "stated_mix_2030_pv": (75500.0, "TWh_per_year"),
    "stated_mix_2030_wind": (31100.0, "TWh_per_year"),
    "stated_mix_2030_hydro": (6500.0, "TWh_per_year"),
    "hydro_developed_potential_as_stated": (6.5, "TWh_per_year"),
    "hydro_exploitable_potential_as_stated": (10.5, "TWh_per_year"),
    "stated_year_wind_pv_electric": (2026.0, "year"),
    "stated_year_three_tech_electric": (2025.0, "year"),
    "stated_year_three_tech_reduced_primary": (2030.0, "year"),
    "stated_year_pv_alone_electric": (2027.0, "year"),
    "stated_year_pv_alone_electric_alt": (2032.0, "year"),
    "stated_year_pv_alone_primary": (2036.5, "year"),
    "stated_year_pv_overtakes_wind": (2024.0, "year"),
    "stated_lcoe_floor": (1.0, "USD_per_MWh"),
    "stated_pv_cost_ceiling_2030": (10.0, "USD_per_MWh"),
}


def test_registry_matches_citation_table():
    assert set(corpus._CONSTANTS) == set(CORE_CONSTANTS)
    for name, (value, unit) in CORE_CONSTANTS.items():
        c = rc.get_constant(name)
        assert c.value == value, name
        assert c.unit == unit, name
        assert c.citation.strip(), f"{name} lacks a citation"


def test_get_constant_examples():
    assert rc.get_constant("cf_pv").value == 0.256
    assert rc.get_constant("desert_area").value == 34.93e6
    assert rc.get_constant("efficiency_reduction").value == 0.425


def test_unknown_constant():
    with pytest.raises(DataError, match=r"^no constant named 'flux_capacitance'$"):
        rc.get_constant("flux_capacitance")


def test_registry_is_read_only():
    c = rc.get_constant("cf_pv")
    with pytest.raises(AttributeError):
        c.value = 1.0  # NamedTuple fields are immutable


# -- reduced primary demand --------------------------------------------------

def test_reduced_primary_registered_value_exact():
    assert corpus.reduced_primary(186000.0) == 106950.0


def test_reduced_primary_examples():
    assert corpus.reduced_primary(0.0) == 0.0
    assert corpus.reduced_primary(1000.0) == 575.0


def test_reduced_primary_rejects_negative():
    with pytest.raises(ModelError, match=r"^demand must be >= 0, got -1\.0$"):
        corpus.reduced_primary(-1.0)


def test_reduced_primary_is_linear():
    rng = random.Random(20210610)
    for _ in range(200):
        a, b = rng.uniform(0.0, 1e6), rng.uniform(0.0, 1e6)
        lhs = corpus.reduced_primary(a + b)
        rhs = corpus.reduced_primary(a) + corpus.reduced_primary(b)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)
