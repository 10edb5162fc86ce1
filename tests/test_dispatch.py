"""Dispatch invariants: priority prefixes, proportional state of charge, balance.

The fixed charge/discharge proportions are the load-bearing design choice: they
guarantee every unit reaches its floor (or its cap) at the same cumulative
energy mark, so the fleet behaves like one aggregate battery. Most tests here
drive the simulator with hand-built series where the expected hourly outcome
can be worked out on paper.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storeplan.config import HOURS_PER_YEAR, FacilityClass, HourlySeries
from storeplan.dispatch import OutageDispatcher, StorageFleet
from storeplan.renewables import RenewableParams
from storeplan.rng import stream
from storeplan.simulate import row_sums

from reference import proportions

NO_RENEWABLES = RenewableParams(
    eta_solar=0.15, cell_area_m2=1.0, cells_per_panel=1, panels=1,
    eta_wind=0.4, air_density=1.225, rotor_area_m2=1.0, turbines=1,
    cut_in_ms=3.0, cut_out_ms=22.0)


def flat_series(value, kind):
    return HourlySeries(values=np.full(HOURS_PER_YEAR, float(value)), kind=kind)


def single_class(load_kwh, voll=10.0):
    fac = FacilityClass(name="clinic", count=1, voll=voll, critical_factor=1.0,
                        priority_rank=1, profile="clinic")
    return (fac,), {"clinic": flat_series(load_kwh, "demand")}


def make_dispatcher(facilities, profiles, years=1, growth=0.0):
    return OutageDispatcher(
        facilities, profiles, irradiance=flat_series(0.0, "irradiance"),
        wind=flat_series(0.0, "wind"), renewables=NO_RENEWABLES,
        growth_rate=growth, horizon_hours=years * HOURS_PER_YEAR)


def scalar_serve(disp, level, s_d, s_c, start_hour, duration_hours):
    """The dispatch recurrence for one outage in plain Python floats.

    The oracle for `OutageDispatcher.serve`: returns the level left, the
    energy lost per class and the classes served in each hour.
    """
    renewable = disp._renewable.tolist()
    critical = disp._critical.tolist()
    growth = disp._growth.tolist()
    refill = s_d / s_c if s_c > 0 else 0.0
    lost = [0.0] * len(critical)
    depths = []
    for t in range(start_hour, start_hour + duration_hours):
        h = t % HOURS_PER_YEAR
        factor = growth[t // HOURS_PER_YEAR]
        ren = renewable[h]
        budget = ren + level + 1e-9
        demand_total = 0.0
        depth = 0
        for g, base in enumerate(critical):
            d = base[h] * factor
            if depth == g and demand_total + d <= budget:
                demand_total += d
                depth = g + 1
            else:
                lost[g] += d
        depths.append(depth)
        if demand_total >= ren:
            level -= demand_total - ren
            if level < 0.0:
                level = 0.0
        else:
            level += (ren - demand_total) * refill
            if level > s_d:
                level = s_d
    return level, lost, depths


@st.composite
def outage_lanes(draw, horizon_hours):
    """(level, S_d, S_c, start, duration) of one lane: empty, full or
    part-charged stores, on outages anywhere, across a year boundary or
    ending at the horizon."""
    duration = draw(st.integers(1, 60))
    where = draw(st.sampled_from(["anywhere", "year boundary", "horizon"]))
    if where == "anywhere":
        start = draw(st.integers(0, horizon_hours - duration))
    elif where == "year boundary":
        years = horizon_hours // HOURS_PER_YEAR
        start = (draw(st.integers(1, years - 1)) * HOURS_PER_YEAR
                 - draw(st.integers(1, duration)))
    else:
        start = horizon_hours - duration
    s_d = draw(st.sampled_from([0.0, 300.0, 1282.0, 20_000.0])
               | st.floats(1.0, 40_000.0))
    s_c = s_d / draw(st.floats(0.5, 1.0))
    level = s_d * draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return level, s_d, s_c, start, duration


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_serve_equals_the_scalar_oracle(case_context, data):
    """Every lane of one `serve` call is what the scalar recurrence gives for
    that outage alone, bit for bit, whatever the other lanes hold."""
    disp = case_context.dispatcher
    lanes = data.draw(st.lists(outage_lanes(disp.horizon_hours),
                               max_size=12))
    columns = [list(c) for c in zip(*lanes)] or [[]] * 5
    left, lost = disp.serve(*columns)
    assert lost.shape == (len(lanes), len(disp.facilities))
    for i, lane in enumerate(lanes):
        level, lost_row, _ = scalar_serve(disp, *lane)
        assert left[i] == level
        assert lost[i].tolist() == lost_row


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_simulate_serves_what_the_scalar_oracle_serves(case_context, data):
    """`simulate`, stepping `serve` an hour at a time, serves each hour the
    classes the scalar recurrence serves, loses what it loses, and leaves
    the store where it leaves it, for full, empty and part-charged fleets
    of one to four units."""
    disp = case_context.dispatcher
    units = data.draw(st.integers(1, 4))
    unit = st.tuples(st.sampled_from([0.0, 300.0, 1000.0, 9000.0]),
                     st.floats(0.4, 1.0), st.floats(0.6, 0.98),
                     st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    caps, dod, eff, fill = map(np.array, zip(*data.draw(
        st.lists(unit, min_size=units, max_size=units))))
    floor = caps * (1.0 - dod)
    fleet = StorageFleet(capacity=caps, dod=dod, efficiency=eff,
                         charge=floor + fill.min() * (caps - floor))
    duration = data.draw(st.integers(1, 60))
    start = data.draw(st.integers(0, disp.horizon_hours - duration))
    res = disp.simulate(fleet, start, duration)
    s_d, s_c = fleet.energy()
    active = caps > 0
    share = (float(((fleet.charge - floor)[active] / (caps - floor)[active])
                   .min()) if active.any() else 0.0)
    level, lost_row, depths = scalar_serve(disp, share * s_d, s_d, s_c,
                                           start, duration)
    n_fac = len(disp.facilities)
    assert res.served.tolist() == [[g < depth for g in range(n_fac)]
                                   for depth in depths]
    assert row_sums(res.lost_kwh.T).tolist() == lost_row
    assert np.array_equal(res.final_charge, floor + (
        level / s_d if s_d > 0 else 0.0) * (caps - floor))


def test_serve_rejects_any_lane_past_the_horizon():
    facilities, profiles = single_class(100.0)
    disp = make_dispatcher(facilities, profiles)
    with pytest.raises(ValueError, match="horizon"):
        disp.serve([300.0, 300.0], [300.0, 300.0], [300.0, 300.0],
                   [0, HOURS_PER_YEAR - 2], [5, 3])


def test_single_unit_serves_until_usable_energy_runs_out():
    # 300 kWh at 90% depth holds 270 usable; 100 kWh/h lasts exactly 2 hours
    facilities, profiles = single_class(100.0)
    disp = make_dispatcher(facilities, profiles)
    fleet = StorageFleet.full([300.0], [0.9], [1.0])
    res = disp.simulate(fleet, start_hour=0, duration_hours=5)
    assert res.served[:, 0].tolist() == [True, True, False, False, False]
    assert res.lost_kwh[:, 0].tolist() == [0.0, 0.0, 100.0, 100.0, 100.0]
    assert res.final_charge[0] == pytest.approx(100.0)


def test_discharge_efficiency_scales_delivered_energy():
    # at 50% round-trip efficiency the same stored energy serves half as long
    facilities, profiles = single_class(100.0)
    disp = make_dispatcher(facilities, profiles)
    fleet = StorageFleet.full([300.0], [0.9], [0.5])
    res = disp.simulate(fleet, start_hour=0, duration_hours=3)
    # usable 270 * 0.5 = 135 delivered; one full hour then failure
    assert res.served[:, 0].tolist() == [True, False, False]


def test_priority_prefix_never_skips_a_higher_class():
    fac_a = FacilityClass(name="a", count=1, voll=25.0, critical_factor=1.0,
                          priority_rank=1, profile="a")
    fac_b = FacilityClass(name="b", count=1, voll=17.0, critical_factor=1.0,
                          priority_rank=2, profile="b")
    fac_c = FacilityClass(name="c", count=1, voll=1.3, critical_factor=1.0,
                          priority_rank=3, profile="c")
    profiles = {"a": flat_series(60.0, "demand"),
                "b": flat_series(50.0, "demand"),
                "c": flat_series(40.0, "demand")}
    disp = make_dispatcher((fac_b, fac_c, fac_a), profiles)
    fleet = StorageFleet.full([400.0], [1.0], [1.0])
    res = disp.simulate(fleet, start_hour=0, duration_hours=4)
    for row in res.served:
        # served pattern must be a prefix of the priority ordering
        assert all(row[i] or not row[i + 1] for i in range(len(row) - 1))
    # budget 400: hours 0-1 serve everyone (150/h); at hour 2 only 100 is
    # left, so a (60) fits but b (would make 110) and c are dropped
    assert res.served[0].tolist() == [True, True, True]
    assert res.served[2].tolist() == [True, False, False]
    assert res.served[3].tolist() == [False, False, False]


def test_all_or_nothing_leaves_budget_unused():
    # 90 kWh left cannot partially serve the 100 kWh class
    facilities, profiles = single_class(100.0)
    disp = make_dispatcher(facilities, profiles)
    fleet = StorageFleet.full([90.0], [1.0], [1.0])
    res = disp.simulate(fleet, start_hour=0, duration_hours=1)
    assert not res.served[0, 0]
    assert res.final_charge[0] == pytest.approx(90.0)


def test_proportions_split_examples():
    # usable [270, 500]; charge weights usable/e = [300, 625],
    # discharge weights usable*e = [243, 400]
    fleet = StorageFleet.full([300.0, 1000.0], [0.9, 0.5], [0.9, 0.8])
    p_c, p_d = proportions(fleet)
    assert p_c[0] == pytest.approx(300 / 925, rel=1e-12)
    assert p_d[0] == pytest.approx(243 / 643, rel=1e-12)
    assert p_c.sum() == pytest.approx(1.0)
    assert p_d.sum() == pytest.approx(1.0)


def test_proportions_ignore_empty_units():
    fleet = StorageFleet.full([300.0, 0.0], [0.9, 0.5], [0.9, 0.8])
    p_c, p_d = proportions(fleet)
    assert p_c.tolist() == [1.0, 0.0]
    assert p_d.tolist() == [1.0, 0.0]


def test_proportions_require_some_capacity():
    with pytest.raises(ValueError):
        proportions(StorageFleet.full([0.0, 0.0], [0.9, 0.5], [0.9, 0.8]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), units=st.integers(1, 4))
def test_simultaneous_depletion(seed, units):
    """When one unit hits its floor, all of them are at their floor together."""
    rng = stream(seed, "depletion")
    caps = rng.choice([300.0, 1000.0, 3000.0], size=units)
    dod = rng.uniform(0.4, 0.95, size=units)
    eff = rng.uniform(0.6, 0.95, size=units)
    load = 120.0
    facilities, profiles = single_class(load)
    disp = make_dispatcher(facilities, profiles)
    fleet = StorageFleet.full(caps, dod, eff)
    res = disp.simulate(fleet, start_hour=0, duration_hours=500)
    floors = fleet.min_level
    gaps = res.final_charge - floors
    # one hour's fleet-wide drain bounds how far any unit can sit above floor
    p_c, p_d = proportions(fleet)
    slack = (p_d / eff) * load
    assert np.all(gaps >= -1e-9)
    assert np.all(gaps <= slack + 1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), units=st.integers(1, 4))
def test_simultaneous_fill(seed, units):
    """Charging from the floor, every unit tops out within one hour's share."""
    rng = stream(seed, "fill")
    caps = rng.choice([300.0, 1000.0, 3000.0], size=units)
    dod = rng.uniform(0.4, 0.95, size=units)
    eff = rng.uniform(0.6, 0.95, size=units)
    facilities, profiles = single_class(0.0)
    windy = RenewableParams(
        eta_solar=0.15, cell_area_m2=1.0, cells_per_panel=1, panels=1,
        eta_wind=0.4, air_density=1.225, rotor_area_m2=20.0, turbines=100,
        cut_in_ms=3.0, cut_out_ms=22.0)
    disp = OutageDispatcher(
        facilities, profiles, irradiance=flat_series(0.0, "irradiance"),
        wind=flat_series(10.0, "wind"), renewables=windy,
        growth_rate=0.0, horizon_hours=HOURS_PER_YEAR)
    fleet = StorageFleet(capacity=np.asarray(caps),
                         dod=np.asarray(dod), efficiency=np.asarray(eff),
                         charge=np.asarray(caps) * (1 - np.asarray(dod)))
    res = disp.simulate(fleet, start_hour=0, duration_hours=2_000)
    p_c, _ = proportions(fleet)
    surplus = 0.5 * 0.4 * 1.225 * 20.0 * 100 * 10.0 ** 3 / 1000.0  # 490 kW
    slack = p_c * eff * surplus
    gaps = fleet.capacity - res.final_charge
    assert np.all(gaps >= -1e-9)
    assert np.all(gaps <= slack + 1e-9)


def test_input_fleet_is_not_mutated():
    facilities, profiles = single_class(100.0)
    disp = make_dispatcher(facilities, profiles)
    fleet = StorageFleet.full([300.0], [0.9], [1.0])
    disp.simulate(fleet, start_hour=0, duration_hours=5)
    assert fleet.charge[0] == 300.0


def test_renewable_surplus_recharges_fleet():
    facilities, profiles = single_class(0.0)
    disp = OutageDispatcher(
        facilities, profiles, irradiance=flat_series(0.0, "irradiance"),
        wind=flat_series(10.0, "wind"), renewables=NO_RENEWABLES,
        growth_rate=0.0, horizon_hours=HOURS_PER_YEAR)
    fleet = StorageFleet(capacity=np.array([300.0]), dod=np.array([0.9]),
                         efficiency=np.array([1.0]), charge=np.array([30.0]))
    # one turbine at 10 m/s contributes 0.245 kW, so the 270 kWh refill
    # takes about 1100 hours; 2000 reaches the cap with margin
    res = disp.simulate(fleet, start_hour=0, duration_hours=2_000)
    assert res.final_charge[0] == pytest.approx(300.0)


def test_surplus_charges_at_efficiency():
    # one turbine at 10 m/s gives 0.245 kW with nothing to serve; each hour
    # stores eff * 0.245 kWh, so ten hours lift 30 kWh to 31.96
    facilities, profiles = single_class(0.0)
    disp = OutageDispatcher(
        facilities, profiles, irradiance=flat_series(0.0, "irradiance"),
        wind=flat_series(10.0, "wind"), renewables=NO_RENEWABLES,
        growth_rate=0.0, horizon_hours=HOURS_PER_YEAR)
    fleet = StorageFleet(capacity=np.array([300.0]), dod=np.array([0.9]),
                         efficiency=np.array([0.8]), charge=np.array([30.0]))
    res = disp.simulate(fleet, start_hour=0, duration_hours=10)
    assert res.final_charge[0] == pytest.approx(30.0 + 0.8 * 0.245 * 10,
                                                rel=1e-12)


def test_demand_growth_compounds_by_year():
    # an empty fleet loses the whole critical load of each outage hour
    facilities, profiles = single_class(100.0)
    disp = make_dispatcher(facilities, profiles, years=3, growth=0.10)
    empty = StorageFleet.full([0.0], [0.9], [1.0])
    lost = [disp.simulate(empty, year * HOURS_PER_YEAR, 1).lost_kwh[0, 0]
            for year in range(3)]
    assert lost == pytest.approx([100.0, 110.0, 121.0])


def test_outage_must_fit_horizon():
    facilities, profiles = single_class(100.0)
    disp = make_dispatcher(facilities, profiles)
    fleet = StorageFleet.full([300.0], [0.9], [1.0])
    with pytest.raises(ValueError):
        disp.simulate(fleet, start_hour=HOURS_PER_YEAR - 2, duration_hours=5)


def test_fleet_acts_as_one_store(case_context):
    """Only S_d = sum(cap*dod*eff) and S_c = sum(cap*dod/eff) reach the load.

    A random fleet and the one unit with the same two figures lose the same
    load on the same outage, through discharge and renewable recharge alike;
    the surrogate's features rest on this.
    """
    rng = stream(5, "dispatch:one-store")
    disp = case_context.dispatcher
    for _ in range(60):
        units = int(rng.integers(2, 5))
        caps = rng.choice([300.0, 1000.0, 3000.0, 9000.0], size=units)
        dod = rng.uniform(0.4, 1.0, size=units)
        eff = rng.uniform(0.6, 0.98, size=units)
        s_d = float((caps * dod * eff).sum())
        s_c = float((caps * dod / eff).sum())
        one = StorageFleet.full([np.sqrt(s_d * s_c)], [1.0],
                                [np.sqrt(s_d / s_c)])
        start = int(rng.integers(0, disp.horizon_hours - 200))
        duration = int(rng.integers(1, 200))
        fleet = disp.simulate(StorageFleet.full(caps, dod, eff), start,
                              duration)
        single = disp.simulate(one, start, duration)
        assert np.array_equal(fleet.served, single.served)
        assert np.array_equal(fleet.lost_kwh, single.lost_kwh)
