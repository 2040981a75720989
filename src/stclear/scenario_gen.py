"""Scenario construction: model restrictions (quasi-steady-state, single
snapshot) and a deterministic desk-scale waste-to-energy case.

The generated market couples dairy-style waste farms to a statewide
electricity hub: farms supply waste at a tipping fee, a subset of farms carry
a digester technology (waste -> electricity) plus hour-to-hour waste storage,
spatial arcs truck waste from unequipped farms to processors and wheel
electricity from processors to the hub, and three conventional generator
fleets bid quadratic marginal-price curves discretized into fixed-size blocks
at the hub.  Dollar magnitudes are desk-scale stand-ins (the underlying farm
dataset is not public); the qualitative price/storage dynamics are the point.
All draws come from one seeded generator, so equal seeds give byte-identical
instances and variants differ only by their switch.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .market_model import (
    Consumer,
    MarketInstance,
    Supplier,
    TechnologyProvider,
    Table,
    TransportProvider,
)
from .stgraph import TimeGrid, graph_of

# electricity side; of the price anchors, 0.05 / 0.18 USD per kWh off- and
# on-peak, only the on-peak one enters the case
ON_PEAK_USD_PER_MWH = 180.0
PEAK_OFF_RATIO = 1.897  # demand at the daily peak over demand at the trough
GENERATOR_BETAS = (1.66e-5, 8.31e-6, 4.15e-5)  # USD/MWh per MW^2
BLOCK_SIZE_MW = 100.0
ANNUAL_DEMAND_TWH = 68.8
DEMAND_BID_FACTOR = 10.0  # willingness to pay, x on-peak anchor
# demand peak placed so the daily processing window sits inside the day and
# ends at hour 23; a window straddling midnight would be truncated by the
# horizon cut and sag end-of-horizon prices
PEAK_HOUR = 19.75
ELEC_TRANSPORT_USD_PER_MWH_KM = 7.5e-6
HOURS_PER_YEAR = 8766.0  # 365.25 days
# waste side (desk-scale stand-ins)
WASTE_RATE_TONNE_PER_H = 6.0  # per farm before heterogeneity
WASTE_BID = -2.0  # tipping fee
DIGESTER_YIELD_MWH_PER_TONNE = 0.07
TECH_BID = 0.05  # USD per tonne processed
STORAGE_BID = 0.02  # USD per tonne per hour step
STORAGE_INFLOW_HOURS = 12.0  # storage holds this many hours of mean processor inflow
DIGESTER_INFLOW_RATIO = 3.2  # digester capacity over mean processor inflow
WASTE_TRANSPORT_USD_PER_TONNE_KM = 0.10
REGION_KM = 60.0  # farms scattered over a square this wide


class InvalidParams(ValueError):
    pass


class Variant(Enum):
    BASE = "base"
    NO_STORAGE = "nostorage"
    UNLIMITED_STORAGE = "unlimited"
    TRIPLE_WASTE = "triple"


@dataclass(frozen=True)
class CaseParams:
    """The five knobs of the waste case, those of `stclear generate`; every
    other value is a module constant, recorded in the instance metadata."""

    farms: int = 8
    processors: int = 4
    horizon: int = 24
    seed: int = 7
    variant: Variant = Variant.BASE

    def __post_init__(self):
        if self.farms < 1 or self.processors < 1:
            raise InvalidParams("farm and processor counts must be >= 1")
        if self.processors > self.farms:
            raise InvalidParams("processors cannot exceed farms")
        if self.horizon < 1:
            raise InvalidParams("horizon must be >= 1")
        if self.seed < 0:
            raise InvalidParams("seed must be >= 0")


def build_demand_curve(horizon: int) -> tuple[float, ...]:
    """Hourly electricity demand (MWh), periodic over 24h: a diurnal sinusoid
    scaled to the annual energy total; the swing between trough and peak is
    set by the peak/off ratio so the conventional fleets clear near the price
    anchors."""
    mean = ANNUAL_DEMAND_TWH * 1e6 / HOURS_PER_YEAR
    r = PEAK_OFF_RATIO
    swing = (r - 1.0) / (r + 1.0)
    return tuple(
        mean * (1.0 + swing * math.cos(2.0 * math.pi * ((t % 24) - PEAK_HOUR) / 24.0))
        for t in range(horizon)
    )


def fleet_block_counts() -> tuple[int, ...]:
    """Blocks per fleet, enough to cover peak demand with headroom: the last
    block prices at 1.5x the on-peak anchor."""
    price_cap = 1.5 * ON_PEAK_USD_PER_MWH
    return tuple(
        int(math.ceil(math.sqrt(price_cap / beta) / BLOCK_SIZE_MW)) for beta in GENERATOR_BETAS
    )


def generate_waste_case(params: CaseParams) -> MarketInstance:
    rng = np.random.default_rng(params.seed)
    # all randomness drawn up front, independent of the variant switch
    coords = rng.uniform(0.0, REGION_KM, size=(params.farms, 2))
    rate_mult = rng.uniform(0.6, 1.4, size=params.farms)

    farm_ids = [f"farm{i:03d}" for i in range(params.farms)]
    processors = farm_ids[: params.processors]
    hub = "hub"
    nodes = [hub] + farm_ids
    hub_xy = np.array([REGION_KM / 2.0, REGION_KM / 2.0])
    xy = {farm_ids[i]: coords[i] for i in range(params.farms)}
    rates = {farm_ids[i]: WASTE_RATE_TONNE_PER_H * rate_mult[i] for i in range(params.farms)}

    T = params.horizon
    grid = TimeGrid.hourly(T)
    demand = build_demand_curve(T)
    demand_bid = DEMAND_BID_FACTOR * ON_PEAK_USD_PER_MWH
    mean_inflow = WASTE_RATE_TONNE_PER_H * params.farms / params.processors

    variant = params.variant
    waste_mult = 3.0 if variant is Variant.TRIPLE_WASTE else 1.0
    if variant is Variant.NO_STORAGE:
        storage_cap, storage_bid = 0.0, STORAGE_BID
    elif variant is Variant.UNLIMITED_STORAGE:
        storage_cap, storage_bid = 1e9, 0.0
    else:
        storage_cap, storage_bid = STORAGE_INFLOW_HOURS * mean_inflow, STORAGE_BID

    def dist(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.hypot(*(a - b)))

    # what does not change from hour to hour, computed once
    fleets = enumerate(zip(GENERATOR_BETAS, fleet_block_counts()))
    blocks = [
        (fleet, k, beta * (k * BLOCK_SIZE_MW) ** 2)
        for fleet, (beta, count) in fleets
        for k in range(1, count + 1)
    ]
    wheel_bid = {
        farm: ELEC_TRANSPORT_USD_PER_MWH_KM * dist(xy[farm], hub_xy) for farm in processors
    }
    truck_bid = {
        (farm, proc): WASTE_TRANSPORT_USD_PER_TONNE_KM * dist(xy[farm], xy[proc])
        for farm in farm_ids[params.processors:]
        for proc in processors
    }
    digester_cap = DIGESTER_INFLOW_RATIO * mean_inflow
    wheel_cap = digester_cap * DIGESTER_YIELD_MWH_PER_TONNE * 1.001

    # one tuple of column values per stakeholder, in `COLUMNS` order
    suppliers: list[tuple] = []
    consumers: list[tuple] = []
    transporters: list[tuple] = []
    technologies: list[tuple] = []

    for t in range(T):
        consumers.append(
            (f"dem_hub_t{t:03d}", hub, t, "electricity", demand[t], demand_bid)
        )
        for fleet, k, bid in blocks:
            name = f"sup_grid{fleet}_b{k:03d}_t{t:03d}"
            suppliers.append((name, hub, t, "electricity", BLOCK_SIZE_MW, bid))
        for farm in farm_ids:
            suppliers.append(
                (f"sup_waste_{farm}_t{t:03d}", farm, t, "waste", rates[farm] * waste_mult,
                 WASTE_BID)
            )
        for farm in processors:
            technologies.append(
                (f"tec_dig_{farm}_t{t:03d}", farm, t, "waste", {"waste": 1.0},
                 {"electricity": DIGESTER_YIELD_MWH_PER_TONNE}, digester_cap, TECH_BID)
            )
            transporters.append(
                (f"tra_elec_{farm}_t{t:03d}", farm, t, hub, t, "electricity", wheel_cap,
                 wheel_bid[farm])
            )
            if t + 1 < T:
                transporters.append(
                    (f"tra_store_{farm}_t{t:03d}", farm, t, farm, t + 1, "waste", storage_cap,
                     storage_bid)
                )
        for (farm, proc), bid in truck_bid.items():
            transporters.append(
                (f"tra_waste_{farm}_{proc}_t{t:03d}", farm, t, proc, t, "waste", 3.0 * rates[farm],
                 bid)
            )

    # the graph's arcs are the transporters' ones
    graph = graph_of(nodes, grid, (x[1:5] for x in transporters))
    metadata = {
        "generator": "stclear.scenario_gen.generate_waste_case",
        "params": {
            "farms": params.farms,
            "processors": params.processors,
            "horizon": params.horizon,
            "seed": params.seed,
            "variant": variant.value,
            "peak_off_ratio": PEAK_OFF_RATIO,
            "generator_betas": list(GENERATOR_BETAS),
            "block_size_mw": BLOCK_SIZE_MW,
            "annual_demand_twh": ANNUAL_DEMAND_TWH,
            "demand_bid_factor": DEMAND_BID_FACTOR,
            "peak_hour": PEAK_HOUR,
            "waste_rate_tonne_per_h": WASTE_RATE_TONNE_PER_H,
            "waste_bid": WASTE_BID,
            "digester_yield_mwh_per_tonne": DIGESTER_YIELD_MWH_PER_TONNE,
            "tech_bid": TECH_BID,
            "storage_bid": storage_bid,
            "storage_capacity_tonne": storage_cap,
            "digester_capacity_tonne_per_h": digester_cap,
            "waste_transport_usd_per_tonne_km": WASTE_TRANSPORT_USD_PER_TONNE_KM,
            "elec_transport_usd_per_mwh_km": ELEC_TRANSPORT_USD_PER_MWH_KM,
            "region_km": REGION_KM,
        },
        "note": (
            "farm rates, yields, storage and digester capacities are desk-scale "
            "stand-ins chosen by this generator, not published figures"
        ),
    }
    return MarketInstance(
        products=("electricity", "waste"),
        grid=grid,
        graph=graph,
        suppliers=Table.from_values(Supplier, suppliers),
        consumers=Table.from_values(Consumer, consumers),
        transporters=Table.from_values(TransportProvider, transporters),
        technologies=Table.from_values(TechnologyProvider, technologies),
        metadata=metadata,
    )


def restrict_to_qss(instance: MarketInstance) -> MarketInstance:
    """Quasi-steady-state restriction: zero the capacity of every temporal and
    spatio-temporal transporter, forcing all cross-time flows to zero.
    Idempotent; instances with only spatial arcs come back unchanged.
    `settlement.clear_qss` derives the same LP from a cleared market's LP."""
    t = instance.transporters
    capacity = np.where(t.base_time == t.recv_time, t.capacity, 0.0)  # spatial arcs keep theirs
    transporters = Table(t.row, **{**t.columns, "capacity": capacity})
    return dataclasses.replace(instance, transporters=transporters)
