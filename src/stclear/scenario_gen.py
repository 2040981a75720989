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
from dataclasses import dataclass, field
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

# calibration anchors: 0.05 / 0.18 USD per kWh off- and on-peak
OFF_PEAK_USD_PER_MWH = 50.0
ON_PEAK_USD_PER_MWH = 180.0
GENERATOR_BETAS = (1.66e-5, 8.31e-6, 4.15e-5)  # USD/MWh per MW^2
BLOCK_SIZE_MW = 100.0
ANNUAL_DEMAND_TWH = 68.8
ELEC_TRANSPORT_USD_PER_MWH_KM = 7.5e-6
HOURS_PER_YEAR = 8766.0  # 365.25 days


class InvalidParams(ValueError):
    pass


class Variant(Enum):
    BASE = "base"
    NO_STORAGE = "nostorage"
    UNLIMITED_STORAGE = "unlimited"
    TRIPLE_WASTE = "triple"


@dataclass(frozen=True)
class CaseParams:
    """Waste-case knobs.  Values not printed in public sources are desk-scale
    choices; everything lands in the instance metadata for the record."""

    farms: int = 8
    processors: int = 4
    horizon: int = 24
    seed: int = 7
    variant: Variant = Variant.BASE
    # electricity side
    peak_off_ratio: float = 1.897
    generator_betas: tuple[float, float, float] = GENERATOR_BETAS
    block_size: float = BLOCK_SIZE_MW
    annual_demand_twh: float = ANNUAL_DEMAND_TWH
    demand_bid_factor: float = 10.0  # willingness to pay, x on-peak anchor
    # demand peak placed so the daily processing window sits inside the day
    # and ends at hour 23; a window straddling midnight would be truncated by
    # the horizon cut and sag end-of-horizon prices
    peak_hour: float = 19.75
    # waste side (desk-scale stand-ins)
    waste_rate: float = 6.0  # tonne/h per farm before heterogeneity
    waste_bid: float = -2.0  # tipping fee
    digester_yield: float = 0.07  # MWh electricity per tonne waste
    tech_bid: float = 0.05  # USD per tonne processed
    storage_bid: float = 0.02  # USD per tonne per hour step
    storage_capacity: float | None = None  # tonnes; default 12x mean inflow
    digester_capacity: float | None = None  # tonne/h; default 3.2x mean inflow
    transport_bid: float = 0.10  # USD per tonne-km of waste trucking
    region_km: float = 60.0  # farms scattered over a square this wide

    def __post_init__(self):
        if self.farms < 1 or self.processors < 1:
            raise InvalidParams("farm and processor counts must be >= 1")
        if self.processors > self.farms:
            raise InvalidParams("processors cannot exceed farms")
        if self.horizon < 1:
            raise InvalidParams("horizon must be >= 1")
        if self.seed < 0:
            raise InvalidParams("seed must be >= 0")
        if self.peak_off_ratio <= 1.0:
            raise InvalidParams("peak/off ratio must exceed 1")
        if len(self.generator_betas) != 3 or min(self.generator_betas) <= 0:
            raise InvalidParams("need three positive generator curvatures")
        if not 0 <= self.peak_hour < 24:
            raise InvalidParams("peak hour must be in [0, 24)")
        if self.block_size <= 0 or self.waste_rate <= 0 or self.digester_yield <= 0:
            raise InvalidParams("block size, waste rate, and yield must be positive")

    @property
    def mean_processor_inflow(self) -> float:
        return self.waste_rate * self.farms / self.processors

    @property
    def storage_cap(self) -> float:
        if self.storage_capacity is not None:
            return self.storage_capacity
        return 12.0 * self.mean_processor_inflow

    @property
    def digester_cap(self) -> float:
        if self.digester_capacity is not None:
            return self.digester_capacity
        return 3.2 * self.mean_processor_inflow


@dataclass(frozen=True)
class DemandCurve:
    """Hourly electricity demand (MWh) and purchase bids, periodic over 24h."""

    demand: tuple[float, ...]
    bid: tuple[float, ...]

    def __post_init__(self):
        if len(self.demand) != len(self.bid):
            raise InvalidParams("demand and bid series must align")
        for t, d in enumerate(self.demand):
            if d <= 0:
                raise InvalidParams(f"demand must be positive (hour {t})")
            if t >= 24 and abs(d - self.demand[t - 24]) > 1e-9 * (1.0 + abs(d)):
                raise InvalidParams(f"demand must repeat every 24h (hour {t})")


def build_demand_curve(params: CaseParams) -> DemandCurve:
    """Diurnal sinusoid scaled to the annual energy total; the swing between
    trough and peak is set by the peak/off ratio so the conventional fleets
    clear near the price anchors."""
    mean = params.annual_demand_twh * 1e6 / HOURS_PER_YEAR
    r = params.peak_off_ratio
    swing = (r - 1.0) / (r + 1.0)
    bid = params.demand_bid_factor * ON_PEAK_USD_PER_MWH
    demand = tuple(
        mean * (1.0 + swing * math.cos(2.0 * math.pi * ((t % 24) - params.peak_hour) / 24.0))
        for t in range(params.horizon)
    )
    return DemandCurve(demand=demand, bid=tuple(bid for _ in demand))


def fleet_block_counts(params: CaseParams) -> tuple[int, ...]:
    """Blocks per fleet, enough to cover peak demand with headroom: the last
    block prices at 1.5x the on-peak anchor."""
    price_cap = 1.5 * ON_PEAK_USD_PER_MWH
    return tuple(
        int(math.ceil(math.sqrt(price_cap / beta) / params.block_size))
        for beta in params.generator_betas
    )


def generate_waste_case(params: CaseParams) -> MarketInstance:
    rng = np.random.default_rng(params.seed)
    # all randomness drawn up front, independent of the variant switch
    coords = rng.uniform(0.0, params.region_km, size=(params.farms, 2))
    rate_mult = rng.uniform(0.6, 1.4, size=params.farms)

    farm_ids = [f"farm{i:03d}" for i in range(params.farms)]
    processors = farm_ids[: params.processors]
    hub = "hub"
    nodes = [hub] + farm_ids
    hub_xy = np.array([params.region_km / 2.0, params.region_km / 2.0])
    xy = {farm_ids[i]: coords[i] for i in range(params.farms)}
    rates = {farm_ids[i]: params.waste_rate * rate_mult[i] for i in range(params.farms)}

    T = params.horizon
    grid = TimeGrid.hourly(T)
    curve = build_demand_curve(params)

    variant = params.variant
    waste_mult = 3.0 if variant is Variant.TRIPLE_WASTE else 1.0
    if variant is Variant.NO_STORAGE:
        storage_cap, storage_bid = 0.0, params.storage_bid
    elif variant is Variant.UNLIMITED_STORAGE:
        storage_cap, storage_bid = 1e9, 0.0
    else:
        storage_cap, storage_bid = params.storage_cap, params.storage_bid

    def dist(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.hypot(*(a - b)))

    # what does not change from hour to hour, computed once
    fleets = enumerate(zip(params.generator_betas, fleet_block_counts(params)))
    blocks = [
        (fleet, k, beta * (k * params.block_size) ** 2)
        for fleet, (beta, count) in fleets
        for k in range(1, count + 1)
    ]
    wheel_bid = {
        farm: ELEC_TRANSPORT_USD_PER_MWH_KM * dist(xy[farm], hub_xy) for farm in processors
    }
    truck_bid = {
        (farm, proc): params.transport_bid * dist(xy[farm], xy[proc])
        for farm in farm_ids[params.processors:]
        for proc in processors
    }
    digester_cap = params.digester_cap
    wheel_cap = digester_cap * params.digester_yield * 1.001

    # one tuple of column values per stakeholder, in `COLUMNS` order
    suppliers: list[tuple] = []
    consumers: list[tuple] = []
    transporters: list[tuple] = []
    technologies: list[tuple] = []

    for t in range(T):
        consumers.append(
            (f"dem_hub_t{t:03d}", hub, t, "electricity", curve.demand[t], curve.bid[t])
        )
        for fleet, k, bid in blocks:
            name = f"sup_grid{fleet}_b{k:03d}_t{t:03d}"
            suppliers.append((name, hub, t, "electricity", params.block_size, bid))
        for farm in farm_ids:
            suppliers.append(
                (f"sup_waste_{farm}_t{t:03d}", farm, t, "waste", rates[farm] * waste_mult,
                 params.waste_bid)
            )
        for farm in processors:
            technologies.append(
                (f"tec_dig_{farm}_t{t:03d}", farm, t, "waste", {"waste": 1.0},
                 {"electricity": params.digester_yield}, digester_cap, params.tech_bid)
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
            "peak_off_ratio": params.peak_off_ratio,
            "generator_betas": list(params.generator_betas),
            "block_size_mw": params.block_size,
            "annual_demand_twh": params.annual_demand_twh,
            "demand_bid_factor": params.demand_bid_factor,
            "peak_hour": params.peak_hour,
            "waste_rate_tonne_per_h": params.waste_rate,
            "waste_bid": params.waste_bid,
            "digester_yield_mwh_per_tonne": params.digester_yield,
            "tech_bid": params.tech_bid,
            "storage_bid": storage_bid,
            "storage_capacity_tonne": storage_cap,
            "digester_capacity_tonne_per_h": params.digester_cap,
            "waste_transport_usd_per_tonne_km": params.transport_bid,
            "elec_transport_usd_per_mwh_km": ELEC_TRANSPORT_USD_PER_MWH_KM,
            "region_km": params.region_km,
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
