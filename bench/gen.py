"""Seeded synthetic PeeringDB dumps for the benchmark.

A scaled-up ``tests/conftest.py::random_snapshot``.  ASes get a home
country and a heavy-tailed number of router ports; IXP popularity follows a
Zipf law; small networks peer at home, large ones abroad; port speeds grow
with the size of the network.  A handful of mis-declared huge ports are
planted so that ``ingest --validate`` against a large reference AS flags a
few networks, and a few malformed and dangling records exercise the
parser's drop counters.  The second date re-draws about 5 % of the ports.

Both degree sequences and the size of every country's market are the same
for every seed, so the amount of work is too; the seed decides the wiring,
the names and the speeds.

Everything the output checks need to know (expected graph sizes, the
planted outliers, the sweep probes) is derived here from the generated
records, independently of the ``peergraph`` code path.
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Scale:
    n_as: int
    n_ixp: int
    ports: int  # legitimate router ports over all ASes
    max_ports: int
    outliers: int
    countries: int
    subset_as: int  # reduce-diff subset: top ASes by reverse PageRank ...
    subset_ixp: int  # ... plus top IXPs by forward PageRank
    receiver_countries: int
    hypergiants_k: int
    grid_h: str
    grid_m: str


# PeeringDB at the time of the paper: ~12k ASes, ~900 IXPs, ~34k ports.
FULL = Scale(
    n_as=12_000, n_ixp=900, ports=34_000, max_ports=400, outliers=5, countries=60,
    subset_as=32, subset_ixp=8, receiver_countries=8, hypergiants_k=40,
    grid_h="0.9:0.98:4", grid_m="0.6:0.8:5",
)
# Fixture scale: the whole harness in a few seconds.
SMOKE = Scale(
    n_as=150, n_ixp=20, ports=420, max_ports=20, outliers=2, countries=6,
    subset_as=6, subset_ixp=2, receiver_countries=3, hypergiants_k=5,
    grid_h="0.9:0.98:2", grid_m="0.6:0.8:2",
)

DATE_1 = Date(2021, 3, 1)
DATE_2 = Date(2021, 6, 1)
OUTLIER_FACTOR = 10.0
# Home-country share of ports: large, medium, small ASes.  With more local
# wiring, SuperLU's fill-in in the complement solve (reduce) swings by up to
# 2x from seed to seed, and so does the reduce-diff workload; with this
# mostly global core its quartiles stay within about 10 % of the median.
HOME_SHARE = (0.1, 0.5, 0.9)
IXP_ZIPF = 0.8  # exponent of the exchange popularity law

COUNTRY_CODES = (
    "US DE GB NL FR BR RU JP IT ES PL SE CA AU CH IN UA AT CZ SG HK AR ZA NO FI DK BE "
    "RO BG ID TR MX CL CO NZ IE PT HU KR TW TH MY PH VN NG KE EG IL IR SA AE PK BD PE "
    "EC UY PY VE GR"
).split()

# Traffic ratio and business type: probabilities for networks with fewer than 8
# ports, then for networks with more.
RATIOS = ("Not Disclosed", "Balanced", "Mostly Inbound", "Heavy Inbound",
          "Mostly Outbound", "Heavy Outbound")
RATIO_P_SMALL = (0.40, 0.25, 0.14, 0.06, 0.09, 0.06)
RATIO_P_LARGE = (0.15, 0.25, 0.05, 0.05, 0.25, 0.25)
TYPES = ("Cable/DSL/ISP", "NSP", "Content", "Not Disclosed", "Enterprise",
         "Educational/Research")
TYPE_P_SMALL = (0.42, 0.22, 0.10, 0.12, 0.09, 0.05)
TYPE_P_LARGE = (0.20, 0.40, 0.35, 0.02, 0.02, 0.01)
SPEEDS = (1_000, 10_000, 100_000, 400_000)  # Mbit/s
SPEED_P = ((0.4, 0.5, 0.1, 0.0), (0.1, 0.5, 0.4, 0.0), (0.0, 0.2, 0.6, 0.2))  # by network size
RECEIVER_TYPES = ("Cable/DSL/ISP", "Not Disclosed")


@dataclass
class Inputs:
    """Paths of the generated files and what the checks expect of them."""

    dump_1: Path
    dump_2: Path
    asorg: Path
    apnic: Path
    date_1: str
    date_2: str
    reference_asn: int
    countries: list[str]
    expected: dict  # per date: sizes, outliers, sweep probes
    sizes: dict  # recorded next to the metrics

    def as_dict(self) -> dict:
        return {k: (str(v) if isinstance(v, Path) else v) for k, v in self.__dict__.items()}


def _draw(cum: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cum, rng.random(size) * cum[-1]), cum.size - 1)


def _apportion(total: int, weights: np.ndarray, floor: int = 0) -> np.ndarray:
    """Integers proportional to ``weights``, each at least ``floor``, summing to ``total``."""
    share = floor + (total - floor * weights.size) * weights / weights.sum()
    counts = np.floor(share).astype(np.int64)
    counts[np.argsort(counts - share)[: total - int(counts.sum())]] += 1
    return counts


def _port_counts(n: int, scale: Scale) -> np.ndarray:
    """Heavy-tailed ports per AS summing to exactly ``scale.ports``.

    The counts are the quantiles of a Lomax (Pareto II, shape 1.5) law, so
    every seed gets the same degree sequence and the same amount of work;
    the seed decides which AS gets which count and how the ports are wired.
    """
    u = (np.arange(n) + 0.5) / n
    tail = (1.0 - u) ** (-1.0 / 1.5) - 1.0
    lo, hi = 0.0, 10.0
    for _ in range(60):  # bisect the scale that gives the requested total
        mid = (lo + hi) / 2
        total = np.minimum(1 + np.floor(tail * mid), scale.max_ports).sum()
        lo, hi = (mid, hi) if total < scale.ports else (lo, mid)
    counts = np.minimum(1 + np.floor(tail * lo), scale.max_ports).astype(np.int64)
    counts[: scale.ports - int(counts.sum())] += 1  # the last few ports, on small ASes
    return counts


def _deal(ports: np.ndarray, weights: np.ndarray, unlabelled: int,
          rng: np.random.Generator) -> np.ndarray:
    """Country index per exchange (-1: none) so that each country's number of
    exchanges and of port slots both follow ``weights``.

    Exchanges are dealt largest first to the country furthest below its slot
    target that still has room, which makes the size of every country's
    market the same for every seed; the seed only shuffles the country names.
    """
    n = ports.size
    order = np.argsort(-ports, kind="stable")
    skip = order[np.linspace(0, n - 1, unlabelled).astype(int)]  # unlabelled, of every size
    quota = _apportion(n - unlabelled, weights, floor=1)
    target = (ports.sum() - ports[skip].sum()) * weights / weights.sum()
    label = np.full(n, -1)
    load = np.zeros(weights.size)
    for j in np.setdiff1d(order, skip, assume_unique=True):
        open_ = quota > 0
        c = int(np.flatnonzero(open_)[np.argmax((target - load)[open_])])
        label[j] = c
        load[c] += ports[j]
        quota[c] -= 1
    names = rng.permutation(weights.size)
    return np.where(label >= 0, names[np.maximum(label, 0)], -1)


class _Ecosystem:
    """Networks, exchanges, and how their ports are wired.

    The seed wires the fixed degree sequences like a configuration model:
    each AS port goes, with the probability ``HOME_SHARE`` gives for the
    network's size, to an exchange in its home country while that country
    has free slots, and otherwise to a random free slot anywhere.
    """

    def __init__(self, scale: Scale, rng: np.random.Generator) -> None:
        self.rng = rng
        self.countries = COUNTRY_CODES[: scale.countries]
        n_c = len(self.countries)

        # Exchanges: Zipf popularity, countries in Zipf proportions, ~2 % unlabelled.
        self.ix_ids = np.arange(1, scale.n_ixp + 1) * 3 + 7  # sparse, non-contiguous ids
        self.ix_ports = rng.permutation(
            _apportion(scale.ports, 1.0 / np.arange(1, scale.n_ixp + 1) ** IXP_ZIPF, floor=1))
        self.ix_label = _deal(self.ix_ports, 1.0 / np.arange(1, n_c + 1) ** 1.1,
                              unlabelled=max(1, scale.n_ixp // 50), rng=rng)
        labels = self.ix_label
        self.ix_country = ["" if c < 0 else self.countries[c] for c in labels]

        # Networks: home countries in proportion to the ports their exchanges offer.
        n = scale.n_as
        offer = np.bincount(labels[labels >= 0], weights=self.ix_ports[labels >= 0],
                            minlength=n_c)
        # Registries hand out AS numbers in blocks, so AS numbers cluster by region.
        self.home_label = np.sort(_draw(np.cumsum(offer), rng, n))
        self.asns = np.sort(rng.choice(np.arange(1_000, 400_000), size=n, replace=False))
        self.home = [self.countries[c] for c in self.home_label]
        self.n_ports = rng.permutation(_port_counts(n, scale))
        large = self.n_ports >= 8
        ratio = np.where(large, rng.choice(6, size=n, p=RATIO_P_LARGE),
                         rng.choice(6, size=n, p=RATIO_P_SMALL))
        kind = np.where(large, rng.choice(6, size=n, p=TYPE_P_LARGE),
                        rng.choice(6, size=n, p=TYPE_P_SMALL))
        self.ratio = [RATIOS[r] for r in ratio]
        self.info_type = [TYPES[t] for t in kind]
        self.speed_tier = np.select([self.n_ports >= 20, self.n_ports >= 5], [2, 1], default=0)

    def _speeds(self, as_index: np.ndarray) -> np.ndarray:
        """Port speeds; networks with more ports buy faster ones."""
        u = self.rng.random(as_index.size)
        out = np.empty(as_index.size)
        for tier, p in enumerate(SPEED_P):
            mine = self.speed_tier[as_index] == tier
            out[mine] = np.take(SPEEDS, np.searchsorted(np.cumsum(p), u[mine], side="right"))
        return out

    def wire(self) -> list[tuple[int, int, float]]:
        """Every AS port matched to an IXP port slot; returns (asn, ixp_id, speed) rows."""
        rng = self.rng
        stub_as = np.repeat(np.arange(self.asns.size), self.n_ports)
        slot_ix = np.repeat(np.arange(self.ix_ids.size), self.ix_ports)
        home_share = np.select([self.n_ports >= 20, self.n_ports >= 3], HOME_SHARE[:2],
                               HOME_SHARE[2])
        prefer = np.where(rng.random(stub_as.size) < home_share[stub_as],
                          self.home_label[stub_as], -2)
        stub_ix = np.full(stub_as.size, -1)
        slot_free = np.ones(slot_ix.size, dtype=bool)
        for c in range(len(self.countries)):
            stubs = rng.permutation(np.flatnonzero(prefer == c))
            slots = rng.permutation(np.flatnonzero(self.ix_label[slot_ix] == c))
            m = min(stubs.size, slots.size)
            stub_ix[stubs[:m]] = slot_ix[slots[:m]]
            slot_free[slots[:m]] = False
        rest = np.flatnonzero(stub_ix < 0)
        stub_ix[rest] = slot_ix[rng.permutation(np.flatnonzero(slot_free))]
        speeds = self._speeds(stub_as)
        return [(int(self.asns[a]), int(self.ix_ids[x]), float(s))
                for a, x, s in zip(stub_as, stub_ix, speeds)]

    def ports_of(self, i: int, count: int) -> list[tuple[int, float]]:
        """``count`` new (ixp_id, speed) ports for AS index ``i``, by IXP popularity."""
        picks = _draw(np.cumsum(self.ix_ports), self.rng, count)
        speeds = self._speeds(np.full(count, i))
        return [(int(self.ix_ids[j]), float(s)) for j, s in zip(picks, speeds)]


def _dump(eco: _Ecosystem, ports: list[tuple[int, int, float | None]], extra_nets: list[dict],
          extra_ix: list[dict]) -> dict:
    net = [
        {
            "asn": int(asn),
            "name": f"Synthetic-AS{asn}",
            "info_ratio": eco.ratio[i],
            "info_scope": "Regional",
            "info_type": eco.info_type[i],
        }
        for i, asn in enumerate(eco.asns)
    ] + extra_nets
    ix = [
        {"id": int(x), "name": f"Synthetic-IX{x}", "country": eco.ix_country[j]}
        for j, x in enumerate(eco.ix_ids)
    ] + extra_ix
    netixlan = [{"asn": a, "ix_id": x, "speed": s} for a, x, s in ports]
    return {"net": {"data": net}, "ix": {"data": ix}, "netixlan": {"data": netixlan}}


def _expectations(eco: _Ecosystem, ports: list[tuple[int, int, float | None]],
                  reference_asn: int) -> dict:
    """What a correct pipeline must report for one dump, computed from the records."""
    known_as = {int(a) for a in eco.asns}
    known_ix = {int(x) for x in eco.ix_ids}
    resolved = [(a, x, s) for a, x, s in ports
                if a in known_as and x in known_ix]
    total: dict[int, float] = defaultdict(float)
    edges: dict[tuple[int, int], float] = defaultdict(float)
    for a, x, s in resolved:
        total[a] += s or 0.0
        if s:
            edges[(a, x)] += s
    threshold = OUTLIER_FACTOR * total[reference_asn]
    outliers = sorted(a for a, t in total.items() if t > threshold)
    graph_as = {a for a, _ in edges}
    graph_ix = {x for _, x in edges}

    # The sweep's default probes: the best-provisioned ASes of every class.
    ratio_of = {int(a): eco.ratio[i] for i, a in enumerate(eco.asns)}
    by_class: dict[str, list[tuple[float, int]]] = defaultdict(list)
    for a in graph_as:
        by_class[ratio_of[a]].append((-total[a], a))
    probes = sorted(a for c in by_class.values() for _, a in sorted(c)[:4])
    return {
        "memberships": len(resolved),
        "n_as": len(graph_as),
        "n_ixp": len(graph_ix),
        "n_edges": len(edges),
        "outliers": outliers,
        "probes": probes,
    }


def generate(out_dir: Path, seed: int, scale: Scale = FULL) -> Inputs:
    """Write both dated dumps and the two truth files under ``out_dir``."""
    rng = np.random.default_rng(seed)
    eco = _Ecosystem(scale, rng)

    ports: list[tuple[int, int, float | None]] = list(eco.wire())

    capacity: dict[int, float] = defaultdict(float)
    for a, _, s in ports:
        capacity[a] += s
    reference_asn = max(capacity, key=lambda a: (capacity[a], -a))

    # Mis-declared huge ports on small networks (e.g. a speed typed in kbit/s).
    small = [int(a) for a, k in zip(eco.asns, eco.n_ports) if k <= 2 and int(a) != reference_asn]
    for k, asn in enumerate(rng.choice(small, size=scale.outliers, replace=False)):
        huge = OUTLIER_FACTOR * capacity[reference_asn] * (1.5 + 0.5 * k)
        x = int(eco.ix_ids[int(rng.integers(eco.ix_ids.size))])
        ports.append((int(asn), x, float(np.ceil(huge))))

    # Records the parser must drop or zero out, as in real dumps.
    n_noise = max(2, len(ports) // 1000)
    unknown_as = 500_000 + np.arange(n_noise)
    noise = [(int(a), int(eco.ix_ids[0]), 10_000.0) for a in unknown_as]
    noise += [(int(eco.asns[int(i)]), 999_999, 10_000.0)
              for i in rng.choice(len(eco.asns), size=n_noise)]
    zero_speed = [(int(eco.asns[int(i)]), int(eco.ix_ids[0]), None)
                  for i in rng.choice(len(eco.asns), size=n_noise)]
    extra_nets = [{"asn": "n/a", "name": "broken"}, {"asn": -5, "name": "negative"}]
    extra_ix = [{"name": "no id", "country": "DE"}]

    ports_1 = ports + noise + zero_speed

    # Second date: drop ~2.5 % of the ports and add as many new ones (~5 % churn).
    n_churn = len(ports) // 40
    gone = set(rng.choice(len(ports), size=n_churn, replace=False).tolist())
    planted = set(range(len(ports) - scale.outliers, len(ports)))
    kept = [p for k, p in enumerate(ports) if k not in gone or k in planted]
    added = []
    for i in rng.choice(len(eco.asns), size=n_churn):
        added.extend((int(eco.asns[i]), x, s) for x, s in eco.ports_of(int(i), 1))
    ports_2 = kept + added + noise + zero_speed

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, dump_ports in (("dump_1.json", ports_1), ("dump_2.json", ports_2)):
        path = out_dir / name
        path.write_text(json.dumps(_dump(eco, dump_ports, extra_nets, extra_ix)), encoding="utf-8")
        paths[name] = path

    # Registration data: most ASes with their home country, some mislabelled.
    rows = ["# asn,country_code"]
    for i, asn in enumerate(eco.asns):
        u = rng.random()
        if u < 0.9:
            rows.append(f"{asn},{eco.home[i]}")
        elif u < 0.95:
            rows.append(f"{asn},{eco.countries[int(rng.integers(len(eco.countries)))]}")
    asorg = out_dir / "asorg.csv"
    asorg.write_text("\n".join(rows) + "\n", encoding="utf-8")

    # End-user market share: the largest access networks of each country.
    rows = ["# asn,country_code,eums_percent,national_rank"]
    for c in eco.countries:
        cands = sorted(
            ((-capacity[int(a)], int(a)) for i, a in enumerate(eco.asns)
             if eco.home[i] == c and eco.info_type[i] in RECEIVER_TYPES),
        )[:10]
        weights = 1.0 / np.arange(1, len(cands) + 1) ** 1.2
        shares = 90.0 * weights / weights.sum()  # the rest of the market is unlisted
        for rank, ((_, a), share) in enumerate(zip(cands, shares), start=1):
            rows.append(f"{a},{c},{share:.2f},{rank}")
    apnic = out_dir / "apnic.csv"
    apnic.write_text("\n".join(rows) + "\n", encoding="utf-8")

    ix_count = defaultdict(int)
    for c in eco.ix_country:
        ix_count[c] += 1
    receiver_countries = sorted((c for c in eco.countries if ix_count[c]),
                                key=lambda c: (-ix_count[c], c))[: scale.receiver_countries]
    expected = {
        "1": _expectations(eco, ports_1, reference_asn),
        "2": _expectations(eco, ports_2, reference_asn),
    }
    sizes = {
        "networks": len(eco.asns),
        "ixps": len(eco.ix_ids),
        "ports_date_1": len(ports_1),
        "ports_date_2": len(ports_2),
        "graph_as": expected["1"]["n_as"],
        "graph_ixp": expected["1"]["n_ixp"],
        "graph_edges": expected["1"]["n_edges"],
        "dump_bytes": paths["dump_1.json"].stat().st_size,
        "planted_outliers": scale.outliers,
    }
    return Inputs(
        dump_1=paths["dump_1.json"],
        dump_2=paths["dump_2.json"],
        asorg=asorg,
        apnic=apnic,
        date_1=DATE_1.isoformat(),
        date_2=DATE_2.isoformat(),
        reference_asn=int(reference_asn),
        countries=receiver_countries,
        expected=expected,
        sizes=sizes,
    )
