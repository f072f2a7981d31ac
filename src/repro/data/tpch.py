"""Deterministic TPC-H-style data generator.

The generator reproduces the *structure* of dbgen output -- the same schema,
key relationships (every ``lineitem`` row joins an ``orders`` row, every
``orders`` row joins a ``customer`` row, ...), value domains (return flags,
ship modes, market segments, date ranges 1992-1998) and approximate
distributions -- at laptop scale factors.  It is **not** a byte-compatible
dbgen replacement: the paper's experiments only need a database whose query
behaviour is TPC-H-shaped, which this provides while staying deterministic
for a given ``(scale_factor, seed)`` pair.

Rows are generated as plain tuples in schema column order, so they can be
loaded into either engine layout or written to CSV.

Every draw goes through two public methods of one seeded
:class:`random.Random`, ``getrandbits`` and ``random``, the way CPython 3.11
makes its convenience methods out of them: ``randrange(a, b)`` is ``a`` plus
a draw below ``b - a`` by rejection on ``n.bit_length()`` bits
(``TPCHGenerator._below``), ``choice(seq)`` is ``seq[below(len(seq))]``,
``uniform(a, b)`` is ``a + (b - a) * random()`` and ``sample(words, 5)``
redraws a position until it is unseen.  The hot loops (``lineitem``,
``_comment``) write these draws out in place, and dates are day offsets
from 1992-01-01 until they are written as ISO text.  Pinned to
``getrandbits``, the data no longer depends on how those convenience
methods are written; ``tests/test_load_digest.py`` holds its digest.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.tpch.schema import TPCH_BASE_ROWS, TPCH_SCHEMA, TPCH_TABLES

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import Database

_NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1), ("EGYPT", 4),
    ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3), ("INDIA", 2), ("INDONESIA", 2),
    ("IRAN", 4), ("IRAQ", 4), ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0),
    ("MOROCCO", 0), ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3), ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
]
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_SHIP_INSTRUCT = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
_CONTAINERS = [
    f"{size} {kind}"
    for size in ("SM", "MED", "LG", "JUMBO", "WRAP")
    for kind in ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")
]
_TYPE_SYLL1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
_TYPE_SYLL2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
_TYPE_SYLL3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
_NAME_WORDS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
    "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
    "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
    "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
    "hot", "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon",
    "light", "lime", "linen", "magenta", "maroon", "medium", "metallic", "midnight",
    "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid",
    "pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff", "purple",
    "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell",
    "sienna", "sky", "slate", "smoke", "snow", "spring", "steel", "tan", "thistle",
    "tomato", "turquoise", "violet", "wheat", "white", "yellow",
]
_COMMENT_WORDS = [
    "carefully", "quickly", "furiously", "slyly", "blithely", "final", "special",
    "express", "regular", "pending", "ironic", "even", "bold", "silent", "unusual",
    "requests", "deposits", "packages", "accounts", "instructions", "theodolites",
    "foxes", "pinto", "beans", "dependencies", "excuses", "platelets", "asymptotes",
    "Customer", "Complaints", "sleep", "wake", "nag", "haggle", "cajole", "detect",
]

_STATUSES = ["O", "F", "P"]
_COMMENT_COUNT = len(_COMMENT_WORDS)
_COMMENT_BITS = _COMMENT_COUNT.bit_length()

_START_DATE = datetime.date(1992, 1, 1)
_END_DATE = datetime.date(1998, 12, 1)
_DATE_RANGE_DAYS = (_END_DATE - _START_DATE).days
#: dates as day offsets from _START_DATE: the ISO text of each (order dates,
#: plus the 121 + 30 days a receipt date can lie past one) and back.
_ISO_DATES = [(_START_DATE + datetime.timedelta(days=offset)).isoformat()
              for offset in range(_DATE_RANGE_DAYS + 121 + 30)]
_DATE_OFFSETS = {text: offset for offset, text in enumerate(_ISO_DATES)}
#: the last receipt date a line may be returned by / ship date it is filled by.
_RETURN_CUTOFF = (datetime.date(1995, 6, 17) - _START_DATE).days


@dataclass
class TPCHGenerator:
    """Generates the eight TPC-H tables at a given scale factor.

    Parameters
    ----------
    scale_factor:
        Fraction of the SF-1 cardinalities (0.001 gives a ~6k-row lineitem).
    seed:
        Seed for the deterministic pseudo-random stream.
    """

    scale_factor: float = 0.01
    seed: int = 20190113  # CIDR 2019 opening day; any fixed constant works.
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self._rng = random.Random((self.seed, round(self.scale_factor * 1_000_000)).__hash__())
        self._bits = self._rng.getrandbits
        self._random = self._rng.random

    # -- helpers --------------------------------------------------------------

    def _rows(self, table: str) -> int:
        if table == "region":
            return 5
        if table == "nation":
            return 25
        scaled = int(TPCH_BASE_ROWS[table] * self.scale_factor)
        return max(scaled, 10)

    def _below(self, n: int) -> int:
        """A draw from ``range(n)``: ``randrange(n)`` as CPython 3.11 makes it."""
        k = n.bit_length()
        r = self._bits(k)
        while r >= n:
            r = self._bits(k)
        return r

    def _choice(self, seq):
        return seq[self._below(len(seq))]

    def _sample(self, population: list, k: int) -> list:
        """``sample(population, k)`` as CPython 3.11 draws it from a
        population larger than its set-size threshold (21 for ``k <= 5``):
        positions redrawn until unseen."""
        seen: set[int] = set()
        picked = []
        for _ in range(k):
            position = self._below(len(population))
            while position in seen:
                position = self._below(len(population))
            seen.add(position)
            picked.append(population[position])
        return picked

    def _uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self._random()

    def _comment(self, words: int = 4) -> str:
        bits = self._bits
        picked = []
        for _ in range(words):
            r = bits(_COMMENT_BITS)
            while r >= _COMMENT_COUNT:
                r = bits(_COMMENT_BITS)
            picked.append(_COMMENT_WORDS[r])
        return " ".join(picked)

    def _phone(self, nationkey: int) -> str:
        below = self._below
        return (f"{10 + nationkey}-{100 + below(899)}-"
                f"{100 + below(899)}-{1000 + below(8999)}")

    # -- table generators ----------------------------------------------------------

    def region(self) -> list[tuple]:
        return [(key, name, self._comment()) for key, name in enumerate(_REGIONS)]

    def nation(self) -> list[tuple]:
        return [
            (key, name, regionkey, self._comment())
            for key, (name, regionkey) in enumerate(_NATIONS)
        ]

    def supplier(self) -> list[tuple]:
        rows = []
        for key in range(1, self._rows("supplier") + 1):
            nationkey = self._below(25)
            comment = self._comment()
            if key % 13 == 0:
                comment = "Customer Complaints " + comment
            rows.append((
                key,
                f"Supplier#{key:09d}",
                self._comment(2),
                nationkey,
                self._phone(nationkey),
                round(self._uniform(-999.99, 9999.99), 2),
                comment,
            ))
        return rows

    def customer(self) -> list[tuple]:
        rows = []
        for key in range(1, self._rows("customer") + 1):
            nationkey = self._below(25)
            rows.append((
                key,
                f"Customer#{key:09d}",
                self._comment(2),
                nationkey,
                self._phone(nationkey),
                round(self._uniform(-999.99, 9999.99), 2),
                self._choice(_SEGMENTS),
                self._comment(),
            ))
        return rows

    def part(self) -> list[tuple]:
        rows = []
        below, choice = self._below, self._choice
        for key in range(1, self._rows("part") + 1):
            name = " ".join(self._sample(_NAME_WORDS, 5))
            mfgr = 1 + below(5)
            brand = f"Brand#{mfgr}{1 + below(5)}"
            p_type = (f"{choice(_TYPE_SYLL1)} {choice(_TYPE_SYLL2)} "
                      f"{choice(_TYPE_SYLL3)}")
            rows.append((
                key,
                name,
                f"Manufacturer#{mfgr}",
                brand,
                p_type,
                1 + below(50),
                choice(_CONTAINERS),
                round(900 + (key % 1000) + self._uniform(0, 100), 2),
                self._comment(3),
            ))
        return rows

    def partsupp(self, part_count: int, supplier_count: int) -> list[tuple]:
        rows = []
        per_part = 4
        below, uniform = self._below, self._uniform
        for partkey in range(1, part_count + 1):
            for offset in range(per_part):
                suppkey = ((partkey + offset * (supplier_count // per_part + 1))
                           % supplier_count) + 1
                rows.append((
                    partkey,
                    suppkey,
                    1 + below(9_999),
                    round(uniform(1.0, 1000.0), 2),
                    self._comment(5),
                ))
        return rows

    def orders(self, customer_count: int) -> list[tuple]:
        rows = []
        below, choice = self._below, self._choice
        for key in range(1, self._rows("orders") + 1):
            orderdate = _ISO_DATES[below(_DATE_RANGE_DAYS)]
            status = choice(_STATUSES)
            rows.append((
                key,
                1 + below(customer_count),
                status,
                round(self._uniform(1000.0, 400_000.0), 2),
                orderdate,
                choice(_PRIORITIES),
                f"Clerk#{1 + below(999):09d}",
                0,
                self._comment() + (" special requests" if key % 17 == 0 else ""),
            ))
        return rows

    def lineitem(self, order_rows: list[tuple], part_count: int,
                 supplier_count: int) -> list[tuple]:
        # The hot loop of the generator: every draw is ``_below`` / ``_uniform``
        # written out in place -- ``r = bits(k)`` redrawn while ``r >= n`` is
        # ``_below(n)`` with ``k = n.bit_length()`` -- and dates are day
        # offsets from _START_DATE.
        rows = []
        append = rows.append
        bits, random_, comment = self._bits, self._random, self._comment
        part_bits, supplier_bits = part_count.bit_length(), supplier_count.bit_length()
        cutoff = _RETURN_CUTOFF
        for order in order_rows:
            orderkey = order[0]
            orderdate = _DATE_OFFSETS[order[4]]
            r = bits(3)
            while r >= 7:
                r = bits(3)
            for linenumber in range(1, r + 2):
                r = bits(part_bits)
                while r >= part_count:
                    r = bits(part_bits)
                partkey = 1 + r
                r = bits(supplier_bits)
                while r >= supplier_count:
                    r = bits(supplier_bits)
                suppkey = 1 + r
                r = bits(6)
                while r >= 50:
                    r = bits(6)
                quantity = float(1 + r)
                extendedprice = round(quantity * (900.0 + (2000.0 - 900.0) * random_()), 2)
                r = bits(7)
                while r >= 121:
                    r = bits(7)
                shipdate = orderdate + 1 + r
                r = bits(6)
                while r >= 61:
                    r = bits(6)
                commitdate = orderdate + 30 + r
                r = bits(5)
                while r >= 30:
                    r = bits(5)
                receiptdate = shipdate + 1 + r
                if receiptdate <= cutoff:
                    returnflag = "R" if random_() < 0.5 else "A"
                else:
                    returnflag = "N"
                discount = round(0.0 + (0.10 - 0.0) * random_(), 2)
                tax = round(0.0 + (0.08 - 0.0) * random_(), 2)
                r = bits(3)
                while r >= 4:
                    r = bits(3)
                instruct = _SHIP_INSTRUCT[r]
                r = bits(3)
                while r >= 7:
                    r = bits(3)
                append((
                    orderkey,
                    partkey,
                    suppkey,
                    linenumber,
                    quantity,
                    extendedprice,
                    discount,
                    tax,
                    returnflag,
                    "F" if shipdate <= cutoff else "O",
                    _ISO_DATES[shipdate],
                    _ISO_DATES[commitdate],
                    _ISO_DATES[receiptdate],
                    instruct,
                    _SHIP_MODES[r],
                    comment(3),
                ))
        return rows

    # -- public API -------------------------------------------------------------------

    def generate(self) -> dict[str, list[tuple]]:
        """Generate all eight tables and return them keyed by table name."""
        tables: dict[str, list[tuple]] = {}
        tables["region"] = self.region()
        tables["nation"] = self.nation()
        tables["supplier"] = self.supplier()
        tables["customer"] = self.customer()
        tables["part"] = self.part()
        tables["partsupp"] = self.partsupp(len(tables["part"]), len(tables["supplier"]))
        tables["orders"] = self.orders(len(tables["customer"]))
        tables["lineitem"] = self.lineitem(
            tables["orders"], len(tables["part"]), len(tables["supplier"])
        )
        return tables

    def populate(self, database: "Database", clustered: bool = False) -> None:
        """Create the TPC-H schema on ``database`` and load the generated rows
        (:func:`load_tpch`)."""
        load_tpch(database, self.generate(), clustered=clustered)


#: per fact table, the date column a clustered load orders its rows by.
_CLUSTER_KEYS = {"lineitem": itemgetter(10), "orders": itemgetter(4)}


def load_tpch(database: "Database", tables: dict[str, list[tuple]],
              clustered: bool = False) -> None:
    """Create the TPC-H schema on ``database`` and load ``tables`` (as
    :func:`generate_tpch` returns them) into it.

    With ``clustered`` the fact tables are loaded in date order
    (``lineitem`` by ship date, ``orders`` by order date), which is how a
    warehouse ingesting by arrival time lays data out -- and what gives
    the storage layer's per-chunk zone maps disjoint date ranges to
    refute, enabling chunk skipping on date-selective scans.
    """
    for table in TPCH_TABLES:
        rows = tables[table]
        if clustered and table in _CLUSTER_KEYS:
            rows = sorted(rows, key=_CLUSTER_KEYS[table])
        database.create_table(table, TPCH_SCHEMA[table])
        database.insert_rows(table, rows)


def generate_tpch(scale_factor: float = 0.01, seed: int = 20190113) -> dict[str, list[tuple]]:
    """Generate TPC-H tables at ``scale_factor`` and return them as row lists."""
    return TPCHGenerator(scale_factor=scale_factor, seed=seed).generate()


def populate_tpch(database: "Database", scale_factor: float = 0.01,
                  seed: int = 20190113, clustered: bool = False) -> None:
    """Create and load the TPC-H schema on ``database``."""
    TPCHGenerator(scale_factor=scale_factor, seed=seed).populate(database,
                                                                clustered=clustered)
