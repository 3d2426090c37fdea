"""Configuration spaces: typed options, validation, sampling, neighborhoods.

A configuration is a plain tuple of integers, one per option in declaration
order (``Configuration`` names that type). ``OptionSpace.config`` builds a
validated one from any values; every other method takes and returns tuples.

Validation guards input from outside the space: ``config``, and through it
or ``validate`` the table loader, the trace readers, the oracles'
``measure`` and a planted optimum. What takes a configuration (a
``neighbor_sampler``'s ``neighbor``, ``index``) trusts it to be one of this
space, as every configuration that ``random_config``, ``neighbor`` and
``config_at`` build is. A sampler checks its radius and builds its tables
of changeable positions and draws once, from ``bounds``, when it is built
(once per local-search run), so a proposal pays for nothing but its random
draws.

Integer draws are made straight from ``rng.getrandbits`` by CPython's own
rejection rule (``randbelow``): the draws that ``random.Random``'s
``randint``, ``randrange``, ``shuffle`` and ``sample`` would make, in the
same order. So the generator ends in the same state, and a trace depends
only on the Mersenne Twister's bit stream, not on how a Python version writes
those methods. Only a neighbor that changes two or more of more than 21
changeable options still calls ``rng.sample``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

OPTION_KINDS = ("binary", "integer")


def randbelow(getrandbits: Callable[[int], int], n: int, bits: int) -> int:
    """A uniform integer in [0, n) drawn as ``random.Random._randbelow(n)``
    draws it: ``getrandbits(bits)``, with ``bits`` the ``n.bit_length()``,
    until the value is below ``n``. ``n == 1`` draws too."""
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


class SpaceError(ValueError):
    """Raised for malformed space definitions."""


class InvalidConfigurationError(ValueError):
    """Raised when configuration values violate the space bounds."""


@dataclass(frozen=True)
class OptionSpec:
    """One tunable option: binary or an inclusive integer range."""

    name: str
    kind: str
    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.kind not in OPTION_KINDS:
            raise SpaceError(f"option {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "binary" and (self.lower, self.upper) != (0, 1):
            raise SpaceError(f"option {self.name!r}: binary options must span 0..1")
        if self.lower > self.upper:
            raise SpaceError(
                f"option {self.name!r}: lower {self.lower} > upper {self.upper}"
            )

    @property
    def cardinality(self) -> int:
        return self.upper - self.lower + 1


# One integer value per option, in declaration order; used as the cache key.
Configuration = tuple[int, ...]


@dataclass(frozen=True)
class OptionSpace:
    """Ordered sequence of options; the search space is their Cartesian product."""

    options: tuple[OptionSpec, ...]

    def __post_init__(self) -> None:
        if not self.options:
            raise SpaceError("a space needs at least one option")
        seen: set[str] = set()
        for opt in self.options:
            if opt.name in seen:
                raise SpaceError(f"duplicate option name {opt.name!r}")
            seen.add(opt.name)

    def __getstate__(self) -> dict:
        # Pickle the field alone, as before any cached value was computed.
        return {"options": self.options}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(opt.name for opt in self.options)

    @cached_property
    def bounds(self) -> tuple[tuple[int, int], ...]:
        """(lower, upper) per option. Computed once; not a field, so equality,
        hashing and the document form see only ``options``."""
        return tuple((opt.lower, opt.upper) for opt in self.options)

    @cached_property
    def _uniform_draws(self) -> tuple[tuple[int, int, int], ...]:
        """(lower, width, bits) per option: ``randint(lower, upper)`` is
        ``lower + randbelow(width)``."""
        return tuple(
            (opt.lower, opt.cardinality, opt.cardinality.bit_length())
            for opt in self.options
        )

    def size(self) -> int:
        """Number of distinct configurations (product of option cardinalities)."""
        n = 1
        for opt in self.options:
            n *= opt.cardinality
        return n

    def config(self, values: Iterable[int]) -> Configuration:
        """Build a validated configuration from per-option values."""
        config = tuple(int(v) for v in values)
        self.validate(config)
        return config

    def validate(self, config: Configuration) -> None:
        if len(config) != len(self.options):
            raise InvalidConfigurationError(
                f"expected {len(self.options)} values, got {len(config)}"
            )
        for opt, value in zip(self.options, config):
            if not opt.lower <= value <= opt.upper:
                raise InvalidConfigurationError(
                    f"option {opt.name!r}: value {value} outside [{opt.lower}, {opt.upper}]"
                )

    def random_config(self, rng: random.Random) -> Configuration:
        """Uniform independent draw per option; deterministic for a seeded rng."""
        getrandbits = rng.getrandbits
        return tuple(
            [lower + randbelow(getrandbits, width, bits)
             for lower, width, bits in self._uniform_draws]
        )

    def neighbor_sampler(
        self, radius: int
    ) -> Callable[[Configuration, random.Random], Configuration]:
        """``neighbor(config, rng)``: one configuration within ``radius``
        changed option positions of ``config``.

        Each neighbor changes between 1 and ``radius`` positions; a changed value
        is drawn uniformly from the option range excluding the current value.
        The radius is checked here, once per sampler: below 1 it raises; one
        above the count of options that can change draws as that count does.
        ``config`` must be a configuration of this space, as with ``index``:
        it is not validated.
        """
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        # The positions a neighbor can change: options of more than one value.
        bounds = self.bounds
        mutable = tuple(i for i, (lower, upper) in enumerate(bounds) if upper > lower)
        if not mutable:
            # Space of size 1: the input is its only configuration.
            return lambda config, rng: config
        size = len(mutable)
        size_bits = size.bit_length()
        most = min(radius, size)
        most_bits = most.bit_length()
        # (lower, width, bits) per option over one value fewer, for a value
        # other than the current one: ``randint(lower, upper - 1)``, shifted
        # past it.
        other = [(lower, upper - lower, (upper - lower).bit_length())
                 for lower, upper in bounds]

        def neighbor(config: Configuration, rng: random.Random) -> Configuration:
            # randint(1, most) changes (k + 1 below), then sample(mutable,
            # k + 1), then one value per chosen position: each a ``randbelow``
            # loop, written out here because a frame per draw costs this hot
            # path measurable time.
            getrandbits = rng.getrandbits
            k = getrandbits(most_bits)
            while k >= most:
                k = getrandbits(most_bits)
            if k == 0:
                # One change: both of sample's branches draw one position.
                j = getrandbits(size_bits)
                while j >= size:
                    j = getrandbits(size_bits)
                positions = (mutable[j],)
            elif size <= 21:
                # sample's pool swap, which it uses on at most 21 items for
                # every k; on more it may reject repeats from a set instead.
                pool = list(mutable)
                positions = []
                for left in range(size, size - k - 1, -1):
                    left_bits = left.bit_length()
                    j = getrandbits(left_bits)
                    while j >= left:
                        j = getrandbits(left_bits)
                    positions.append(pool[j])
                    pool[j] = pool[left - 1]
            else:
                positions = rng.sample(mutable, k + 1)
            values = list(config)
            for i in positions:
                lower, width, bits = other[i]
                value = getrandbits(bits)
                while value >= width:
                    value = getrandbits(bits)
                value += lower
                values[i] = value + 1 if value >= values[i] else value
            return tuple(values)

        return neighbor

    def enumerate_all(self) -> Iterator[Configuration]:
        """Yield every configuration in lexicographic order. Small spaces only."""
        ranges = [range(opt.lower, opt.upper + 1) for opt in self.options]
        yield from itertools.product(*ranges)

    def index(self, config: Configuration) -> int:
        """Position of ``config`` in lexicographic order (see ``enumerate_all``)."""
        index = 0
        for opt, value in zip(self.options, config):
            index = index * opt.cardinality + value - opt.lower
        return index

    def config_at(self, index: int) -> Configuration:
        """The configuration at ``index`` in lexicographic order; undoes ``index``."""
        if not 0 <= index < self.size():
            raise IndexError(f"configuration index {index} outside the space")
        values = []
        for opt in reversed(self.options):
            index, digit = divmod(index, opt.cardinality)
            values.append(opt.lower + digit)
        return tuple(reversed(values))


def space_to_doc(space: OptionSpace) -> dict:
    """The JSON document form of a space, every bound written out."""
    return {"options": [asdict(opt) for opt in space.options]}


def space_from_doc(doc: object) -> OptionSpace:
    """Build a space from its JSON document form.

    Schema: ``{"options": [{"name", "kind", "lower", "upper"}, ...]}``.
    Binary options may omit lower/upper (implied 0..1).
    """
    if not isinstance(doc, dict) or "options" not in doc:
        raise SpaceError('space document must be an object with an "options" list')
    entries = doc["options"]
    if not isinstance(entries, list) or not entries:
        raise SpaceError("space document declares an empty option list")
    options = []
    for entry in entries:
        if not isinstance(entry, dict) or "name" not in entry:
            raise SpaceError(f"malformed option entry: {entry!r}")
        name = entry["name"]
        kind = entry.get("kind", "integer")
        if kind == "binary":
            lower = entry.get("lower", 0)
            upper = entry.get("upper", 1)
        else:
            try:
                lower = entry["lower"]
                upper = entry["upper"]
            except KeyError as exc:
                raise SpaceError(f"option {name!r}: missing bound {exc}") from exc
        if any(isinstance(b, bool) or not isinstance(b, int) for b in (lower, upper)):
            raise SpaceError(f"option {name!r}: bounds must be integers")
        options.append(OptionSpec(name=str(name), kind=kind, lower=lower, upper=upper))
    return OptionSpace(tuple(options))


def parse_space(spec_text: str) -> OptionSpace:
    """Parse a space definition from its JSON text (see ``space_from_doc``)."""
    try:
        doc = json.loads(spec_text)
    except json.JSONDecodeError as exc:
        raise SpaceError(f"space document is not valid JSON: {exc}") from exc
    return space_from_doc(doc)


def load_space(path: str) -> OptionSpace:
    """Read and parse a space definition file. A file that is not UTF-8, not
    JSON or not a space raises SpaceError starting with ``path:``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_space(fh.read())
    except (UnicodeDecodeError, SpaceError) as exc:
        raise SpaceError(f"{path}: {exc}") from exc
