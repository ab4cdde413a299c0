"""Campaign specs: a declarative sweep that expands into durable cells.

A campaign spec is a small YAML or JSON document::

    name: nightly
    workloads: [cc-5, bfs-10]
    prefetchers: [pathfinder, nextline]
    seeds: [1, 2]
    loads: 4000
    workers: 2
    max_attempts: 3
    lease_ttl_s: 30

Expansion is deterministic: cells enumerate ``seeds`` (outer), then
``workloads``, then ``prefetchers``, and every cell is keyed by the
canonical :func:`~repro.harness.runner.cell_key` — the same key grid
ledgers, ``--resume`` and ``repro compare`` use — so a campaign's
ledger diffs cleanly against any other run of the same grid.

YAML specs go through one small built-in subset parser (scalar
mappings, flow/block lists, comments), so a spec reads the same on
every machine and needs no dependency; JSON specs always work.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from ..errors import ConfigError

#: Bump when the campaign.json layout changes incompatibly.
CAMPAIGN_SCHEMA = 3

_SPEC_FIELDS = ("name", "workloads", "prefetchers", "seeds", "loads",
                "budget", "workers", "max_attempts", "lease_ttl_s",
                "backoff_s", "backoff_factor")


@dataclass(frozen=True)
class CampaignCell:
    """One expanded campaign cell (a single seeded prefetcher run)."""

    index: int
    workload: str
    prefetcher: str
    seed: int
    key: str

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign: the grid plus its resilience envelope.

    Attributes:
        name: Campaign name (labels the run and the default directory).
        workloads: Workload names (each must be registered).
        prefetchers: Registry prefetcher names.
        seeds: Trace seeds; the full grid runs once per seed.
        loads: Accesses per trace.
        budget: Prefetches kept per triggering access.
        workers: Worker processes (0 = serial in-process execution).
        max_attempts: Attempts per cell before quarantine.
        lease_ttl_s: Lease TTL; a cell whose worker misses heartbeats
            this long is reclaimed and retried.
        backoff_s: Base delay before a cell's first retry.
        backoff_factor: Exponential backoff multiplier per retry.
    """

    name: str
    workloads: Tuple[str, ...]
    prefetchers: Tuple[str, ...]
    seeds: Tuple[int, ...] = (1,)
    loads: int = 20_000
    budget: int = 2
    workers: int = 2
    max_attempts: int = 3
    lease_ttl_s: float = 30.0
    backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        from ..harness.runner import PREFETCHER_FACTORIES
        from ..traces import WORKLOAD_NAMES

        if not self.name or not str(self.name).strip():
            raise ConfigError("campaign spec: name is required")
        if not self.workloads:
            raise ConfigError("campaign spec: workloads must be non-empty")
        if not self.prefetchers:
            raise ConfigError("campaign spec: prefetchers must be non-empty")
        if not self.seeds:
            raise ConfigError("campaign spec: seeds must be non-empty")
        # A repeated value would expand into two cells with one key.
        for name in ("workloads", "prefetchers", "seeds"):
            seen = set()
            for value in getattr(self, name):
                if value in seen:
                    raise ConfigError(
                        f"campaign spec: {name} repeats {value!r}")
                seen.add(value)
        for workload in self.workloads:
            if workload not in WORKLOAD_NAMES:
                known = ", ".join(sorted(WORKLOAD_NAMES))
                raise ConfigError(
                    f"campaign spec: unknown workload {workload!r}; "
                    f"known: {known}")
        for prefetcher in self.prefetchers:
            if prefetcher not in PREFETCHER_FACTORIES:
                known = ", ".join(sorted(PREFETCHER_FACTORIES))
                raise ConfigError(
                    f"campaign spec: unknown prefetcher {prefetcher!r}; "
                    f"known: {known}")
        if self.loads <= 0:
            raise ConfigError("campaign spec: loads must be positive")
        if self.budget <= 0:
            raise ConfigError("campaign spec: budget must be positive")
        if self.workers < 0:
            raise ConfigError("campaign spec: workers must be >= 0")
        if self.max_attempts < 1:
            raise ConfigError("campaign spec: max_attempts must be >= 1")
        if self.lease_ttl_s <= 0:
            raise ConfigError("campaign spec: lease_ttl_s must be positive")
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ConfigError("campaign spec: invalid backoff configuration")

    @property
    def heartbeat_s(self) -> float:
        """Worker heartbeat period: a quarter of the lease TTL."""
        return self.lease_ttl_s / 4.0

    def expand(self) -> List[CampaignCell]:
        """Deterministically enumerate the campaign's cells.

        Order is seeds (outer) → workloads → prefetchers, so the same
        spec always yields the same indices and keys; workers that pick
        up cells in any order still produce a ledger whose per-cell
        records are keyed identically.
        """
        from ..harness.runner import cell_key, default_hierarchy

        hierarchy = default_hierarchy()
        cells: List[CampaignCell] = []
        for seed in self.seeds:
            for workload in self.workloads:
                for prefetcher in self.prefetchers:
                    key = cell_key(
                        workload, prefetcher, seed=seed,
                        n_accesses=self.loads, budget=self.budget,
                        hierarchy=hierarchy)
                    cells.append(CampaignCell(
                        index=len(cells), workload=workload,
                        prefetcher=prefetcher, seed=seed, key=key))
        return cells

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "prefetchers": list(self.prefetchers),
            "seeds": list(self.seeds),
            "loads": self.loads,
            "budget": self.budget,
            "workers": self.workers,
            "max_attempts": self.max_attempts,
            "lease_ttl_s": self.lease_ttl_s,
            "backoff_s": self.backoff_s,
            "backoff_factor": self.backoff_factor,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignSpec":
        if not isinstance(payload, dict):
            raise ConfigError("campaign spec: expected a mapping at the "
                              f"top level, got {type(payload).__name__}")
        unknown = sorted(set(payload) - set(_SPEC_FIELDS))
        if unknown:
            raise ConfigError(
                f"campaign spec: unknown field(s) {', '.join(unknown)}; "
                f"known: {', '.join(_SPEC_FIELDS)}")
        kwargs: Dict[str, object] = {}
        for fld in dataclasses.fields(cls):
            if fld.name not in payload:
                continue
            value = payload[fld.name]
            if fld.name in ("workloads", "prefetchers"):
                value = tuple(str(v) for v in _as_list(value, fld.name))
            elif fld.name == "seeds":
                value = tuple(_as_int(v, fld.name)
                              for v in _as_list(value, fld.name))
            elif fld.name in ("loads", "budget", "workers", "max_attempts"):
                value = _as_int(value, fld.name)
            elif fld.name in ("lease_ttl_s", "backoff_s", "backoff_factor"):
                value = _as_finite(value, fld.name)
            elif isinstance(value, (str, int)) and not isinstance(value, bool):
                value = str(value)
            else:
                raise ConfigError(f"campaign spec: {fld.name} must be a "
                                  f"string, got {value!r}")
            kwargs[fld.name] = value
        for required in ("name", "workloads", "prefetchers"):
            if required not in kwargs:
                raise ConfigError(
                    f"campaign spec: missing required field {required!r}")
        return cls(**kwargs)


def _as_list(value: object, name: str) -> Sequence:
    if isinstance(value, (list, tuple)):
        return value
    raise ConfigError(f"campaign spec: {name} must be a list")


def _as_int(value: object, name: str) -> int:
    """``value`` as an int when it is one exactly (an integral float
    or an integer string passes; a bool or a fraction does not)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(
        f"campaign spec: {name} must be an integer, got {value!r}")


def _as_finite(value: object, name: str) -> float:
    """``value`` as a finite float (never a bool, NaN or infinity)."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except ValueError:
            pass
        else:
            if math.isfinite(number):
                return number
    raise ConfigError(
        f"campaign spec: {name} must be a finite number, got {value!r}")


def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Parse a campaign spec file (JSON or YAML) into a ``CampaignSpec``."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read campaign spec {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = _parse_simple_yaml(text, path)
    return CampaignSpec.from_dict(payload)


def _parse_simple_yaml(text: str, path: Path) -> Dict[str, object]:
    """A dependency-free subset-of-YAML parser for campaign specs.

    Supports exactly what a campaign spec needs — a flat mapping whose
    values are scalars, flow lists (``[a, b]``) or block lists
    (indented ``- item`` lines) — plus ``#`` comments and blank lines.
    Anything fancier (nesting, anchors, multi-line strings) is rejected
    with a pointer to JSON, which is always accepted.
    """
    payload: Dict[str, object] = {}
    pending_key: object = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("- "):
            if pending_key is None:
                raise ConfigError(
                    f"{path}:{lineno}: list item outside a key")
            payload[pending_key].append(_scalar(stripped[2:].strip()))
            continue
        if line[:1].isspace():
            raise ConfigError(
                f"{path}:{lineno}: nested mappings are not supported by "
                "the built-in YAML subset; use JSON for complex specs")
        key, sep, value = stripped.partition(":")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key: value'")
        key = key.strip()
        value = value.strip()
        if not value:
            payload[key] = []
            pending_key = key
        elif value.startswith("[") and value.endswith("]"):
            payload[key] = [_scalar(item.strip())
                            for item in _split_flow_list(value[1:-1])
                            if item.strip()]
            pending_key = None
        else:
            payload[key] = _scalar(value)
            pending_key = None
    return payload


def _unquoted(line: str) -> Iterator[Tuple[int, str]]:
    """``(index, char)`` for each character of ``line`` outside a quoted
    scalar; as in YAML, a quote opens one only where a token starts."""
    quote = ""
    for i, char in enumerate(line):
        if quote:
            if char == quote:
                quote = ""
        elif char in "'\"" and (i == 0 or line[i - 1] in " \t[,"):
            quote = char
        else:
            yield i, char


def _strip_comment(line: str) -> str:
    """Cut a ``#`` comment, as YAML does: a ``#`` that starts the line
    or follows whitespace, outside a quoted scalar."""
    for i, char in _unquoted(line):
        if char == "#" and (i == 0 or line[i - 1].isspace()):
            return line[:i]
    return line


def _split_flow_list(body: str) -> List[str]:
    """Split a flow list's ``[...]`` body on commas outside quotes."""
    cuts = [-1] + [i for i, char in _unquoted(body) if char == ","]
    cuts.append(len(body))
    return [body[start + 1:end] for start, end in zip(cuts, cuts[1:])]


def _scalar(token: str):
    token = token.strip().strip("'\"")
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    if token.lower() in ("true", "false"):
        return token.lower() == "true"
    return token
