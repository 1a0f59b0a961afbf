"""Grid expansion: {attack x defense x corruption x workload}.

A grid is specified as space-separated ``axis=v1,v2`` tokens (the
``repro suite --grid`` syntax)::

    workload=alexnet_imagenet attack=bim,fgsm defense=ptolemy_fwab,ep \
        corruption=none,gaussian_noise@3

Unspecified axes fall back to :data:`DEFAULT_AXES`.  Expansion is the
cartesian product, filtered by optional include/exclude glob patterns
over the scenario id and by per-cell compatibility (fault attacks only
make sense for path-based defenses).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "AXES",
    "DEFAULT_AXES",
    "SMOKE_AXES",
    "ScenarioSpec",
    "SkippedScenario",
    "expand_grid",
    "parse_grid",
]

#: Axis order — also the segment order inside a scenario id.
AXES = ("workload", "attack", "defense", "corruption")

#: The default grid when ``--grid`` leaves an axis unspecified: a
#: representative accuracy+robustness slice, small enough to run at
#: full size in a nightly job.
DEFAULT_AXES: Dict[str, Tuple[str, ...]] = {
    "workload": ("alexnet_imagenet",),
    "attack": ("bim", "fgsm", "deepfool"),
    "defense": ("ptolemy_fwab", "ptolemy_bwcu", "ep"),
    "corruption": ("none", "gaussian_noise@3"),
}

#: The ``--smoke`` default grid: {2 attacks x 2 defenses x 1
#: corruption}, the CI gate's minimum representative slice.
SMOKE_AXES: Dict[str, Tuple[str, ...]] = {
    "workload": ("alexnet_imagenet",),
    "attack": ("bim", "fgsm"),
    "defense": ("ptolemy_fwab", "ep"),
    "corruption": ("none",),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One grid cell; the scenario id is its canonical name."""

    workload: str
    attack: str
    defense: str
    corruption: str = "none"

    @property
    def scenario_id(self) -> str:
        return "/".join(
            (self.workload, self.attack, self.defense, self.corruption)
        )

    @property
    def corruption_name(self) -> Optional[str]:
        """Corruption function name, or None for the identity."""
        if self.corruption == "none":
            return None
        return self.corruption.split("@", 1)[0]

    @property
    def corruption_severity(self) -> int:
        if "@" not in self.corruption:
            return 1
        return int(self.corruption.split("@", 1)[1])

    @property
    def is_fault_attack(self) -> bool:
        return self.attack.startswith("fault_")

    def as_config(self) -> Dict[str, str]:
        """The fingerprintable config section of this cell's report."""
        return {
            "workload": self.workload,
            "attack": self.attack,
            "defense": self.defense,
            "corruption": self.corruption,
        }


@dataclass(frozen=True)
class SkippedScenario:
    """A grid cell the expansion dropped, and why (manifest material —
    silent truncation would read as coverage)."""

    scenario_id: str
    reason: str


def parse_grid(
    tokens: Sequence[str],
    defaults: Optional[Dict[str, Tuple[str, ...]]] = None,
) -> Dict[str, Tuple[str, ...]]:
    """Parse ``axis=v1,v2`` tokens into a full axes dict.

    Tokens may arrive pre-split or as one space-separated string; later
    tokens override earlier ones for the same axis.
    """
    defaults = DEFAULT_AXES if defaults is None else defaults
    axes = {axis: tuple(values) for axis, values in defaults.items()}
    flat: List[str] = []
    for token in tokens:
        flat.extend(token.split())
    for token in flat:
        if "=" not in token:
            raise ValueError(
                f"grid token {token!r} must look like axis=v1,v2"
            )
        axis, _, raw = token.partition("=")
        if axis not in AXES:
            raise ValueError(
                f"unknown grid axis {axis!r}; choose from {AXES}"
            )
        values = tuple(v for v in raw.split(",") if v)
        if not values:
            raise ValueError(f"grid axis {axis!r} has no values")
        axes[axis] = values
    return axes


def _compatibility(spec: ScenarioSpec) -> Optional[str]:
    """Reason this cell cannot run, or None when it can.

    Import is deferred so grid expansion itself stays dependency-free
    (the CI schema checker imports this module transitively).
    """
    from repro.suite.adapters import ATTACKS, DEFENSES

    if spec.attack not in ATTACKS:
        return f"unknown attack {spec.attack!r}"
    if spec.defense not in DEFENSES:
        return f"unknown defense {spec.defense!r}"
    defense = DEFENSES[spec.defense]
    if spec.is_fault_attack and not defense.path_based:
        return (
            f"fault injection perturbs activations, which only "
            f"path-based defenses observe ({spec.defense} is not)"
        )
    if spec.corruption != "none":
        name = spec.corruption_name
        severity = spec.corruption_severity
        from repro.data import CORRUPTIONS
        from repro.data.corruptions import MAX_SEVERITY

        if name not in CORRUPTIONS:
            return f"unknown corruption {name!r}"
        if not 1 <= severity <= MAX_SEVERITY:
            return (f"corruption severity {severity} out of range "
                    f"1..{MAX_SEVERITY}")
    return None


def expand_grid(
    axes: Dict[str, Sequence[str]],
    include: Sequence[str] = (),
    exclude: Sequence[str] = (),
) -> Tuple[List[ScenarioSpec], List[SkippedScenario]]:
    """Cartesian product of the axes, minus filtered/incompatible cells.

    ``include``/``exclude`` are glob patterns matched against the
    scenario id (``workload/attack/defense/corruption``); a
    non-empty include list keeps only matching cells.  Returns the
    runnable specs plus every skipped cell with its reason.
    """
    specs: List[ScenarioSpec] = []
    skipped: List[SkippedScenario] = []
    for values in product(*(axes.get(axis, DEFAULT_AXES[axis])
                            for axis in AXES)):
        spec = ScenarioSpec(**dict(zip(AXES, values)))
        sid = spec.scenario_id
        if include and not any(fnmatch(sid, pattern) for pattern in include):
            skipped.append(SkippedScenario(sid, "filtered by --include"))
            continue
        if any(fnmatch(sid, pattern) for pattern in exclude):
            skipped.append(SkippedScenario(sid, "filtered by --exclude"))
            continue
        reason = _compatibility(spec)
        if reason is not None:
            skipped.append(SkippedScenario(sid, reason))
            continue
        specs.append(spec)
    return specs, skipped
