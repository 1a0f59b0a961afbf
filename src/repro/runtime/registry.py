"""Versioned multi-model registry + request classes for the serving tier.

One :class:`~repro.runtime.service.ShardedDetectionService` used to
host exactly one detector; this module is what lets it host N.  Two
small, deliberately dependency-free pieces:

* :class:`ModelRegistry` — named, versioned, serialized detector
  states (:func:`repro.core.detector_to_state` payloads) plus the
  routing table that says which version of each name is *serving*.
  Registering an existing name again creates the next version; the
  service promotes it only after every worker has loaded it, then
  drains and retires the old version (``drain-and-replace``).  The
  registry itself never touches processes — it is the bookkeeping the
  service and the HTTP front-end share.
* :class:`RequestClass` — the per-request priority classes
  (``interactive`` > ``standard`` > ``batch``).  A class steers three
  things: dispatch order inside the service (higher classes jump the
  micro-batch queue), the HTTP front-end's per-request deadline
  (``slo_scale`` of ``request_timeout``), and how early the front-end
  sheds the class under backpressure (``admit_fraction`` of
  ``max_inflight`` — the lowest class 429s first).

Model specs are strings ``name`` or ``name@version`` (``version`` is a
positive integer); bare names resolve to the serving version.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_CLASS",
    "DEFAULT_MODEL",
    "ModelEntry",
    "ModelRegistry",
    "REQUEST_CLASSES",
    "RequestClass",
    "UnknownModelError",
    "parse_model_spec",
    "resolve_request_class",
]

#: The name the single-detector constructor path registers under, and
#: what requests without a ``model`` parameter route to by default.
DEFAULT_MODEL = "default"

#: Model names must be URL- and filename-safe and must not contain the
#: ``@`` version separator.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class UnknownModelError(KeyError):
    """A model spec names a model/version the registry does not serve.

    Subclasses :class:`KeyError` so generic mapping-style callers keep
    working; the HTTP front-end maps it to ``404``.
    """

    def __str__(self) -> str:  # KeyError quotes its arg; keep prose
        return self.args[0] if self.args else ""


def parse_model_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Split ``name`` / ``name@version`` into ``(name, version|None)``.

    Raises :class:`ValueError` on malformed specs (empty name, bad
    characters, non-integer version) — malformed is a client error
    (400), unlike an unknown-but-well-formed model (404).
    """
    spec = (spec or "").strip()
    name, sep, version_text = spec.partition("@")
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid model name {name!r}: use letters, digits, '_', "
            "'.', '-' (optionally followed by @<version>)"
        )
    if not sep:
        return name, None
    try:
        version = int(version_text)
    except ValueError:
        raise ValueError(
            f"invalid model version {version_text!r} in {spec!r}: "
            "expected an integer"
        ) from None
    if version < 1:
        raise ValueError(f"model versions start at 1, got {version}")
    return name, version


# -- request classes ---------------------------------------------------------

@dataclass(frozen=True)
class RequestClass:
    """One request class.

    ``priority`` orders dispatch inside the service (lower = served
    first).  ``slo_scale`` multiplies the HTTP front-end's
    ``request_timeout`` into this class's per-request deadline —
    interactive traffic gets a tighter budget, batch traffic a looser
    one.  ``admit_fraction`` is the share of the HTTP
    ``max_inflight`` budget the class may occupy before it is shed
    with 429 — lower classes saturate (and shed) first, so a burst of
    bulk traffic can never starve interactive requests.
    """

    name: str
    priority: int
    slo_scale: float
    admit_fraction: float

    def admit_limit(self, max_inflight: int) -> int:
        """In-flight slots this class may use out of ``max_inflight``
        (always at least one, so tiny limits still serve every class)."""
        return max(1, int(round(max_inflight * self.admit_fraction)))

    def snapshot(self) -> dict:
        return {
            "priority": self.priority,
            "slo_scale": self.slo_scale,
            "admit_fraction": self.admit_fraction,
        }


#: The fixed class ladder, highest priority first.  ``standard`` is
#: what requests without a class get, and its scales are 1.0/0.9 so a
#: class-oblivious client sees (almost) exactly the pre-class contract.
REQUEST_CLASSES: Dict[str, RequestClass] = {
    "interactive": RequestClass("interactive", 0, 0.5, 1.0),
    "standard": RequestClass("standard", 1, 1.0, 0.9),
    "batch": RequestClass("batch", 2, 2.0, 0.6),
}

DEFAULT_CLASS = "standard"


def resolve_request_class(name: Optional[str]) -> RequestClass:
    """The :class:`RequestClass` for ``name`` (None → ``standard``);
    :class:`ValueError` on unknown names (an HTTP 400)."""
    if name is None:
        name = DEFAULT_CLASS
    try:
        return REQUEST_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(REQUEST_CLASSES))
        raise ValueError(
            f"unknown request class {name!r} (known: {known})"
        ) from None


# -- the registry ------------------------------------------------------------

@dataclass
class ModelEntry:
    """One registered (name, version) detector state."""

    name: str
    version: int
    state: dict
    model_factory: Callable
    threshold: float
    registered_at: float = field(default_factory=time.time)
    retired: bool = False

    @property
    def key(self) -> Tuple[str, int]:
        return (self.name, self.version)

    @property
    def spec(self) -> str:
        return f"{self.name}@{self.version}"

    def describe(self, serving_version: Optional[int]) -> dict:
        """JSON-safe row for ``GET /v1/models`` (no array state)."""
        return {
            "name": self.name,
            "version": self.version,
            "spec": self.spec,
            "serving": self.version == serving_version,
            "retired": self.retired,
            "threshold": self.threshold,
            "registered_at": self.registered_at,
        }


class ModelRegistry:
    """Named, versioned detector states plus the serving routing table.

    Thread-safe; shared between the service's submit path (resolve),
    its collector (drain/retire), and the HTTP front-end (listing and
    hot-swap registration).

    Versioning: :meth:`register` under a new name serves immediately at
    version 1; under an existing name it creates ``highest + 1`` but
    does **not** change routing — the owner (the service's
    ``load_model``) promotes it once every worker holds the new state,
    making hot-swap an atomic routing flip rather than a window of
    mixed versions.
    """

    def __init__(self, default: Optional[str] = None):
        self._lock = threading.RLock()
        self._entries: Dict[str, Dict[int, ModelEntry]] = {}
        self._serving: Dict[str, int] = {}
        self._default = default
        self._order: List[str] = []  # registration order, for listings

    # -- registration ---------------------------------------------------
    def register(
        self,
        name: str,
        *,
        detector=None,
        state: Optional[dict] = None,
        model_factory: Callable,
        threshold: float = 0.5,
    ) -> ModelEntry:
        """Register a detector (or a prebuilt state) under ``name``;
        returns the new :class:`ModelEntry` (version auto-assigned)."""
        parsed, version = parse_model_spec(name)
        if version is not None:
            raise ValueError(
                f"register takes a bare name, not a spec: {name!r}"
            )
        name = parsed
        if state is None:
            if detector is None:
                raise ValueError("provide a detector or a prebuilt state")
            from repro.core.serialization import detector_to_state

            state = detector_to_state(detector)
        if not state.get("fitted"):
            raise ValueError(
                f"model {name!r}: detector classifier must be fitted"
            )
        if model_factory is None:
            raise ValueError(f"model {name!r}: model_factory is required")
        with self._lock:
            versions = self._entries.setdefault(name, {})
            version = max(versions, default=0) + 1
            entry = ModelEntry(
                name=name,
                version=version,
                state=state,
                model_factory=model_factory,
                threshold=float(threshold),
            )
            versions[version] = entry
            if name not in self._order:
                self._order.append(name)
            if name not in self._serving:
                # a brand-new name serves immediately; later versions
                # wait for an explicit promote()
                self._serving[name] = version
            if self._default is None:
                self._default = name
            return entry

    def promote(self, name: str, version: int) -> ModelEntry:
        """Flip routing for ``name`` to ``version`` (must exist and not
        be retired); returns the now-serving entry."""
        with self._lock:
            entry = self.get(name, version)
            if entry.retired:
                raise UnknownModelError(
                    f"model {entry.spec} is retired and cannot serve"
                )
            self._serving[name] = version
            return entry

    def retire(self, name: str, version: int) -> None:
        """Mark one version retired and drop its (heavy) state; its
        metadata row stays for listings.  Retiring the serving version
        is refused — promote a replacement first."""
        with self._lock:
            entry = self.get(name, version)
            if self._serving.get(name) == version:
                raise ValueError(
                    f"cannot retire serving version {entry.spec}; "
                    "promote a replacement first"
                )
            entry.retired = True
            entry.state = {}  # free the arrays; metadata remains

    # -- resolution -----------------------------------------------------
    @property
    def default_name(self) -> Optional[str]:
        with self._lock:
            return self._default

    def names(self) -> List[str]:
        with self._lock:
            return list(self._order)

    def get(self, name: str, version: Optional[int] = None) -> ModelEntry:
        """The entry for (name, version); serving version when ``None``.
        Raises :class:`UnknownModelError` when absent."""
        with self._lock:
            versions = self._entries.get(name)
            if not versions:
                known = ", ".join(self._order) or "<none>"
                raise UnknownModelError(
                    f"unknown model {name!r} (serving: {known})"
                )
            if version is None:
                version = self._serving[name]
            entry = versions.get(version)
            if entry is None:
                raise UnknownModelError(
                    f"unknown version {version} of model {name!r} "
                    f"(have: {sorted(versions)})"
                )
            return entry

    def resolve(self, spec: Optional[str]) -> ModelEntry:
        """The serving entry for a ``name[@version]`` spec (``None`` →
        the default model).  :class:`ValueError` on malformed specs,
        :class:`UnknownModelError` on unknown/retired targets."""
        with self._lock:
            if spec is None:
                if self._default is None:
                    raise UnknownModelError("registry has no models")
                name, version = self._default, None
            else:
                name, version = parse_model_spec(spec)
            entry = self.get(name, version)
            if entry.retired:
                raise UnknownModelError(
                    f"model {entry.spec} is retired "
                    f"(serving version is {self._serving.get(name)})"
                )
            return entry

    def serving_version(self, name: str) -> Optional[int]:
        with self._lock:
            return self._serving.get(name)

    def serving_entries(self) -> List[ModelEntry]:
        """Every entry a worker must hold: the serving version of each
        name plus any not-yet-retired older versions still draining."""
        with self._lock:
            return [
                entry
                for name in self._order
                for entry in sorted(
                    self._entries[name].values(), key=lambda e: e.version
                )
                if not entry.retired
            ]

    def describe(self) -> dict:
        """JSON-safe registry listing (``GET /v1/models``)."""
        with self._lock:
            return {
                "default": self._default,
                "models": [
                    entry.describe(self._serving.get(name))
                    for name in self._order
                    for entry in sorted(
                        self._entries[name].values(),
                        key=lambda e: e.version,
                    )
                ],
                "classes": {
                    name: cls.snapshot()
                    for name, cls in REQUEST_CLASSES.items()
                },
            }

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._entries.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries
