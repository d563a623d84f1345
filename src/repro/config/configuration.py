"""Configuration and fragment metadata objects.

These are the values the coordinator publishes and clients cache. A
:class:`Configuration` is treated as immutable once published — the
coordinator builds the next one with :meth:`Configuration.evolve` so that
clients holding an old object never see it mutate underneath them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.config.hashing import fragment_for_key
from repro.errors import CoordinatorError, FragmentUnavailable
from repro.sim.sanitizer import active as _sanitizer_active
from repro.types import FragmentMode

__all__ = ["FragmentInfo", "Configuration"]


@dataclass(frozen=True)
class FragmentInfo:
    """Published metadata of one fragment (a cell of Figure 3)."""

    fragment_id: int
    primary: str
    secondary: Optional[str]
    mode: FragmentMode
    #: Id of the configuration that last changed this fragment's
    #: assignment — the validity floor for its cache entries (Rejig).
    cfg_id: int
    #: Whether working-set transfer is active for this fragment (only
    #: meaningful in recovery mode; the coordinator flips it off when the
    #: termination condition fires).
    wst_active: bool = False
    #: Outage episode this fragment is in: the cfg_id the coordinator
    #: stamped when the fragment entered transient mode, kept through
    #: recovery mode. Working-set-transfer counts are namespaced by it
    #: so back-to-back outages of the same primary never share counts.
    #: 0 outside an outage.
    episode: int = 0

    def serving_replica(self) -> str:
        """Address clients direct normal traffic to in the current mode."""
        if self.mode is FragmentMode.TRANSIENT:
            if self.secondary is None:
                raise FragmentUnavailable(self.fragment_id)
            return self.secondary
        return self.primary

    def replace(self, **changes: Any) -> "FragmentInfo":
        """``dataclasses.replace`` under a friendlier name."""
        return replace(self, **changes)


class Configuration:
    """An immutable assignment of fragments to instances."""

    def __init__(self, config_id: int, fragments: List[FragmentInfo]) -> None:
        if config_id < 0:
            raise CoordinatorError("config id must be non-negative")
        for index, fragment in enumerate(fragments):
            if fragment.fragment_id != index:
                raise CoordinatorError(
                    f"fragment at index {index} has id {fragment.fragment_id}")
        self.config_id = config_id
        self.fragments: Tuple[FragmentInfo, ...] = tuple(fragments)

    @property
    def num_fragments(self) -> int:
        return len(self.fragments)

    def fragment_for_key(self, key: str) -> FragmentInfo:
        """Route a key: hash to a cell, read the cell's metadata."""
        return self.fragments[fragment_for_key(key, len(self.fragments))]

    def fragment(self, fragment_id: int) -> FragmentInfo:
        return self.fragments[fragment_id]

    def fragments_with_primary(self, address: str) -> List[FragmentInfo]:
        return [f for f in self.fragments if f.primary == address]

    def evolve(self, new_config_id: int,
               updates: Dict[int, FragmentInfo]) -> "Configuration":
        """Next configuration: replace the given fragments, keep the rest."""
        sanitizer = _sanitizer_active()
        if sanitizer is not None:
            # Fires before the local monotonicity check on purpose: a
            # split-brain's duplicate commit raises here, and the global
            # epoch finding must not be masked by that exception.
            sanitizer.on_config_evolve(self.config_id, new_config_id)
        if new_config_id <= self.config_id:
            raise CoordinatorError(
                f"config ids must increase ({new_config_id} <= {self.config_id})")
        fragments = list(self.fragments)
        for fragment_id, info in updates.items():
            if info.fragment_id != fragment_id:
                raise CoordinatorError("update key/fragment_id mismatch")
            fragments[fragment_id] = info
        return Configuration(new_config_id, fragments)

    def approximate_size(self) -> int:
        """Bytes charged when stored as a cache entry (Section 2.1)."""
        return 16 + 48 * len(self.fragments)

    def __repr__(self) -> str:
        modes = {}
        for fragment in self.fragments:
            modes[fragment.mode.value] = modes.get(fragment.mode.value, 0) + 1
        return f"Configuration(id={self.config_id}, fragments={len(self.fragments)}, modes={modes})"

    @staticmethod
    def initial(instances: Iterable[str], num_fragments: int,
                config_id: int = 1) -> "Configuration":
        """Round-robin initial assignment of fragments to instances."""
        addresses = list(instances)
        if not addresses:
            raise CoordinatorError("need at least one instance")
        fragments = [
            FragmentInfo(
                fragment_id=i,
                primary=addresses[i % len(addresses)],
                secondary=None,
                mode=FragmentMode.NORMAL,
                cfg_id=config_id,
            )
            for i in range(num_fragments)
        ]
        return Configuration(config_id, fragments)
