"""Deterministic failure injection for the campaign runtime itself.

Fault injection for the fault injector: the resilience machinery of
:class:`repro.core.executor.ParallelExecutor` (watchdog, retry, pool
reconstitution, bisection/quarantine) is only trustworthy if it is tested
against real worker failures — raises, hangs, hard exits, corrupt
payloads — and those must be injectable *on schedule*, per fault site,
with a bounded number of firings so "transient" failures heal.

A :class:`ChaosSpec` is attached to a :class:`ParallelExecutor` (test-only
keyword) and shipped to every worker inside the campaign's setup token;
the worker consults :meth:`ChaosSpec.fire` before running each site.

Cross-process firing counters
-----------------------------
A bounded action ("crash the first 2 attempts of site (1, 3)") must count
firings across *processes*: retries may land in a different worker, and a
hard-exit action kills the very process holding any in-memory counter.
Counters therefore live on the filesystem — one file per (site, action)
under ``state_dir``, whose **size in bytes** is the firing count. A firing
appends one byte and fsyncs *before* the failure is unleashed, so even
``os._exit`` cannot lose the count. Unbounded actions (``times=None``)
need no state directory.

Determinism: firing depends only on (site, prior firing count), never on
timing, worker identity, or randomness — a chaos campaign is as replayable
as a healthy one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ChaosError",
    "ChaosAction",
    "ChaosSpec",
]

#: The failure modes a worker can be made to exhibit.
_KINDS = ("raise", "hang", "exit", "corrupt", "sleep")

#: The *network* failure modes a fabric worker agent can be made to
#: exhibit (see :mod:`repro.core.fabric`). Kept in a separate namespace
#: so :meth:`ChaosSpec.fire` — consulted inside pool workers — never
#: consumes a network action meant for the agent's transport layer.
_NET_KINDS = ("drop", "truncate", "stall", "replay")


class ChaosError(RuntimeError):
    """The exception an injected ``raise`` (or expired ``hang``) throws."""


@dataclass(frozen=True)
class ChaosAction:
    """One injectable worker failure.

    Parameters
    ----------
    kind:
        ``"raise"`` — throw :class:`ChaosError` from the worker;
        ``"hang"`` — sleep ``seconds`` (default: effectively forever) so
        the watchdog must intervene;
        ``"exit"`` — ``os._exit(1)``: kill the worker process hard,
        breaking the pool;
        ``"corrupt"`` — signal the shard runner to mangle its payload;
        ``"sleep"`` — delay ``seconds`` then run normally (dilates a
        campaign without failing it; used by shutdown tests).

        Network kinds, emulated by the fabric worker agent
        (:meth:`ChaosSpec.fire_net`) when the site's shard arrives:
        ``"drop"`` — abort the connection and kill the agent hard
        (``os._exit``), the remote equivalent of ``exit``;
        ``"truncate"`` — send a torn result frame, then abort the
        connection and reconnect;
        ``"stall"`` — suppress heartbeat renewal (and delay the shard's
        result) for ``seconds``, forfeiting the lease;
        ``"replay"`` — send the shard's result frame twice.
    times:
        Fire on the first ``times`` visits of the site, then heal.
        ``None`` fires on every visit (a persistent fault).
    seconds:
        Duration for ``hang``/``sleep``.
    """

    kind: str
    times: int | None = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS + _NET_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; expected one of "
                f"{_KINDS + _NET_KINDS}"
            )
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")


@dataclass(frozen=True)
class ChaosSpec:
    """A schedule of per-site worker failures.

    ``actions`` maps fault sites to actions as a tuple of
    ``((row, col), action)`` pairs (a tuple, not a dict, so the spec is
    hashable and its iteration order is fixed). ``state_dir`` hosts the
    cross-process firing counters; required whenever any action is
    bounded (``times`` is not ``None``).
    """

    actions: tuple[tuple[tuple[int, int], ChaosAction], ...]
    state_dir: str | None = None

    def __post_init__(self) -> None:
        bounded = [a for _, a in self.actions if a.times is not None]
        if bounded and self.state_dir is None:
            raise ValueError(
                "ChaosSpec with bounded actions (times is not None) "
                "requires a state_dir for cross-process firing counters"
            )

    @classmethod
    def build(
        cls,
        actions: dict[tuple[int, int], ChaosAction],
        state_dir: str | Path | None = None,
    ) -> "ChaosSpec":
        """Canonical constructor from a site→action mapping."""
        ordered = tuple(
            (site, actions[site]) for site in sorted(actions)
        )
        return cls(
            actions=ordered,
            state_dir=str(state_dir) if state_dir is not None else None,
        )

    # ------------------------------------------------------------------
    def action_for(self, site: tuple[int, int]) -> ChaosAction | None:
        for target, action in self.actions:
            if target == site:
                return action
        return None

    def _consume(self, site: tuple[int, int], action: ChaosAction) -> bool:
        """True if the action should fire on this visit of ``site``.

        For bounded actions, appends one byte to the counter file and
        fsyncs before returning True, so the firing is durable even when
        the action is about to kill this process.
        """
        if action.times is None:
            return True
        assert self.state_dir is not None  # enforced by __post_init__
        counter = Path(self.state_dir) / (
            f"site-{site[0]}-{site[1]}-{action.kind}.count"
        )
        fired = counter.stat().st_size if counter.exists() else 0
        if fired >= action.times:
            return False
        with counter.open("ab") as stream:
            stream.write(b"x")
            stream.flush()
            os.fsync(stream.fileno())
        return True

    def fire(self, site: tuple[int, int]) -> bool:
        """Consult the schedule before running ``site`` in a worker.

        Returns ``True`` when a ``corrupt`` action fired (the shard
        runner mangles its payload); ``raise``/``hang``/``exit`` never
        return. Returns ``False`` when nothing fires. Network actions
        belong to the transport layer (:meth:`fire_net`) and are ignored
        here *without* consuming their firing budget.
        """
        action = self.action_for(site)
        if action is None or action.kind in _NET_KINDS:
            return False
        if not self._consume(site, action):
            return False
        if action.kind == "raise":
            raise ChaosError(f"injected crash at site {site}")
        if action.kind == "hang":
            time.sleep(action.seconds or 3600.0)
            raise ChaosError(f"injected hang at site {site} expired")
        if action.kind == "exit":
            os._exit(1)
        if action.kind == "sleep":
            time.sleep(action.seconds)
            return False
        return True  # corrupt

    def fire_net(self, site: tuple[int, int]) -> ChaosAction | None:
        """Consult the *network* schedule when ``site``'s shard reaches a
        fabric worker agent.

        Returns the :class:`ChaosAction` the agent must emulate
        (``drop``/``truncate``/``stall``/``replay``), consuming one
        firing from its budget, or ``None`` when nothing fires.
        Simulation kinds are ignored here without consuming — they fire
        inside the agent's process pool via :meth:`fire`, exactly as in
        the single-machine executor.
        """
        action = self.action_for(site)
        if action is None or action.kind not in _NET_KINDS:
            return None
        if not self._consume(site, action):
            return None
        return action
