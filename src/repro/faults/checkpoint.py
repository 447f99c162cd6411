"""Crash-safe campaign checkpoints (snapshot / resume of outcome arrays).

A long fault-simulation campaign is a pure function from ``(subject,
session parameters, schedule)`` to a per-fault outcome-code array, and
every fault's code is computed independently -- so a campaign that died
half-way can resume from any prefix of completed codes and still produce
the bit-identical :class:`~repro.faults.coverage.CoverageReport` of an
uninterrupted run.  :class:`CampaignCheckpoint` is that prefix on disk:

* the file is keyed by a SHA-256 digest of the pickled subject *and* the
  full campaign token (cycles, seed, dropping, session options, collapse
  mode, and a digest of the exact scheduled fault sequence), so a stale
  checkpoint from a different campaign is ignored, never merged.  The
  subject digest is the same SHA-256-of-pickle identity the
  :class:`~repro.faults.pool.CampaignPool` subject cache uses (it was
  SHA-1 before the unification, so
  checkpoints from older versions key differently and are treated as
  "no checkpoint" -- the campaign restarts from scratch rather than
  resuming from a mismatched snapshot);
* codes are stored as a JSON array aligned with the schedule,
  ``-1`` marking still-unresolved entries;
* writes go through a temporary file + :func:`os.replace`, so a crash
  *during* checkpointing leaves the previous snapshot intact;
* ``save`` is rate-limited by ``interval`` seconds (``flush=True``
  bypasses the limit -- used for final/on-failure snapshots);
* ``clear`` removes the file once the campaign completes.

The engine (:func:`repro.faults.engine.run_campaign`) owns the checkpoint
object and threads resume arrays / progress callbacks through whichever
scheduler runs the campaign; see the ``checkpoint=`` parameter there and
on :func:`repro.faults.coverage.measure_coverage`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import List, Optional

from ..exceptions import ReproError

__all__ = ["CampaignCheckpoint", "campaign_key"]

#: outcome-code sentinel for "not resolved yet" (matches the schedulers'
#: shared-array initialisation).
UNRESOLVED = -1

_VERSION = 1


def campaign_key(subject_digest: str, token) -> str:
    """Stable key of one campaign: subject digest + session token digest."""
    text = repr((subject_digest, token)).encode("utf-8")
    return hashlib.sha256(text).hexdigest()


class CampaignCheckpoint:
    """One campaign's on-disk snapshot of the per-fault outcome array."""

    def __init__(
        self,
        path: str,
        key: str,
        total: int,
        interval: float = 5.0,
    ) -> None:
        if interval < 0:
            raise ReproError(
                f"checkpoint interval must be >= 0, got {interval}"
            )
        self.path = path
        self.key = key
        self.total = total
        self.interval = interval
        self._last_save: Optional[float] = None

    # -- persistence ---------------------------------------------------------

    def load(self) -> Optional[List[int]]:
        """Completed codes of a previous run, or ``None`` to start fresh.

        A missing, unreadable, or mismatched file (different campaign key
        or schedule length -- e.g. the subject or the session parameters
        changed since the snapshot) is treated as "no checkpoint": the
        campaign starts from scratch and overwrites it.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("version") != _VERSION
            or data.get("key") != self.key
            or data.get("total") != self.total
        ):
            return None
        codes = data.get("codes")
        if not isinstance(codes, list) or len(codes) != self.total:
            return None
        return [int(code) for code in codes]

    def save(self, codes: List[int], flush: bool = False) -> bool:
        """Atomically snapshot ``codes``; returns True when written.

        Rate-limited to one write per ``interval`` seconds unless
        ``flush`` forces it (the final / on-failure snapshot must never
        be dropped by the limiter).
        """
        now = time.monotonic()
        if (
            not flush
            and self._last_save is not None
            and now - self._last_save < self.interval
        ):
            return False
        if len(codes) != self.total:
            raise ReproError(
                f"checkpoint expects {self.total} codes, got {len(codes)}"
            )
        payload = {
            "version": _VERSION,
            "key": self.key,
            "total": self.total,
            "completed": sum(1 for code in codes if code != UNRESOLVED),
            "codes": [int(code) for code in codes],
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        temp_path = f"{self.path}.tmp.{os.getpid()}"
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(temp_path, self.path)
        self._last_save = now
        return True

    def clear(self) -> None:
        """Remove the snapshot (the campaign completed)."""
        try:
            os.remove(self.path)
        except OSError:
            pass

    # -- housekeeping ---------------------------------------------------------

    @staticmethod
    def gc(directory: str, max_age: float = 7 * 86400.0) -> dict:
        """Sweep a checkpoint directory of dead snapshots.

        Removes files that can never be resumed from: snapshots older
        than ``max_age`` seconds (their campaign is long gone), orphaned
        ``.tmp.<pid>`` files a crash left mid-:meth:`save`, and
        pre-version / pre-SHA-256 snapshots that no current campaign key
        can match (unreadable JSON, wrong ``version``, or a ``key`` that
        is not a 64-hex SHA-256 digest).  Recent, well-formed snapshots
        are exactly the resumable ones and are kept.  Returns
        ``{"removed": [names], "kept": [names]}``, each sorted.
        """
        if max_age < 0:
            raise ReproError(f"gc max_age must be >= 0, got {max_age}")
        removed: List[str] = []
        kept: List[str] = []
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return {"removed": removed, "kept": kept}
        # Deliberate wall-clock: age-based housekeeping is about real
        # elapsed time, not campaign determinism.
        now = time.time()
        for name in names:
            path = os.path.join(directory, name)
            if not os.path.isfile(path):
                continue
            reason = None
            if ".tmp." in name:
                reason = "orphaned temp file"
            else:
                try:
                    age = now - os.path.getmtime(path)
                except OSError:
                    continue
                if age > max_age:
                    reason = "stale"
                else:
                    try:
                        with open(path, "r", encoding="utf-8") as handle:
                            data = json.load(handle)
                    except (OSError, ValueError):
                        data = None
                    key = data.get("key") if isinstance(data, dict) else None
                    if (
                        not isinstance(data, dict)
                        or data.get("version") != _VERSION
                        or not isinstance(key, str)
                        or len(key) != 64
                        or any(c not in "0123456789abcdef" for c in key)
                    ):
                        reason = "unresumable (pre-version or pre-sha256)"
            if reason is None:
                kept.append(name)
                continue
            try:
                os.remove(path)
                removed.append(name)
            except OSError:
                kept.append(name)
        return {"removed": removed, "kept": kept}
