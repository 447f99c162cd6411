"""The benchmark corpus: KISS2 families on disk + generated populations.

The Table-1 suite (:mod:`repro.suite.registry`) is 13 machines; the corpus
scales validation to population size.  It is organised as *families*:

* **KISS families** are directories of ``.kiss2`` sources under the
  ``corpus/`` tree at the repo root (``mcnc`` hand-written classics,
  ``table1`` the registry stand-ins serialised through
  :mod:`repro.fsm.kiss`), parsed on load.  Their ledger identity is the
  SHA-256 of the file bytes.
* **Generated families** are seeded populations (hundreds of machines via
  :mod:`repro.fsm.random_machines` and the planted-structure generators)
  that exist only as JSON-able specs: every member is reconstructible from
  its ``{"generator": ..., **params}`` spec alone through
  :func:`repro.suite.registry.build_from_spec`, so sweep manifests embed
  the specs and a re-run needs no repository state at all.  Their ledger
  identity is the SHA-256 of the machine's canonical KISS2 serialisation.

Members are deterministically ordered (families in registration order,
members in name order) and shard stably across CI cells via
:func:`shard_of` (SHA-256 of the member id, independent of Python's
per-process hash seed).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ReproError
from ..fsm import MealyMachine, kiss
from .generators import PlantedMachine
from .registry import build_from_spec

CORPUS_ENV = "REPRO_CORPUS_ROOT"

# Population sizes (committed contract: the sharded golden corpus pins
# every member, so growing a family is a golden update, not a drift).
POP_SMALL = 360
POP_MEDIUM = 120
POP_STRUCTURED = 40
SEQUENTIAL_BITS = (2, 3, 4, 5)

# Planted shapes for the structured population: (k1, k2, n_states) with
# max(k1, k2) <= n_states <= k1 * k2, cycled over the member index.
_STRUCTURED_SHAPES = (
    (2, 2, 4),
    (2, 3, 5),
    (2, 3, 6),
    (3, 3, 6),
    (3, 3, 7),
    (2, 4, 7),
    (3, 3, 8),
    (2, 4, 8),
)


def corpus_root() -> str:
    """The ``corpus/`` tree (repo root by default, ``REPRO_CORPUS_ROOT`` wins)."""
    override = os.environ.get(CORPUS_ENV)
    if override:
        return override
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(here, "..", "..", "..", "corpus"))


def canonical_sha256(machine: MealyMachine) -> str:
    """Content hash of a machine: SHA-256 of its canonical KISS2 text.

    This is the ledger identity of generated corpus members -- stable
    across processes, platforms, and hash seeds, and sensitive to every
    transition, symbol, and the reset state.
    """
    return hashlib.sha256(kiss.dumps(machine).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CorpusMember:
    """One machine of the corpus, reconstructible from its ``spec``.

    ``kind == "kiss"`` members carry ``{"path": <relative path>}`` specs
    resolved against :func:`corpus_root`; ``kind == "generated"`` members
    carry generator specs for :func:`~repro.suite.registry.build_from_spec`.
    """

    family: str
    name: str
    kind: str  # "kiss" | "generated"
    spec: Mapping

    @property
    def member_id(self) -> str:
        return f"{self.family}/{self.name}"

    @property
    def path(self) -> Optional[str]:
        if self.kind != "kiss":
            return None
        return os.path.join(corpus_root(), *str(self.spec["path"]).split("/"))

    def build(self) -> MealyMachine:
        """Parse (kiss) or regenerate (generated) the member's machine."""
        if self.kind == "kiss":
            return kiss.load(self.path, name=self.name)
        if self.kind == "generated":
            built = build_from_spec(self.spec)
            if isinstance(built, PlantedMachine):
                return built.machine
            return built
        raise ReproError(f"unknown corpus member kind {self.kind!r}")

    def sha256(self, machine: Optional[MealyMachine] = None) -> str:
        """Ledger hash: file bytes for kiss members, canonical dump otherwise.

        ``machine`` is this member's already built machine, if the caller
        has one; a generated member then hashes it instead of building
        again.
        """
        if self.kind == "kiss":
            with open(self.path, "rb") as handle:
                return hashlib.sha256(handle.read()).hexdigest()
        return canonical_sha256(machine if machine is not None else self.build())

    def to_manifest(self, sha256: Optional[str] = None) -> Dict[str, object]:
        """The manifest/ledger record (everything a re-run needs).

        ``sha256`` is the member's ledger hash if already known (a sweep
        record carries it); otherwise it is computed.
        """
        return {
            "id": self.member_id,
            "family": self.family,
            "name": self.name,
            "kind": self.kind,
            "spec": dict(self.spec),
            "sha256": sha256 if sha256 is not None else self.sha256(),
        }


def member_from_manifest(record: Mapping) -> CorpusMember:
    """Rebuild a member from its manifest record (reproduction path)."""
    missing = [
        key for key in ("family", "name", "kind", "spec") if key not in record
    ]
    if missing:
        raise ReproError(f"manifest record lacks {missing}")
    spec = record["spec"]
    if not isinstance(spec, Mapping):
        raise ReproError("manifest record 'spec' must be a mapping")
    if record["kind"] == "kiss" and (
        not isinstance(spec.get("path"), str) or ".." in spec["path"].split("/")
    ):
        raise ReproError("a kiss member's spec needs a 'path' inside the corpus")
    return CorpusMember(
        family=str(record["family"]),
        name=str(record["name"]),
        kind=str(record["kind"]),
        spec=dict(spec),
    )


@dataclass(frozen=True)
class CorpusFamily:
    """A named group of corpus members sharing provenance."""

    name: str
    kind: str  # "kiss" | "generated"
    description: str
    members: Tuple[CorpusMember, ...]

    def __len__(self) -> int:
        return len(self.members)


def _kiss_family(name: str, description: str) -> CorpusFamily:
    directory = os.path.join(corpus_root(), name)
    members = []
    if os.path.isdir(directory):
        for filename in sorted(os.listdir(directory)):
            if not filename.endswith(".kiss2"):
                continue
            members.append(
                CorpusMember(
                    family=name,
                    name=filename[: -len(".kiss2")],
                    kind="kiss",
                    spec={"path": f"{name}/{filename}"},
                )
            )
    return CorpusFamily(name, "kiss", description, tuple(members))


def _generated_family(name, description, specs) -> CorpusFamily:
    members = tuple(
        CorpusMember(family=name, name=str(spec["name"]), kind="generated", spec=spec)
        for spec in specs
    )
    return CorpusFamily(name, "generated", description, members)


def _sequential_specs() -> List[Dict]:
    return [
        {"generator": "shift_register", "n_bits": bits, "name": f"shiftreg{bits}"}
        for bits in SEQUENTIAL_BITS
    ]


def _pop_small_specs() -> List[Dict]:
    return [
        {
            "generator": "random_mealy",
            "n_states": 3 + (k % 6),
            "n_inputs": 2,
            "n_outputs": 2,
            "seed": 1000 + k,
            "name": f"ps{k:04d}",
            "ensure_connected": True,
            "ensure_reduced": True,
        }
        for k in range(POP_SMALL)
    ]


def _pop_medium_specs() -> List[Dict]:
    return [
        {
            "generator": "random_mealy",
            "n_states": 9 + (k % 6),
            "n_inputs": 2,
            "n_outputs": 3,
            "seed": 5000 + k,
            "name": f"pm{k:04d}",
            "ensure_connected": True,
            "ensure_reduced": True,
        }
        for k in range(POP_MEDIUM)
    ]


def _pop_structured_specs() -> List[Dict]:
    specs = []
    for k in range(POP_STRUCTURED):
        k1, k2, n_states = _STRUCTURED_SHAPES[k % len(_STRUCTURED_SHAPES)]
        specs.append(
            {
                "generator": "grid_embedded",
                "k1": k1,
                "k2": k2,
                "n_states": n_states,
                "n_inputs": 2,
                "n_outputs": 2,
                "seed": 9000 + k,
                "name": f"gx{k:04d}",
            }
        )
    return specs


def families() -> Dict[str, CorpusFamily]:
    """All corpus families, in registration order (the corpus order)."""
    family_list = [
        _kiss_family(
            "mcnc",
            "hand-written fully specified classics (MCNC-style shapes)",
        ),
        _kiss_family(
            "table1",
            "the Table-1 registry stand-ins serialised as KISS2",
        ),
        _generated_family(
            "sequential",
            "serial shift registers of growing width",
            _sequential_specs(),
        ),
        _generated_family(
            "pop-small",
            f"{POP_SMALL} random reduced machines, 3-8 states",
            _pop_small_specs(),
        ),
        _generated_family(
            "pop-medium",
            f"{POP_MEDIUM} random reduced machines, 9-14 states",
            _pop_medium_specs(),
        ),
        _generated_family(
            "pop-structured",
            f"{POP_STRUCTURED} planted grid embeddings (nontrivial OSTR)",
            _pop_structured_specs(),
        ),
    ]
    return {family.name: family for family in family_list}


def members(
    family_filter: Optional[Sequence[str]] = None,
    limit: Optional[int] = None,
    shard_index: int = 0,
    shard_count: int = 1,
) -> List[CorpusMember]:
    """Corpus members in deterministic order, optionally filtered.

    ``family_filter`` selects families by name (corpus order preserved),
    ``limit`` caps members *per family* (deterministic prefix), and
    ``shard_index``/``shard_count`` keep only the members whose stable
    shard (:func:`shard_of`) matches -- the mechanism CI cells use to
    divide the corpus.
    """
    registry = families()
    if family_filter is None:
        selected = list(registry.values())
    else:
        unknown = sorted(set(family_filter) - set(registry))
        if unknown:
            raise ReproError(
                f"unknown corpus families {unknown}; available: {list(registry)}"
            )
        selected = [registry[name] for name in registry if name in set(family_filter)]
    if limit is not None and limit < 0:
        # A negative limit would silently slice members off the *end* of
        # each family (Python slicing semantics) -- an easy way to sweep
        # 11 of 12 machines while believing you swept them all.
        raise ReproError(f"limit must be >= 0, got {limit}")
    if shard_count < 1 or not (0 <= shard_index < shard_count):
        raise ReproError(
            f"invalid shard {shard_index}/{shard_count}: need 0 <= index < count"
        )
    out: List[CorpusMember] = []
    for family in selected:
        chosen = family.members[: limit if limit is not None else len(family.members)]
        out.extend(
            member
            for member in chosen
            if shard_of(member.member_id, shard_count) == shard_index
        )
    return out


def shard_of(member_id: str, shard_count: int) -> int:
    """Stable shard assignment: SHA-256 of the member id, mod shard count."""
    if shard_count <= 1:
        return 0
    digest = hashlib.sha256(member_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shard_count
