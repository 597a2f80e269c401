"""Transitive group corpora: builtin enumeration and fixture loading.

Small degrees are enumerated from scratch by the subgroup-lattice scan;
larger degrees come from generator files shipped as fixtures.  A corpus
entry carries the group plus the analysis flags the verification
pipeline needs (primitivity, proportion of non-derangements).
"""

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

from .derangements import PndrValue, pndr
from .group import ENUM_CAP, GroupError, PermutationGroup
from .perm import MAX_DEGREE, Perm
from .subgroups import ElementTable, subgroup_classes

BUILTIN_CAP = 7


@dataclass
class CorpusEntry:
    name: str
    group: PermutationGroup
    primitive: bool | None = None
    pndr: PndrValue | None = None


@dataclass
class GroupCorpus:
    degree: int
    entries: list[CorpusEntry]
    source: str

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _is_imprimitive(group: PermutationGroup) -> bool:
    """True iff the action on the first orbit has a nontrivial block
    system, so iff for some beta in it the block closure of (0, beta)
    leaves a point of the orbit outside 0's block; the first such beta
    ends the search."""
    orbit = group.orbit(0)
    return any((labels[orbit] > 0).any() for _, labels in group.block_closures())


def enumerate_transitive(n: int) -> GroupCorpus:
    """All transitive subgroups of Sym(n) up to conjugacy, for tiny n.

    Runs the breadth-first subgroup-lattice scan of the full symmetric
    group and keeps the transitive classes, so the output is complete by
    construction.  Entries are named T<n>.<i> in (order, lattice) order,
    hold their elements as read off the scan's element table, and carry
    primitivity plus exact non-derangement proportion.
    """
    if n < 2:
        raise GroupError("transitive enumeration needs degree at least 2")
    if n > BUILTIN_CAP:
        raise GroupError(
            f"builtin enumeration is capped at degree {BUILTIN_CAP}; "
            f"supply a fixture directory via load_corpus for degree {n}"
        )
    sym = PermutationGroup.symmetric(n)
    table = ElementTable.of(sym)
    entries = []
    i = 0
    for cls in subgroup_classes(sym, table):
        gens = [table.perm(k) for k in cls.gen_indices]
        if not PermutationGroup(n, gens).is_transitive():
            continue
        i += 1
        # the table's rows at the class's sorted indices are lex-sorted
        group = PermutationGroup.from_listing(table.rows[cls.indices], gens, name=f"T{n}.{i}")
        entries.append(
            CorpusEntry(
                name=f"T{n}.{i}",
                group=group,
                primitive=not _is_imprimitive(group),
                pndr=pndr(group, range(n)),
            )
        )
    return GroupCorpus(n, entries, "builtin-enumeration")


def parse_group_json(data, where: str) -> tuple[PermutationGroup, str | None]:
    """Validate one group document: degree plus generator image rows."""
    if not isinstance(data, dict):
        raise GroupError(f"{where}: expected a JSON object")
    degree = data.get("degree")
    # not isinstance: JSON true/false load as bool, a subclass of int
    if type(degree) is not int or not 1 <= degree <= MAX_DEGREE:
        raise GroupError(f"{where}: degree must be an integer in 1..{MAX_DEGREE}")
    gens_raw = data.get("generators")
    if not isinstance(gens_raw, list):
        raise GroupError(f"{where}: generators must be a list of image rows")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise GroupError(f"{where}: name must be a string")
    gens = []
    for idx, row in enumerate(gens_raw):
        if (
            not isinstance(row, list)
            or len(row) != degree
            or not all(type(v) is int for v in row)
            or sorted(row) != list(range(degree))
        ):
            raise GroupError(f"{where}: generator {idx} is not a bijection of 0..{degree - 1}")
        gens.append(Perm(row))
    return PermutationGroup(degree, gens, name=name), name


def group_json(group: PermutationGroup, name: str | None = None) -> dict:
    doc = {
        "degree": group.degree,
        "generators": [g.images.tolist() for g in group.generators],
    }
    label = name or group.name
    if label:
        doc["name"] = label
    return doc


def load_corpus(path, degree: int) -> GroupCorpus:
    """Read a directory of group files into a degree-checked corpus."""
    root = Path(path)
    if not root.is_dir():
        raise GroupError(f"corpus path {root} is not a directory")
    files = sorted(root.glob("*.json"))
    source = f"fixtures:{root}"
    if not files:
        warnings.warn(f"corpus directory {root} contains no group files", stacklevel=2)
        return GroupCorpus(degree, [], source)
    entries = []
    for f in files:
        try:
            data = json.loads(f.read_text())
        except json.JSONDecodeError as e:
            raise GroupError(f"{f.name}: invalid JSON ({e})") from None
        group, name = parse_group_json(data, f.name)
        if group.degree != degree:
            raise GroupError(f"{f.name}: degree {group.degree}, expected {degree}")
        if not group.is_transitive():
            raise GroupError(f"{f.name}: group is not transitive")
        entries.append(CorpusEntry(name=name or f.stem, group=group))
    entries.sort(key=lambda e: (e.group.order, e.name))
    return GroupCorpus(degree, entries, source)


def save_corpus(corpus: GroupCorpus, out_dir) -> list[Path]:
    """Write one JSON file per entry; returns the paths written."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for e in corpus.entries:
        path = root / f"{e.name.replace('.', '_')}.json"
        path.write_text(json.dumps(group_json(e.group, e.name), indent=1) + "\n")
        written.append(path)
    return written


def imprimitive_filter(corpus: GroupCorpus, enum_cap: int = ENUM_CAP) -> GroupCorpus:
    """Corpus restricted to entries with a nontrivial block system.

    Primitivity flags are filled in on the input entries as a side
    effect; kept entries get their exact non-derangement proportion
    computed if not already present, except that an entry of order over
    enum_cap is kept with pndr None.
    """
    kept = []
    for e in corpus.entries:
        if e.primitive is None:
            e.primitive = not _is_imprimitive(e.group)
        if e.primitive:
            continue
        if e.pndr is None and e.group.order <= enum_cap:
            e.pndr = pndr(e.group, range(corpus.degree), enum_cap=enum_cap)
        kept.append(e)
    return GroupCorpus(corpus.degree, kept, corpus.source)
