"""End-to-end verification that the two-equal-orbit groups of one
degree whose projections are imprimitive have derangements.

For a degree n: every subdirect product of two transitive imprimitive
groups of degree n is a group with two equal orbits, and the verdict
covers those only.  A group with two equal orbits is a subdirect
product of its two transitive projections, but these may be primitive,
and pairs with a primitive factor are not checked (ROADMAP item 4).
Pairs whose non-derangement proportions sum below 1 cannot lack a
derangement (the proportions add under the two projections), so they
are pruned exactly; the survivors are enumerated by Goursat descriptors
and checked coset by coset.
"""

import json
import time
from dataclasses import dataclass, field

from .corpus import GroupCorpus, enumerate_transitive, imprimitive_filter
from .derangements import count_nonderangements, pndr_pair_bound
from .group import ENUM_CAP, GroupError, ResourceCapExceeded
from .structure import CLASS_CAP, normal_subgroups
from .subdirect import (
    ISO_CAP,
    QUOTIENT_CAP,
    goursat_enumerate,
    materialize_group,
    subdirect_derangement,
)


@dataclass(frozen=True)
class VerifyCaps:
    max_order: int | None = None
    # caps only the class tables behind normal_subgroups; counts are scans
    class_cap: int = CLASS_CAP
    enum_cap: int = ENUM_CAP
    quotient_cap: int = QUOTIENT_CAP
    iso_cap: int = ISO_CAP

    def as_strings(self) -> dict:
        return {
            "max_order": "none" if self.max_order is None else str(self.max_order),
            "class_cap": str(self.class_cap),
            "enum_cap": str(self.enum_cap),
            "quotient_cap": str(self.quotient_cap),
            "iso_cap": str(self.iso_cap),
        }


@dataclass
class VerificationReport:
    degree: int
    corpus_size: int
    imprimitive_count: int
    pairs_total: int
    pairs_pruned: int
    pairs_checked: int
    subdirect_products_checked: int
    counterexamples: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    caps_hit: list = field(default_factory=list)
    seed: int = 0
    wall_time: float = 0.0
    source: str = ""
    caps: VerifyCaps = field(default_factory=VerifyCaps)

    @property
    def verdict(self) -> str:
        if self.counterexamples:
            return "counterexample"
        if self.caps_hit:
            return "partial"
        return "verified"

    @property
    def exit_code(self) -> int:
        return {"verified": 0, "counterexample": 1, "partial": 3}[self.verdict]


def verify_degree(
    n: int,
    corpus: GroupCorpus | None = None,
    caps: VerifyCaps | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Check every subdirect product of imprimitive transitive pairs of
    degree n for a derangement; full provenance in the report."""
    t0 = time.perf_counter()
    caps = caps or VerifyCaps()
    if corpus is None:
        corpus = enumerate_transitive(n)
    if corpus.degree != n:
        raise GroupError(f"corpus degree {corpus.degree} does not match requested {n}")

    report = VerificationReport(
        degree=n,
        corpus_size=len(corpus),
        imprimitive_count=0,
        pairs_total=0,
        pairs_pruned=0,
        pairs_checked=0,
        subdirect_products_checked=0,
        seed=seed,
        source=corpus.source,
        caps=caps,
    )

    imp = imprimitive_filter(corpus, enum_cap=caps.enum_cap)
    entries = []
    for e in imp.entries:
        if caps.max_order is not None and e.group.order > caps.max_order:
            reason = f"group order {e.group.order} over max-order {caps.max_order}"
        elif e.pndr is None:
            reason = f"group order {e.group.order} over enumeration cap {caps.enum_cap}"
        else:
            entries.append(e)
            continue
        report.caps_hit.append({"item": e.name, "reason": reason})
    m = len(entries)
    report.imprimitive_count = m
    report.pairs_total = m * (m + 1) // 2

    normals_cache: dict[int, list] = {}

    def normals(idx):
        if idx not in normals_cache:
            normals_cache[idx] = normal_subgroups(entries[idx].group, class_cap=caps.class_cap)
        return normals_cache[idx]

    pair_index = -1
    for i in range(m):
        for j in range(i, m):
            pair_index += 1
            e1, e2 = entries[i], entries[j]
            if pndr_pair_bound(e1.pndr, e2.pndr) < 1:
                report.pairs_pruned += 1
                continue
            report.pairs_checked += 1
            pair_label = f"{e1.name}|{e2.name}"
            try:
                descs = goursat_enumerate(
                    e1.group,
                    e2.group,
                    dedup=True,
                    quotient_cap=caps.quotient_cap,
                    iso_cap=caps.iso_cap,
                    normals1=normals(i),
                    normals2=normals(j),
                )
            except ResourceCapExceeded as exc:
                report.caps_hit.append({"item": pair_label, "reason": str(exc)})
                continue
            for d_idx, desc in enumerate(descs):
                report.subdirect_products_checked += 1
                witness = subdirect_derangement(desc)
                record = {
                    "pair": [e1.name, e2.name],
                    "pair_index": pair_index,
                    "descriptor": d_idx,
                    "kernel_orders": [desc.q1.kernel.order, desc.q2.kernel.order],
                    "quotient_order": desc.quotient_order,
                    "subgroup_order": desc.subgroup_order,
                }
                if witness is not None:
                    record["witness"] = witness.images.tolist()
                    report.witnesses.append(record)
                    continue
                # a candidate counterexample must survive a direct scan
                if desc.subgroup_order > caps.enum_cap:
                    report.caps_hit.append(
                        {
                            "item": pair_label,
                            "reason": (
                                f"descriptor {d_idx} reported no derangement but its "
                                f"order {desc.subgroup_order} is over the scan cap"
                            ),
                        }
                    )
                    continue
                group = materialize_group(desc)
                fixers = count_nonderangements(group, range(group.degree), enum_cap=caps.enum_cap)
                if fixers < group.order:
                    raise GroupError(
                        f"coset analysis and direct scan disagree on {pair_label} "
                        f"descriptor {d_idx}"
                    )
                record["witness"] = None
                report.counterexamples.append(record)

    if report.pairs_pruned + report.pairs_checked != report.pairs_total:
        raise GroupError(
            f"pair accounting: {report.pairs_pruned} pruned + {report.pairs_checked} "
            f"checked != {report.pairs_total} total"
        )
    report.wall_time = time.perf_counter() - t0
    return report


def _sorted_records(records):
    return sorted(records, key=lambda r: (r.get("pair_index", -1), r.get("descriptor", -1), r.get("item", "")))


def emit_report(report: VerificationReport, format: str = "json") -> str:
    """Serialize a report: canonical JSON (stable bytes for a given seed
    and caps; wall time deliberately excluded) or a human table."""
    if format == "json":
        def fix(rec):
            out = {}
            for k, v in rec.items():
                if isinstance(v, bool):
                    out[k] = v
                elif isinstance(v, int):
                    out[k] = str(v)
                elif isinstance(v, list) and k == "kernel_orders":
                    out[k] = [str(x) for x in v]
                else:
                    out[k] = v
            return out

        doc = {
            "degree": str(report.degree),
            "corpus_size": str(report.corpus_size),
            "imprimitive_count": str(report.imprimitive_count),
            "pairs_total": str(report.pairs_total),
            "pairs_pruned": str(report.pairs_pruned),
            "pairs_checked": str(report.pairs_checked),
            "subdirect_products_checked": str(report.subdirect_products_checked),
            "counterexamples": [fix(r) for r in _sorted_records(report.counterexamples)],
            "witnesses": [fix(r) for r in _sorted_records(report.witnesses)],
            "caps_hit": _sorted_records(report.caps_hit),
            "seed": str(report.seed),
            "source": report.source,
            "caps": report.caps.as_strings(),
            "verdict": report.verdict,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if format == "human":
        lines = [
            f"degree {report.degree}: verdict {report.verdict}",
            f"  corpus: {report.corpus_size} transitive, {report.imprimitive_count} imprimitive ({report.source})",
            f"  pairs: {report.pairs_total} total = {report.pairs_pruned} pruned + {report.pairs_checked} checked",
            f"  subdirect products checked: {report.subdirect_products_checked}",
            f"  witnesses recorded: {len(report.witnesses)}",
            f"  counterexamples: {len(report.counterexamples)}",
            f"  caps hit: {len(report.caps_hit)}",
            f"  seed: {report.seed}",
            f"  wall time: {report.wall_time:.2f}s",
        ]
        for rec in _sorted_records(report.caps_hit):
            lines.append(f"  cap: {rec['item']}: {rec['reason']}")
        for rec in _sorted_records(report.counterexamples):
            lines.append(
                f"  COUNTEREXAMPLE pair {rec['pair'][0]},{rec['pair'][1]} "
                f"descriptor {rec['descriptor']} order {rec['subgroup_order']}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format: {format}")
