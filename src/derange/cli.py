"""Command line front ends.

Three entry points: `derange` drives the degree verification pipeline
and single-group queries, `lincover` exposes the hyperplane cover
counts and searches, `subdirect` lists Goursat descriptors for a pair
of group files.  Results go to stdout; diagnostics and errors go to
stderr.  Exit codes: 0 ok, 1 derangement absent or counterexample
found, 2 usage or input error, 3 partial (a resource cap was hit).
"""

import json
import sys
from pathlib import Path

import click

from .corpus import enumerate_transitive, load_corpus, parse_group_json, save_corpus
from .cover import check_cover, good_count_formula, min_cover_search, tight_cover_construct
from .derangements import Inconclusive, classify_case, find_derangement_detailed, pndr
from .gf import FieldError
from .group import GroupError, ResourceCapExceeded
from .perm import PermError
from .pipeline import VerifyCaps, emit_report, verify_degree
from .subdirect import goursat_enumerate, subdirect_derangement

INPUT_ERRORS = (GroupError, PermError, FieldError)


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _run(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ResourceCapExceeded as exc:
        click.echo(f"cap exceeded: {exc}", err=True)
        sys.exit(3)
    except Inconclusive as exc:
        click.echo(f"inconclusive: {exc}", err=True)
        sys.exit(3)
    except INPUT_ERRORS as exc:
        _fail(str(exc))


def _load_group(path):
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except OSError as exc:
        _fail(str(exc))
    except json.JSONDecodeError as exc:
        _fail(f"{p.name}: invalid JSON ({exc})")
    group, name = _run(parse_group_json, data, where=p.name)
    return group, name or p.stem


def _emit(doc) -> None:
    click.echo(json.dumps(doc, sort_keys=True))


@click.group()
def derange():
    """Derangement verification for groups with two equal orbits."""


@derange.command("verify")
@click.option("--degree", type=int, required=True, help="orbit length n")
@click.option("--corpus", "corpus_dir", type=click.Path(), default=None,
              help="directory of fixture group files (default: builtin enumeration)")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-order", type=int, default=None,
              help="skip corpus groups above this order (recorded as caps)")
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="write the canonical JSON report here ('-' for stdout)")
def verify_cmd(degree, corpus_dir, seed, max_order, json_path):
    """Check every subdirect product of imprimitive pairs of one degree."""
    caps = VerifyCaps(max_order=max_order)
    corpus = _run(load_corpus, corpus_dir, degree) if corpus_dir else None
    report = _run(verify_degree, degree, corpus=corpus, caps=caps, seed=seed)
    if json_path == "-":
        click.echo(emit_report(report, format="json"), nl=False)
    else:
        if json_path:
            Path(json_path).write_text(emit_report(report, format="json"))
            click.echo(f"json report written to {json_path}", err=True)
        click.echo(emit_report(report, format="human"), nl=False)
    sys.exit(report.exit_code)


@derange.command("enumerate")
@click.option("--degree", type=int, required=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def enumerate_cmd(degree, out_dir):
    """Write the builtin transitive corpus of one degree as group files."""
    corpus = _run(enumerate_transitive, degree)
    paths = save_corpus(corpus, out_dir)
    click.echo(f"{len(paths)} transitive groups of degree {degree} -> {out_dir}")


@derange.command("pndr")
@click.option("--group", "group_file", type=click.Path(), required=True)
def pndr_cmd(group_file):
    """Exact proportion of non-derangements of a group on its domain."""
    group, name = _load_group(group_file)
    value = _run(pndr, group, range(group.degree))
    _emit({
        "group": name,
        "pndr": {"num": str(value.numerator), "den": str(value.denominator)},
    })


@derange.command("derangement")
@click.option("--group", "group_file", type=click.Path(), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
def derangement_cmd(group_file, seed):
    """Find a fixed-point-free element, or verify that none exists."""
    group, name = _load_group(group_file)
    witness, method = _run(
        find_derangement_detailed, group, range(group.degree), seed=seed
    )
    _emit({
        "group": name,
        "derangement": None if witness is None else witness.images.tolist(),
        "method": method,
    })
    sys.exit(0 if witness is not None else 1)


@derange.command("classify")
@click.option("--n", type=int, required=True, help="orbit length")
def classify_cmd(n):
    """Which covering argument applies to orbit length n."""
    label = _run(classify_case, n)
    _emit({"n": str(n), "case": label})


@click.group()
def lincover():
    """Hyperplane cover counts and searches over small finite fields."""


@lincover.command("formula")
@click.option("--q", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--k", type=int, required=True)
def formula_cmd(q, d, k):
    """Closed-form count of good vectors for a weight-k normal."""
    value = _run(good_count_formula, q, d, k)
    _emit({"q": str(q), "d": str(d), "k": str(k), "count": str(value)})


@lincover.command("search")
@click.option("--q", type=int, required=True)
@click.option("--d", type=int, required=True)
def search_cmd(q, d):
    """Exhaustive minimal cover with trivial intersection."""
    size, cover = _run(min_cover_search, q, d)
    _emit({
        "q": str(q),
        "d": str(d),
        "size": str(size),
        "hyperplanes": [list(h.normal) for h in cover.hyperplanes],
    })


@lincover.command("tight")
@click.option("--q", type=int, required=True)
@click.option("--d", type=int, required=True)
def tight_cmd(q, d):
    """The d+q-1 construction: coordinate hyperplanes plus a pencil."""
    cover = _run(tight_cover_construct, q, d)
    covers_all, trivial, _ = _run(check_cover, cover)
    _emit({
        "q": str(q),
        "d": str(d),
        "size": str(len(cover.hyperplanes)),
        "covers_all": covers_all,
        "trivial_intersection": trivial,
        "hyperplanes": [list(h.normal) for h in cover.hyperplanes],
    })


@click.command()
@click.option("--g1", "g1_file", type=click.Path(), required=True)
@click.option("--g2", "g2_file", type=click.Path(), required=True)
@click.option("--check-derangements", "check", is_flag=True,
              help="decide derangement existence per subdirect product")
@click.option("--no-dedup", is_flag=True,
              help="keep conjugate descriptors instead of one per class")
def subdirect(g1_file, g2_file, check, no_dedup):
    """List the subdirect products of two groups as Goursat descriptors."""
    group1, _ = _load_group(g1_file)
    group2, _ = _load_group(g2_file)
    descs = _run(goursat_enumerate, group1, group2, dedup=not no_dedup)
    out = []
    absent = 0
    for desc in descs:
        rec = {
            "n1_order": str(desc.q1.kernel.order),
            "n2_order": str(desc.q2.kernel.order),
            "quotient_order": str(desc.quotient_order),
            "subgroup_order": str(desc.subgroup_order),
        }
        if check:
            witness = _run(subdirect_derangement, desc)
            rec["derangement"] = None if witness is None else witness.images.tolist()
            absent += witness is None
        out.append(rec)
    click.echo(json.dumps(out, sort_keys=True))
    sys.exit(1 if absent else 0)
