"""Layer spans recorded from outside the program.

Each traced layer is a public function or method of a ``derange``
module.  While a ``Tracer`` is installed, every binding of that function
(its home module and every ``derange`` module that imported it by name)
is replaced by a wrapper that records a span: the call's duration, its self time (duration minus the time its
child spans cover) and a call count.  Leaving the ``with`` block restores
every binding, so untraced passes run the program unmodified.

``perm`` has no spans on purpose: a span around each composition would
cost more than the composition, so that cost shows as self time of the
``group`` and ``structure`` spans that call it.
"""

import sys
import time
from collections import Counter, defaultdict


def _count_normals(tr, result, args, kwargs):
    tr.counts["structure.normal_subgroups_found"] += len(result)


def _count_isos(tr, result, args, kwargs):
    if len(result):
        tr.counts["subdirect.iso_hits"] += 1


def _count_descriptors(tr, result, args, kwargs):
    tr.counts["subdirect.descriptors"] += len(result)


def _count_classes(tr, result, args, kwargs):
    tr.counts["subgroups.classes"] += len(result)


def _count_report(tr, result, args, kwargs):
    tr.counts["pipeline.pairs_checked"] += result.pairs_checked
    tr.counts["pipeline.products_checked"] += result.subdirect_products_checked


def _count_search(tr, result, args, kwargs):
    tr.counts["cover.covers_found"] += 1


def _count_check(tr, result, args, kwargs):
    if tr.parent == "cover.min_cover_search":
        tr.counts["cover.search_checks"] += 1


def _scan_size(field, d, normals):
    """Vectors a full scan visits and the bytes of the int64 arrays its
    numpy lane materializes for them (decoded vectors plus products);
    computed from the array sizes, not measured."""
    vectors = field.q**d
    planes = normals.shape[0] if normals.ndim == 2 else 1
    return vectors, 8 * vectors * d * (1 + planes)


def _count_scan(tr, result, args, kwargs):
    vectors, nbytes = _scan_size(*args[:3])
    tr.counts["kernels.scan_vectors"] += vectors
    tr.counts["kernels.scan_bytes_computed"] += nbytes


# (module, attribute path, span name, result hook); a dotted attribute
# path names a method.
LAYERS = [
    ("pipeline", "verify_degree", "pipeline.verify_degree", _count_report),
    ("corpus", "load_corpus", "corpus.load_corpus", None),
    ("corpus", "imprimitive_filter", "corpus.imprimitive_filter", None),
    ("corpus", "enumerate_transitive", "corpus.enumerate_transitive", None),
    ("structure", "normal_closure", "structure.normal_closure", None),
    ("structure", "normal_subgroups", "structure.normal_subgroups", _count_normals),
    ("structure", "conjugacy_classes", "structure.conjugacy_classes", None),
    ("structure", "sylow_subgroup", "structure.sylow_subgroup", None),
    ("subdirect", "quotient", "subdirect.quotient", None),
    ("subdirect", "quotient_isomorphisms", "subdirect.quotient_isomorphisms", _count_isos),
    ("subdirect", "goursat_enumerate", "subdirect.goursat_enumerate", _count_descriptors),
    ("subdirect", "materialize_group", "subdirect.materialize_group", None),
    ("subdirect", "subdirect_derangement", "subdirect.subdirect_derangement", None),
    ("group", "BSGS.extend", "group.bsgs_extend", None),
    ("group", "PermutationGroup.minimal_block_systems", "group.minimal_block_systems", None),
    ("group", "PermutationGroup.element_blocks", "group.element_blocks", None),
    ("derangements", "pndr", "derangements.pndr", None),
    ("derangements", "sylow_certificate", "derangements.sylow_certificate", None),
    ("subgroups", "ElementTable.of", "subgroups.element_table", None),
    ("subgroups", "ElementTable.closure", "subgroups.closure", None),
    ("subgroups", "ElementTable.conjugators", "subgroups.conjugators", None),
    ("subgroups", "subgroup_classes", "subgroups.subgroup_classes", _count_classes),
    ("gf", "FieldSpec.__init__", "gf.field_build", None),
    ("cover", "check_cover", "cover.check_cover", _count_check),
    ("cover", "min_cover_search", "cover.min_cover_search", _count_search),
    ("cover", "good_count_bruteforce", "cover.good_count_bruteforce", None),
    ("cover", "tight_cover_construct", "cover.tight_cover_construct", None),
    ("_kernels", "cover_all_scan", "kernels.cover_all_scan", _count_scan),
    ("_kernels", "good_count_scan", "kernels.good_count_scan", _count_scan),
    ("_kernels", "row_orders", "kernels.row_orders", None),
    ("_kernels", "fix_any_count", "kernels.fix_any_count", None),
]

# The first build of a group's stabilizer chain happens in this property;
# later reads return the memoized chain and get no span.
BSGS_SPAN = "group.bsgs"

CHAIN_OWNERS = (BSGS_SPAN, "structure.normal_closure")

SPAN_NAMES = [name for _, _, name, _ in LAYERS] + [BSGS_SPAN]


class Tracer:
    """Span bookkeeping: a stack of open spans plus per-name totals."""

    def __init__(self):
        self._stack = []  # [name, start, child seconds]
        self.paused = 0  # while positive, wrappers call through unrecorded
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    @property
    def innermost(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    @property
    def parent(self) -> str | None:
        """Name of the span that encloses the innermost one."""
        return self._stack[-2][0] if len(self._stack) > 1 else None

    def reset(self):
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.counts.clear()

    def _open(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur

    def call(self, name, fn, args, kwargs, hook):
        if self.paused:
            return fn(*args, **kwargs)
        self._open(name)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, result, args, kwargs)
            return result
        finally:
            self._close()

    def iterate(self, name, gen):
        """Span each step of a generator; the consumer's work between
        steps stays with the consumer's span."""
        if self.paused:
            yield from gen
            return
        while True:
            self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close()
            yield item


def _wrap_function(tr, name, fn, hook):
    def traced(*args, **kwargs):
        return tr.call(name, fn, args, kwargs, hook)

    traced.__wrapped__ = fn
    return traced


def _wrap_extend(tr, name, fn, hook=None):
    # a chain grown while a group's chain is first built, or while a
    # normal closure is computed, belongs to that span: the extensions
    # are how it does its work
    def traced(*args, **kwargs):
        if tr.paused or tr.innermost in CHAIN_OWNERS:
            return fn(*args, **kwargs)
        return tr.call(name, fn, args, kwargs, None)

    traced.__wrapped__ = fn
    return traced


def _wrap_generator(tr, name, fn, hook=None):
    def traced(*args, **kwargs):
        return tr.iterate(name, fn(*args, **kwargs))

    traced.__wrapped__ = fn
    return traced


WRAPPERS = {"BSGS.extend": _wrap_extend, "PermutationGroup.element_blocks": _wrap_generator}


class installed:
    """Context manager binding a tracer's wrappers into the program."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        import derange.group

        tr = self.tracer
        modules = [m for k, m in sys.modules.items() if k == "derange" or k.startswith("derange.")]
        try:
            for mod_name, path, name, hook in LAYERS:
                home = sys.modules[f"derange.{mod_name}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        self._set(cls, attr, classmethod(_wrap_function(tr, name, raw.__func__, hook)))
                    elif path in WRAPPERS:
                        self._set(cls, attr, WRAPPERS[path](tr, name, raw))
                    else:
                        self._set(cls, attr, _wrap_function(tr, name, raw, hook))
                    continue
                fn = getattr(home, path)
                traced = _wrap_function(tr, name, fn, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, attr, traced)
            self._set(derange.group.PermutationGroup, "bsgs", self._bsgs_property())
        except BaseException:
            self._restore()
            raise
        return tr

    def _bsgs_property(self):
        import derange.group

        tr = self.tracer
        build = derange.group.PermutationGroup.__dict__["bsgs"].fget

        def fget(group):
            if group._bsgs is not None:
                return group._bsgs
            return tr.call(BSGS_SPAN, build, (group,), {}, None)

        return property(fget)

    def _restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __exit__(self, *exc):
        self._restore()
        return False
