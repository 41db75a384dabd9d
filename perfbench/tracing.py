"""Outside-in tracing of the incgb modules.

``Tracer.install`` replaces every public function of every incgb module with
a timing wrapper, and rebinds the name in each module that imported it with
``from ... import``, so calls between modules are seen too.  Nothing inside
the package changes.

Functions named in ``SPAN_NAMES`` are the coarse boundaries: each call is a
span (name, start, end, parent span, run id) kept in memory, up to
``MAX_SPANS``.  Every other function is a leaf kernel, called up to millions
of times in a run; its calls are aggregated as count and time per parent
span.  Self time is a call's duration minus the time its traced children
cover.  ``write_jsonl`` writes spans and aggregates when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json

MAX_SPANS = 200_000

SPAN_NAMES = frozenset(
    {
        "buchberger.egb_buchberger",
        "buchberger.egb_incremental",
        "signature.egb_signature",
        "buchberger.autoreduce",
        "buchberger.classical_buchberger",
        "buchberger.is_egb",
        "buchberger.orbit_truncate",
        "poly.normal_form",
        "spairs.spair_generators",
        "signature.is_covered",
        "signature.regular_top_reduce",
        "signature.j_pairs",
        "problems.parse",
        "cli.main",
    }
)


def _length(args, kwargs, result):
    return len(result), False


def _nonempty(args, kwargs, result):
    return 0, bool(result)


def _zero_result(args, kwargs, result):
    nf = result[0] if isinstance(result, tuple) else result
    return 0, nf.is_zero


def _terms_in(args, kwargs, result):
    terms = args[1] if len(args) > 1 else kwargs["term_iter"]
    return len(terms), False


# What a call produced: (items, hit), summed per function.  Items count the
# elements of a returned list (or of a returned generator, as it is
# consumed); a hit is a call whose result answers yes.
MEASURES = {
    "spairs.interlacings": _length,
    "spairs.spair_generators": _length,
    "signature.j_pairs": _length,
    "rings.pi_div_witnesses": _nonempty,
    "signature.is_covered": _nonempty,
    "poly.normal_form": _zero_result,
    "poly.poly": _terms_in,
}


class FnStats:
    __slots__ = ("calls", "total_s", "self_s", "items", "hits")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0
        self.hits = 0

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self, clock):
        self._clock = clock
        self.phase = ""
        self.phases = {}  # phase name -> {qualname: FnStats}
        self.items_by_parent = {}  # phase name -> {(parent span name, qualname): items}
        self.spans = []  # (phase, id, name, parent id, start, end, self_s)
        self.aggregates = {}  # (phase, parent id, qualname) -> [calls, total_s, self_s]
        self.dropped_spans = 0
        self._stats = None
        self._by_parent = None
        self._stack = []  # per active call: [child seconds, nearest span id, its name]
        self._next_id = 0
        self._origin = clock()
        self._bindings = []  # (module, name, original)

    def start_phase(self, name):
        self.phase = name
        self._stats = self.phases.setdefault(name, {})
        self._by_parent = self.items_by_parent.setdefault(name, {})

    # --- installation -------------------------------------------------

    def install(self, modules):
        """Wrap the public functions defined in ``modules``; rebind everywhere."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self):
        for mod, name, original in reversed(self._bindings):
            setattr(mod, name, original)
        self._bindings.clear()

    # --- wrappers -----------------------------------------------------

    def _wrap(self, qualname, fn):
        tracer = self
        is_span = qualname in SPAN_NAMES
        measure = MEASURES.get(qualname)
        materialize = qualname == "poly.poly"
        perf = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if materialize and len(args) > 1 and not isinstance(args[1], (list, tuple)):
                args = (args[0], list(args[1])) + args[2:]
            stats = tracer._stats
            st = stats.get(qualname)
            if st is None:
                st = stats[qualname] = FnStats()
            stack = tracer._stack
            if stack:
                _, parent_id, parent_name = stack[-1]
            else:
                parent_id, parent_name = None, ""
            span_id = None
            if is_span:
                if tracer._next_id < MAX_SPANS:
                    span_id = tracer._next_id
                    tracer._next_id += 1
                else:
                    tracer.dropped_spans += 1
            frame = (
                [0.0, span_id, qualname]
                if span_id is not None
                else [0.0, parent_id, parent_name]
            )
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer._account(st, qualname, t0, t1, frame, span_id, parent_id)
            if inspect.isgenerator(result):
                return tracer._iterate(result, st, qualname, parent_id, parent_name)
            if measure is not None:
                items, hit = measure(args, kwargs, result)
                tracer._count(st, qualname, parent_name, items, hit)
            return result

        return traced

    def _account(self, st, qualname, t0, t1, frame, span_id, parent_id, call=True):
        dur = t1 - t0
        self_s = dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        if call:
            st.calls += 1
        st.total_s += dur
        st.self_s += self_s
        if span_id is not None:
            self.spans.append(
                (self.phase, span_id, qualname, parent_id, t0 - self._origin, t1 - self._origin, self_s)
            )
        else:
            key = (self.phase, parent_id, qualname)
            agg = self.aggregates.get(key)
            if agg is None:
                agg = self.aggregates[key] = [0, 0.0, 0.0]
            agg[0] += call
            agg[1] += dur
            agg[2] += self_s

    def _count(self, st, qualname, parent_name, items, hit):
        st.items += items
        st.hits += hit
        if items:
            key = (parent_name, qualname)
            self._by_parent[key] = self._by_parent.get(key, 0) + items

    def _iterate(self, gen, st, qualname, parent_id, parent_name):
        """Re-yield a traced function's generator, timing each resumption."""
        perf = self._clock
        while True:
            frame = [0.0, parent_id, parent_name]
            self._stack.append(frame)
            t0 = perf()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                t1 = perf()
                self._stack.pop()
                self._account(st, qualname, t0, t1, frame, None, parent_id, call=False)
            self._count(st, qualname, parent_name, 1, False)
            yield item

    # --- output -------------------------------------------------------

    def write_jsonl(self, path, meta):
        """Spans, then aggregates, then per-function totals, one JSON per line.

        A span's ``run`` is its phase and the id of its root span, so all
        spans of one top-level call share it.
        """
        parent_of = {sid: parent for _, sid, _, parent, _, _, _ in self.spans}

        def run_of(phase, sid):
            while parent_of.get(sid) is not None:
                sid = parent_of[sid]
            return f"{phase}:{sid}"

        with open(path, "w") as out:
            head = dict(meta, type="meta", max_spans=MAX_SPANS, dropped_spans=self.dropped_spans)
            out.write(json.dumps(head) + "\n")
            for phase, sid, name, parent, start, end, self_s in self.spans:
                row = {
                    "type": "span",
                    "run": run_of(phase, sid),
                    "id": sid,
                    "name": name,
                    "parent": parent,
                    "start": start,
                    "end": end,
                    "self_s": self_s,
                }
                out.write(json.dumps(row, separators=(",", ":")) + "\n")
            for (phase, parent, name), (calls, total_s, self_s) in self.aggregates.items():
                row = {
                    "type": "aggregate",
                    "run": run_of(phase, parent),
                    "parent": parent,
                    "name": name,
                    "calls": calls,
                    "total_s": total_s,
                    "self_s": self_s,
                }
                out.write(json.dumps(row, separators=(",", ":")) + "\n")
            for phase, stats in self.phases.items():
                for name, st in sorted(stats.items()):
                    row = dict(st.as_dict(), type="function", phase=phase, name=name)
                    out.write(json.dumps(row, separators=(",", ":")) + "\n")
