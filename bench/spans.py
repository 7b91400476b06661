"""Spans around calls into proofbench's modules, recorded from outside.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` rebinds each traced
function in every ``proofbench`` module that imported it (for example both
``proofbench.audit.assemble_pool`` and ``proofbench.engine.assemble_pool``),
two engine methods on their classes, and recognizer ``contains`` through a
descriptor on :class:`~proofbench.schemata.AxiomSetRecognizer`.

A span holds a name, start and end (``perf_counter_ns``), the index of its
parent span and the current item id.  A call made while the innermost open
span has the same name gets no span of its own, so a recursive function or a
family of functions that call each other is timed once, at its outermost
call.  The recursive functions ``eval_arith`` and ``eval_skeleton`` are only
rebound at their import sites outside ``proofbench.semantics``, so their inner
recursion runs untouched.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from proofbench import audit, engine, parser, proofs, schemata, semantics, syntax, transforms


def _steps(p) -> int:
    return len(p.steps)


def _transform_in(args) -> int:
    # deduction_transform(proof, ...); reductio/explosion_transform(pos, neg, ...)
    return sum(len(a.steps) for a in args[:2] if isinstance(a, proofs.Proof))


# (span name, defining module, function name, patch the defining module too,
#  observer called with (tracer, args, result) after each span it opens)
_FUNCTIONS = (
    ("syntax.substitute", syntax, "substitute", True, None),
    ("parser.parse", parser, "parse", True, None),
    ("parser.render", parser, "render", True, None),
    ("schemata.match", schemata, "match_schema", True, None),
    ("proofs.check", proofs, "check_proof", True,
     lambda t, a, r: t.counts.update({"proofs.check_steps": _steps(a[0])})),
    ("proofs.script_parse", proofs, "parse_proof_script", True, None),
    ("proofs.script_render", proofs, "render_proof_script", True, None),
    ("transforms", transforms, "deduction_transform", True,
     lambda t, a, r: t.counts.update({"transforms.in_steps": _transform_in(a),
                               "transforms.out_steps": _steps(r)})),
    ("transforms", transforms, "reductio_transform", True,
     lambda t, a, r: t.counts.update({"transforms.in_steps": _transform_in(a),
                               "transforms.out_steps": _steps(r)})),
    ("transforms", transforms, "explosion_transform", True,
     lambda t, a, r: t.counts.update({"transforms.in_steps": _transform_in(a),
                               "transforms.out_steps": _steps(r)})),
    ("engine.pool", engine, "assemble_pool", True,
     lambda t, a, r: t.counts.update({"engine.pool_size": len(r)})),
    ("engine.sorted_pool", engine, "sorted_pool", True, None),
    ("engine.prove", engine, "prove", True,
     lambda t, a, r: t.counts.update({"engine.prove_found": int(r.proof is not None),
                               "engine.search_steps": r.report.steps_expended})),
    ("semantics.skeleton", semantics, "skeletonize", True, None),
    ("semantics.skeleton", semantics, "skeletonize_all", True,
     lambda t, a, r: t.note_width(len(r[1]))),
    ("semantics.skeleton", semantics, "is_tautology", True, None),
    ("semantics.skeleton", semantics, "falsifying_valuation", True, None),
    ("semantics.skeleton", semantics, "skeleton_entails", True, None),
    ("semantics.skeleton", semantics, "satisfying_valuation", True, None),
    ("semantics.skeleton", semantics, "eval_skeleton", False, None),
    ("semantics.eval_arith", semantics, "eval_arith", False, None),
    ("semantics.eval_arith", semantics, "arith_counterexample", False, None),
    ("audit.claim", audit, "run_claim", True, None),
    ("audit.premises", audit, "_semantic_premises", True, None),
    ("audit.refutation", audit, "refutation_valuation", True,
     lambda t, a, r: t.counts.update({"audit.refuted": int(r is not None)})),
    ("audit.strict_check", audit, "_strict_check", True, None),
    ("audit.write", audit, "write_report", True, None),
    ("audit.recheck", audit, "recheck_report", True, None),
)

# (span name, class, method name, observer)
_METHODS = (
    ("engine.closure", engine._Saturation, "run",
     lambda t, a, r: t.counts.update({"engine.closure_steps": r.report.steps_expended})),
    ("engine.proof_of", engine.ClosureState, "proof_of",
     lambda t, a, r: t.counts.update({"engine.proof_of_steps": _steps(r)})),
)


class Tracer:
    """In-memory spans plus counters, recorded while :attr:`active` is set."""

    def __init__(self) -> None:
        self.active = False
        self.item: str | None = None
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self.atoms_max = 0
        # per open span: [span index, name, start ns, ns covered by children]
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _call(self, name, fn, observe, args, kwargs):
        stack = self._stack
        if not self.active or (stack and stack[-1][1] == name):
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        parent = stack[-1][0] if stack else -1
        frame = [idx, name, perf_counter_ns(), 0]
        stack.append(frame)
        try:
            out = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            if stack:
                stack[-1][3] += end - frame[2]
            self.spans[idx] = (name, frame[2], end, parent, self.item, frame[3])
        if observe is not None:
            observe(self, args, out)
        return out

    def _wrap(self, name, fn, observe):
        def traced(*args, **kwargs):
            return self._call(name, fn, observe, args, kwargs)

        return traced

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- installing and removing the patches ------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "proofbench"]
        for name, home, attr, patch_home, observe in _FUNCTIONS:
            fn = getattr(home, attr)
            wrapper = self._wrap(name, fn, observe)
            for mod in modules:
                if mod is home and not patch_home:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, cls, attr, observe in _METHODS:
            fn = vars(cls)[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn, observe))
        self._undo.append((semantics, "_check_width", semantics._check_width))
        semantics._check_width = self._width_probe(semantics._check_width)
        # recognizers keep ``contains`` as an instance field; a data descriptor
        # on the class takes precedence over the instance dict
        schemata.AxiomSetRecognizer.contains = _TracedContains(self)
        self.active = True

    def note_width(self, n: int) -> None:
        """Record the atom count of one skeleton sweep."""
        self.atoms_max = max(self.atoms_max, n)

    def _width_probe(self, fn):
        # the semantics sweeps report their atom count to _check_width
        def probe(n):
            if self.active:
                self.note_width(n)
            return fn(n)

        return probe

    def uninstall(self) -> None:
        self.active = False
        del schemata.AxiomSetRecognizer.contains
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """Per span name: [spans, inclusive ns, self ns]."""
        out: dict[str, list[int]] = {}
        for name, start, end, _parent, _item, child_ns in self.spans:
            t = out.setdefault(name, [0, 0, 0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child_ns
        return out

    def write(self, path: Path) -> None:
        """One tab-separated line per span: index, name, start, end, parent, item."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\titem\n")
            for i, (name, start, end, parent, item, _child) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{item}\n")


class _TracedContains:
    """Data descriptor wrapping each recognizer's ``contains`` in a span."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        fn = obj.__dict__["contains"]
        tracer = self.tracer
        if not tracer.active:
            return fn
        return lambda f: tracer._call("schemata.contains", fn, None, (f,), {})

    def __set__(self, obj, value) -> None:
        obj.__dict__["contains"] = value
