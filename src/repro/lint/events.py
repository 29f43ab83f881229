"""SIM3xx — event-safety rules.

The event engine runs callbacks at a later simulation time than they
were created, which makes two Python footguns fatal rather than merely
ugly:

* SIM301 — a mutable default argument on a callback persists across
  events, so one event's state leaks into the next.
* SIM302 — a closure created in a loop and scheduled (or stored) for
  later reads its loop variable *late-bound*: by the time the engine
  fires it, every closure sees the final iteration's value.  The fix is
  the default-argument binding idiom (``lambda v=vm: ...``), which this
  rule recognizes and accepts.
* SIM303 — code outside ``repro/sim/`` reaching into the scheduler's
  internals (``_heap``, ``_seq``, ``_ready``).  The engine's run loops
  deliberately couple to those fields *inside* the kernel; anything else
  poking them bypasses the ``(time, seq)`` FIFO tie-break and silently
  corrupts the schedule.
"""

from __future__ import annotations

import ast
from typing import List, Set, Union

from .framework import FileContext, Rule, parent_of, register_rule

__all__ = []

_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _mutable_defaults(args: ast.arguments) -> List[ast.AST]:
    out = []
    for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
        if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                ast.ListComp, ast.DictComp, ast.SetComp)):
            out.append(default)
        elif isinstance(default, ast.Call) and \
                isinstance(default.func, ast.Name) and \
                default.func.id in ("list", "dict", "set", "bytearray"):
            out.append(default)
    return out


@register_rule
class MutableDefaultRule(Rule):
    code = "SIM301"
    name = "mutable-default-arg"
    rationale = ("Default values are evaluated once at def time; a mutable "
                 "default on an event callback carries state from one event "
                 "into the next.")

    def _check(self, node: _FuncNode, ctx: FileContext) -> None:
        for default in _mutable_defaults(node.args):
            label = getattr(node, "name", "<lambda>")
            self.report(ctx, default,
                        f"mutable default argument on {label!r}; default to "
                        f"None and create the object inside the body")

    def visit_FunctionDef(self, node, ctx: FileContext) -> None:
        self._check(node, ctx)

    def visit_AsyncFunctionDef(self, node, ctx: FileContext) -> None:
        self._check(node, ctx)

    def visit_Lambda(self, node, ctx: FileContext) -> None:
        self._check(node, ctx)


def _param_names(args: ast.arguments) -> Set[str]:
    names = {a.arg for a in args.args + args.posonlyargs + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _free_loads(fn: _FuncNode) -> Set[str]:
    """Names the function loads but does not bind itself."""
    bound = _param_names(fn.args)
    loads: Set[str] = set()
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loads.add(node.id)
                else:  # Store / Del binds locally
                    bound.add(node.id)
            elif isinstance(node, ast.comprehension):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                bound |= _param_names(node.args)
    return loads - bound


def _loop_target_names(target: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}


def _immediately_called(fn: ast.AST) -> bool:
    parent = parent_of(fn)
    return isinstance(parent, ast.Call) and parent.func is fn


@register_rule
class LateBoundLoopCaptureRule(Rule):
    code = "SIM302"
    name = "late-bound-loop-capture"
    rationale = ("A closure scheduled from a loop sees its loop variable at "
                 "call time, not creation time; by the time the event "
                 "engine fires it every closure reads the last iteration. "
                 "Bind with a default argument (lambda v=vm: ...).")

    def visit_For(self, node: ast.For, ctx: FileContext) -> None:
        targets = _loop_target_names(node.target)
        if not targets:
            return
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, (ast.Lambda, ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    continue
                if _immediately_called(sub):
                    continue
                captured = sorted(_free_loads(sub) & targets)
                if captured:
                    label = getattr(sub, "name", "<lambda>")
                    self.report(ctx, sub,
                                f"{label!r} captures loop variable(s) "
                                f"{', '.join(captured)} late-bound; bind "
                                f"them as default arguments "
                                f"({captured[0]}={captured[0]})")

    def visit_ListComp(self, node: ast.ListComp, ctx: FileContext) -> None:
        self._comp(node, ctx)

    def visit_SetComp(self, node: ast.SetComp, ctx: FileContext) -> None:
        self._comp(node, ctx)

    def _comp(self, node, ctx: FileContext) -> None:
        targets: Set[str] = set()
        for gen in node.generators:
            targets |= _loop_target_names(gen.target)
        for sub in ast.walk(node.elt):
            if isinstance(sub, ast.Lambda) and not _immediately_called(sub):
                captured = sorted(_free_loads(sub) & targets)
                if captured:
                    self.report(ctx, sub,
                                f"comprehension builds lambdas capturing "
                                f"{', '.join(captured)} late-bound; bind "
                                f"them as default arguments")


# Scheduler internals owned by repro/sim: the future-event heap, the FIFO
# tie-break counter, and the zero-delay ready lane.
_SCHEDULER_INTERNALS = frozenset({"_heap", "_seq", "_ready"})


@register_rule
class SchedulerInternalsRule(Rule):
    code = "SIM303"
    name = "scheduler-internals-poke"
    rationale = ("The scheduler's queue state (_heap/_seq/_ready) is "
                 "owned by repro/sim; outside pokes bypass the (time, seq) "
                 "FIFO tie-break and silently corrupt the schedule.  Go "
                 "through the public Environment API (call_soon, timeout, "
                 "run, peek).")

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        if node.attr not in _SCHEDULER_INTERNALS:
            return
        if ctx.path.startswith("repro/sim/"):
            return  # the kernel's own (documented) coupling
        # An object's own private state is fine (e.g. a recorder keeping
        # its own self._seq); what's flagged is reaching into *another*
        # object's scheduler fields.
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return
        self.report(ctx, node,
                    f"access to scheduler-internal field {node.attr!r} "
                    f"outside repro/sim; use the public Environment API")
