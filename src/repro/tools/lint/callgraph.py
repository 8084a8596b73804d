"""A project-wide call graph over module-qualified names.

:func:`build_call_graph` indexes every function, method and class of a
file set under module-qualified names (``repro.simulation.kernels.
popcount``, ``repro.simulation.runtime.EvaluationCache.store``) and
resolves call sites against that index:

* plain names through the module's own definitions and its import
  aliases (``from .transport import SharedArena as Arena`` included),
  resolving relative imports against the module's package;
* ``self.method(...)`` to the enclosing class, falling back to every
  project method of that name when the class does not define it
  (inheritance is not modeled);
* ``obj.method(...)`` through a one-function type inference pass
  (``obj = ClassName(...)``), then the same by-name fallback;
* ``ClassName(...)`` to ``ClassName.__init__`` when defined;
* nested ``def`` gets an implicit edge from its enclosing function
  (closures are built to be called).

The graph deliberately *over*-approximates: an unknown receiver keeps
every project method of the attribute's name as a candidate callee.
The dataflow rules use reachability to demand discipline (locks on
thread-reachable mutations, allocation hygiene on packed-reachable
code), so extra edges can only ask for more discipline, never excuse
less.

Thread entry points — the roots of "runs on a worker thread" — are the
callables handed to the dispatch APIs the runtime uses:
``parallel_map(fn, ...)``, ``executor.submit(fn, ...)`` /
``executor.map(fn, ...)``, ``threading.Thread(target=fn)``,
``loop.run_in_executor(None, fn, ...)`` — unwrapping
``functools.partial(fn, ...)`` wrappers.  A function that forwards one
of its own parameters into a dispatcher (``def fan_out(worker, ...):
parallel_map(worker, ...)``) is itself treated as a dispatcher:
callables passed at its call sites become entries too (one level of
higher-order forwarding).

Packed entry points — the roots of the RL009 hot-path check — are the
functions and classes whose qualified name carries the packed-kernel
naming convention (``packed_*`` functions, ``Packed*``/``_Packed*``
classes).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CallGraph",
    "FunctionInfo",
    "build_call_graph",
    "module_name_for",
]


def module_name_for(path: Path) -> str:
    """The dotted module name of *path*, walking up through packages."""
    resolved = Path(path)
    parts: List[str] = [] if resolved.stem == "__init__" else [resolved.stem]
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else resolved.stem


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    qname: str
    module: str
    cls: Optional[str]
    node: ast.AST
    params: Tuple[str, ...]


@dataclass
class CallGraph:
    """Functions, classes, call edges and dispatch entry points."""

    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, Set[str]] = field(default_factory=dict)
    edges: Dict[str, Set[str]] = field(default_factory=dict)
    thread_entries: Set[str] = field(default_factory=set)

    def add_edge(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)

    def methods_named(self, name: str) -> Set[str]:
        """Every project method called *name* (the unknown-receiver set)."""
        found: Set[str] = set()
        for cls_qname, methods in self.classes.items():
            if name in methods:
                found.add(f"{cls_qname}.{name}")
        return found

    def reachable(self, roots: Set[str]) -> Set[str]:
        """Transitive closure of *roots* over the call edges."""
        seen = set(roots) & set(self.functions)
        frontier = list(seen)
        while frontier:
            current = frontier.pop()
            for callee in self.edges.get(current, set()):
                if callee in self.functions and callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen

    def packed_entries(self) -> Set[str]:
        """Functions on the packed-kernel surface, by naming convention."""
        entries: Set[str] = set()
        for qname in self.functions:
            segments = qname.split(".")
            if segments[-1].startswith(("packed_", "_packed_")) or any(
                segment.startswith(("Packed", "_Packed"))
                for segment in segments
            ):
                entries.add(qname)
        return entries

    def describe(self) -> List[str]:
        """A stable text rendering (the ``--graph calls`` dump format)."""
        lines = [
            f"functions: {len(self.functions)}",
            f"thread entries: {', '.join(sorted(self.thread_entries)) or '-'}",
        ]
        for caller in sorted(self.edges):
            callees = ", ".join(sorted(self.edges[caller]))
            lines.append(f"  {caller} -> {callees}")
        return lines


# Dispatch APIs whose worker callable arrives as a keyword argument.
_DISPATCH_KEYWORD: Dict[str, str] = {
    "Thread": "target",
    "Process": "target",
}


def _call_name(func: ast.expr) -> Optional[str]:
    """The final name segment of a call target (``a.b.c`` → ``c``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dotted_parts(expr: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name bases."""
    parts: List[str] = []
    current: ast.expr = expr
    while isinstance(current, ast.Attribute):
        parts.insert(0, current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.insert(0, current.id)
        return parts
    return None


@dataclass
class _ModuleIndex:
    name: str
    aliases: Dict[str, str] = field(default_factory=dict)
    top_level: Dict[str, str] = field(default_factory=dict)


class _Indexer(ast.NodeVisitor):
    """Pass 1: functions, classes, and import aliases per module."""

    def __init__(self, graph: CallGraph, index: _ModuleIndex) -> None:
        self.graph = graph
        self.index = index
        self._stack: List[str] = []
        self._class: List[Optional[str]] = []

    def _qualify(self, name: str) -> str:
        return ".".join([self.index.name, *self._stack, name])

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.index.aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            package_parts = self.index.name.split(".")[: -node.level]
            base = ".".join(package_parts + ([node.module] if node.module else []))
        else:
            base = node.module or ""
        for alias in node.names:
            local = alias.asname or alias.name
            self.index.aliases[local] = (
                f"{base}.{alias.name}" if base else alias.name
            )

    def _visit_function(self, node: ast.AST, name: str) -> None:
        qname = self._qualify(name)
        args = getattr(node, "args", None)
        params: Tuple[str, ...] = ()
        if args is not None:
            params = tuple(
                arg.arg
                for arg in [*args.posonlyargs, *args.args]
            )
        cls = self._class[-1] if self._class else None
        self.graph.functions[qname] = FunctionInfo(
            qname=qname,
            module=self.index.name,
            cls=cls,
            node=node,
            params=params,
        )
        if cls is not None and len(self._stack) >= 1:
            class_qname = ".".join([self.index.name, *self._stack])
            self.graph.classes.setdefault(class_qname, set()).add(name)
        if not self._stack:
            self.index.top_level[name] = qname
        self._stack.append(name)
        self._class.append(None)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self._class.pop()
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qname = self._qualify(node.name)
        self.graph.classes.setdefault(qname, set())
        if not self._stack:
            self.index.top_level[node.name] = qname
        self._stack.append(node.name)
        self._class.append(node.name)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self._class.pop()
        self._stack.pop()


@dataclass
class _CallRecord:
    """One resolved call site, kept for the dispatcher post-pass."""

    callees: Set[str]
    callable_args: List[Tuple[int, Set[str]]]


class _EdgeExtractor:
    """Pass 2: call edges, dispatch entries and callable-argument flow."""

    def __init__(
        self,
        graph: CallGraph,
        indexes: Dict[str, _ModuleIndex],
        records: List[_CallRecord],
        param_dispatchers: Set[Tuple[str, int]],
    ) -> None:
        self.graph = graph
        self.indexes = indexes
        self.records = records
        self.param_dispatchers = param_dispatchers

    # -- name resolution -------------------------------------------------------

    def _resolve_dotted(self, index: _ModuleIndex, parts: List[str]) -> Set[str]:
        """Candidate qnames for a dotted path rooted at a plain name."""
        root = parts[0]
        bases: List[str] = []
        if root in index.top_level:
            bases.append(index.top_level[root])
        if root in index.aliases:
            bases.append(index.aliases[root])
        candidates: Set[str] = set()
        for base in bases:
            qname = ".".join([base, *parts[1:]]) if len(parts) > 1 else base
            if qname in self.graph.functions:
                candidates.add(qname)
            elif qname in self.graph.classes:
                init = f"{qname}.__init__"
                candidates.add(init if init in self.graph.functions else qname)
        return candidates

    def _resolve_callable(
        self,
        expr: ast.expr,
        index: _ModuleIndex,
        info: FunctionInfo,
        instances: Dict[str, str],
    ) -> Set[str]:
        """Candidate function qnames an expression may call into."""
        if isinstance(expr, ast.Call):
            # functools.partial(fn, ...) binds but calls `fn`.
            if _call_name(expr.func) == "partial" and expr.args:
                return self._resolve_callable(
                    expr.args[0], index, info, instances
                )
            return set()
        if isinstance(expr, ast.Name):
            nested = f"{info.qname}.{expr.id}"
            if nested in self.graph.functions:
                return {nested}
            return self._resolve_dotted(index, [expr.id])
        if not isinstance(expr, ast.Attribute):
            return set()
        parts = _dotted_parts(expr)
        if parts is not None and parts[0] == "self" and info.cls is not None:
            class_qname = info.qname.rsplit(".", 1)[0]
            method = f"{class_qname}.{expr.attr}"
            if method in self.graph.functions:
                return {method}
        if parts is not None and parts[0] in instances and len(parts) == 2:
            method = f"{instances[parts[0]]}.{expr.attr}"
            if method in self.graph.functions:
                return {method}
        if parts is not None:
            resolved = self._resolve_dotted(index, parts)
            if resolved:
                return resolved
        # Unknown receiver: every project method of this name may be it.
        return self.graph.methods_named(expr.attr)

    # -- per-function extraction -----------------------------------------------

    def extract(self, info: FunctionInfo) -> None:
        index = self.indexes[info.module]
        instances = self._infer_instances(info, index)
        own_body: List[ast.stmt] = list(getattr(info.node, "body", []))
        for stmt in own_body:
            for node in self._walk_shallow(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested = f"{info.qname}.{node.name}"
                    if nested in self.graph.functions:
                        self.graph.add_edge(info.qname, nested)
                    continue
                if isinstance(node, ast.Call):
                    self._handle_call(node, index, info, instances)

    def _walk_shallow(self, stmt: ast.stmt) -> List[ast.AST]:
        """Every node under *stmt*, not descending into nested defs."""
        found: List[ast.AST] = []
        stack: List[ast.AST] = [stmt]
        while stack:
            node = stack.pop()
            found.append(node)
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))
        return found

    def _infer_instances(
        self, info: FunctionInfo, index: _ModuleIndex
    ) -> Dict[str, str]:
        """``name -> class qname`` for ``name = ClassName(...)`` locals."""
        instances: Dict[str, str] = {}
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            callee = value.func
            parts = _dotted_parts(callee)
            if parts is None:
                continue
            for candidate in self._resolve_dotted(index, parts):
                cls_qname = (
                    candidate.rsplit(".", 1)[0]
                    if candidate.endswith(".__init__")
                    else candidate
                )
                if cls_qname in self.graph.classes:
                    instances[target.id] = cls_qname
        return instances

    def _handle_call(
        self,
        call: ast.Call,
        index: _ModuleIndex,
        info: FunctionInfo,
        instances: Dict[str, str],
    ) -> None:
        callees = self._resolve_callable(call.func, index, info, instances)
        for callee in callees:
            self.graph.add_edge(info.qname, callee)
        callable_args: List[Tuple[int, Set[str]]] = []
        for position, arg in enumerate(call.args):
            resolved = self._resolve_callable(arg, index, info, instances)
            resolved = {q for q in resolved if q in self.graph.functions}
            if resolved:
                callable_args.append((position, resolved))
                # A callable escaping into another function may run
                # anywhere that function chooses; keep the edge.
                for target in resolved:
                    self.graph.add_edge(info.qname, target)
        if callable_args:
            self.records.append(
                _CallRecord(callees=callees, callable_args=callable_args)
            )
        self._handle_dispatch(call, index, info, instances)

    def _handle_dispatch(
        self,
        call: ast.Call,
        index: _ModuleIndex,
        info: FunctionInfo,
        instances: Dict[str, str],
    ) -> None:
        name = _call_name(call.func)
        if name is None:
            return
        candidates: List[ast.expr] = []
        if name == "parallel_map" and call.args:
            candidates.append(call.args[0])
        elif name in {"submit", "map"} and isinstance(
            call.func, ast.Attribute
        ) and call.args:
            candidates.append(call.args[0])
        elif name == "run_in_executor" and len(call.args) >= 2:
            candidates.append(call.args[1])
        elif name in _DISPATCH_KEYWORD:
            wanted = _DISPATCH_KEYWORD[name]
            for keyword in call.keywords:
                if keyword.arg == wanted:
                    candidates.append(keyword.value)
        for expr in candidates:
            unwrapped = expr
            if isinstance(expr, ast.Call) and _call_name(
                expr.func
            ) == "partial" and expr.args:
                unwrapped = expr.args[0]
            if isinstance(unwrapped, ast.Name) and unwrapped.id in info.params:
                self.param_dispatchers.add(
                    (info.qname, info.params.index(unwrapped.id))
                )
            resolved = self._resolve_callable(expr, index, info, instances)
            for target in resolved:
                if target in self.graph.functions:
                    self.graph.thread_entries.add(target)
                    self.graph.add_edge(info.qname, target)


def build_call_graph(
    modules: Sequence[Tuple[str, ast.Module]],
) -> CallGraph:
    """Index *modules* (``(dotted_name, tree)`` pairs) into a CallGraph."""
    graph = CallGraph()
    indexes: Dict[str, _ModuleIndex] = {}
    for name, tree in modules:
        index = _ModuleIndex(name=name)
        indexes[name] = index
        _Indexer(graph, index).visit(tree)
    records: List[_CallRecord] = []
    param_dispatchers: Set[Tuple[str, int]] = set()
    extractor = _EdgeExtractor(graph, indexes, records, param_dispatchers)
    for info in list(graph.functions.values()):
        extractor.extract(info)
    # One level of higher-order forwarding: a callable passed into a
    # function that hands its parameter to a dispatcher is an entry.
    for record in records:
        for callee in record.callees:
            for position, resolved in record.callable_args:
                if (callee, position) in param_dispatchers:
                    graph.thread_entries.update(resolved)
    return graph
