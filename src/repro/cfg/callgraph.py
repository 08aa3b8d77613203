"""The call graph (§6, analysis pass step 2).

Functions with no callers are roots; recursive call chains are broken
arbitrarily so that every function is reachable from some root.
"""

from repro.cfront import astnodes as ast


def function_callees(decl):
    """The sorted names every direct call in a definition's body names
    (defined in the project or not)."""
    names = set()
    for node in decl.body.walk():
        if isinstance(node, ast.Call):
            callee = node.callee_name()
            if callee is not None:
                names.add(callee)
    return tuple(sorted(names))


class CallGraph:
    """Direct-call graph over a set of function definitions."""

    def __init__(self):
        self.functions = {}  # name -> FunctionDecl (definitions only)
        self.callees = {}  # name -> set of called names (defined or not)
        self.callers = {}  # name -> set of defined caller names

    @classmethod
    def from_units(cls, units):
        """Build from an iterable of TranslationUnits."""
        graph = cls()
        for unit in units:
            for decl in unit.functions():
                graph.add_function(decl)
        graph.link()
        return graph

    def add_function(self, decl):
        self.functions[decl.name] = decl

    def link(self):
        """(Re)compute callee/caller sets from the function bodies."""
        self.callers = {name: set() for name in self.functions}
        self.callees = {}
        for name, decl in self.functions.items():
            # Facts attached at parse time (repro.cfg.fingerprint.
            # attach_facts) carry the callee set: no body walk.
            facts = getattr(decl, "facts", None)
            self.callees[name] = set(
                facts[1] if facts is not None else function_callees(decl)
            )
        for name, callees in self.callees.items():
            for callee in callees:
                if callee in self.callers:
                    self.callers[callee].add(name)

    def roots(self):
        """Entry points: functions with no callers, plus one arbitrary
        function per otherwise-unreachable recursive component."""
        roots = [name for name in self.functions if not self.callers[name]]
        reachable = self._reachable_from(roots)
        # Break recursion: repeatedly promote the lexicographically first
        # unreached function to a root ("broken arbitrarily", §6).
        remaining = sorted(set(self.functions) - reachable)
        while remaining:
            root = remaining[0]
            roots.append(root)
            reachable |= self._reachable_from([root])
            remaining = sorted(set(self.functions) - reachable)
        return sorted(roots)

    def components(self):
        """Weakly-connected components over the *defined* functions.

        Two functions share a component when one (transitively) calls the
        other in either direction; calls to undefined externals do not
        connect anything.  Each component is a sorted name list and the
        component list is ordered by first member, so the partition is
        deterministic -- this is the unit of pass-2 parallel scheduling
        (each component's roots can be analyzed in isolation because the
        DFS never follows a call out of its component).
        """
        adjacency = {name: set() for name in self.functions}
        for name, callees in self.callees.items():
            for callee in callees:
                if callee in self.functions:
                    adjacency[name].add(callee)
                    adjacency[callee].add(name)
        seen = set()
        parts = []
        for name in sorted(self.functions):
            if name in seen:
                continue
            component = []
            stack = [name]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                component.append(current)
                stack.extend(adjacency[current] - seen)
            parts.append(sorted(component))
        return parts

    def _reachable_from(self, names):
        seen = set()
        stack = list(names)
        while stack:
            name = stack.pop()
            if name in seen or name not in self.functions:
                continue
            seen.add(name)
            stack.extend(self.callees.get(name, ()))
        return seen

    def topological_order(self):
        """Callees-before-callers order (cycles broken arbitrarily)."""
        order = []
        visited = {}

        def visit(name):
            state = visited.get(name)
            if state is not None:
                return
            visited[name] = "visiting"
            for callee in sorted(self.callees.get(name, ())):
                if callee in self.functions and visited.get(callee) != "visiting":
                    visit(callee)
            visited[name] = "done"
            order.append(name)

        for name in sorted(self.functions):
            visit(name)
        return order

    def __contains__(self, name):
        return name in self.functions

    def __len__(self):
        return len(self.functions)
