"""Content-addressed function fingerprints over the call graph.

The incremental driver (docs/DRIVER.md, "Incremental re-analysis") keys
persistent per-root analysis artifacts by a *function fingerprint*: a
hash of everything that can change what analyzing the function from a
root produces.  Fingerprints form a Merkle DAG over
:class:`repro.cfg.callgraph.CallGraph` -- a function's fingerprint folds
in the fingerprints of its direct callees, so a root's fingerprint
covers its entire transitive callee cone and "did anything under this
root change?" is a single hash comparison.

Each function's *local* hash covers:

- its canonically emitted token stream (the :func:`repro.cfront.unparse`
  rendering of the whole declaration -- whitespace- and
  comment-insensitive, but sensitive to every real token including the
  name and parameter list);
- its definition location (file + line + column).  Locations are part of
  every report, so a function that merely *moved* must be re-analyzed to
  keep incremental reports byte-identical to a cold run;
- the sorted names of callees with no definition in the project (defined
  callees contribute their full fingerprints instead).

Recursive call cycles are hashed per strongly-connected component: every
member of an SCC folds in a group hash over all members' local hashes
plus the fingerprints of the SCC's external callees, so the Merkle
construction terminates and any edit inside a cycle invalidates the
whole cycle (and its callers) deterministically.

A function's local hash and callee set depend on its definition alone,
so pass 1 computes them once, when the unit is parsed
(:func:`attach_facts`), and the AST cache stores them with the unit
under :data:`FACTS_VERSION`.  :func:`fingerprint_tables` and
:meth:`repro.cfg.callgraph.CallGraph.link` reuse those *facts* for
cache-loaded and daemon-pinned units instead of re-unparsing and
re-walking every body on every run.
"""

import hashlib

from repro.cfg.callgraph import function_callees
from repro.cfront.unparse import unparse

#: Version of the per-function facts stored with cached ASTs.  Bump when
#: :func:`function_token_hash` or :func:`repro.cfg.callgraph.
#: function_callees` changes what it computes: a frame tagged with any
#: other version has its facts recomputed on load.
FACTS_VERSION = "1"


def function_token_hash(decl):
    """The local content hash of one function definition."""
    digest = hashlib.sha256()
    location = getattr(decl, "location", None)
    if location is not None:
        digest.update(
            ("%s:%s:%s" % (location.filename, location.line,
                           getattr(location, "column", 0))).encode()
        )
    digest.update(b"\x00")
    digest.update(unparse(decl).encode())
    return digest.hexdigest()


def attach_facts(unit):
    """Compute every definition's facts and attach them to its decl."""
    for decl in unit.functions():
        decl.facts = (function_token_hash(decl), function_callees(decl))


def has_facts(unit):
    """True when every definition in ``unit`` carries attached facts."""
    return all(
        getattr(decl, "facts", None) is not None for decl in unit.functions()
    )


def strongly_connected_components(graph):
    """Tarjan's SCCs over the defined-call edges, iteratively (generated
    call chains nest thousands deep).  Returns a list of sorted name
    lists in reverse-topological order: callees before callers."""
    index_of = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for start in sorted(graph.functions):
        if start in index_of:
            continue
        # Each work entry is (name, iterator over defined callees).
        work = [(start, None)]
        while work:
            name, edges = work.pop()
            if edges is None:
                index_of[name] = lowlink[name] = counter[0]
                counter[0] += 1
                stack.append(name)
                on_stack.add(name)
                edges = iter(sorted(
                    callee
                    for callee in graph.callees.get(name, ())
                    if callee in graph.functions
                ))
            advanced = False
            for callee in edges:
                if callee not in index_of:
                    work.append((name, edges))
                    work.append((callee, None))
                    advanced = True
                    break
                if callee in on_stack:
                    lowlink[name] = min(lowlink[name], index_of[callee])
            if advanced:
                continue
            if lowlink[name] == index_of[name]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == name:
                        break
                sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[name])
    return sccs


def compute_fingerprints(graph, salt=""):
    """``{function name: fingerprint hexdigest}`` for a call graph.

    ``salt`` folds session-constant context (extension set, engine
    version, analysis options) into every fingerprint; leave it empty to
    fingerprint source content alone.
    """
    return fingerprint_tables(graph, salt)[1]


def fingerprint_tables(graph, salt=""):
    """``(local_hashes, fingerprints)`` for a call graph.

    ``local_hashes`` covers each function's own content only (which
    functions were *edited*); ``fingerprints`` is the Merkle construction
    over callees (which functions are in the *dirty cone*).
    """
    fingerprints = {}
    local = {}
    for name, decl in graph.functions.items():
        # Facts attached at parse time carry the local hash: no unparse.
        facts = getattr(decl, "facts", None)
        local[name] = (
            facts[0] if facts is not None else function_token_hash(decl)
        )
    for component in strongly_connected_components(graph):
        members = set(component)
        digest = hashlib.sha256()
        digest.update(str(salt).encode())
        digest.update(b"\x00")
        for name in component:
            digest.update(name.encode())
            digest.update(b"\x1f")
            digest.update(local[name].encode())
            digest.update(b"\x1e")
        digest.update(b"\x00")
        external = set()
        for name in component:
            for callee in graph.callees.get(name, ()):
                if callee in members:
                    continue
                if callee in graph.functions:
                    # SCCs arrive callees-first, so this is always ready.
                    external.add(("fp", callee, fingerprints[callee]))
                else:
                    external.add(("undef", callee, ""))
        for kind, callee, value in sorted(external):
            digest.update(("%s:%s:%s" % (kind, callee, value)).encode())
            digest.update(b"\x1d")
        group_hash = digest.hexdigest()
        for name in component:
            member = hashlib.sha256()
            member.update(local[name].encode())
            member.update(b"\x00")
            member.update(group_hash.encode())
            fingerprints[name] = member.hexdigest()
    return local, fingerprints


def dirty_cone(graph, dirty_functions):
    """The dirty functions plus every transitive caller of one.

    This is the set of functions whose fingerprint changes when exactly
    ``dirty_functions`` changed content -- the re-analysis cone the
    incremental scheduler must cover (callees are *not* in the cone:
    their summaries are still valid).
    """
    cone = set()
    stack = [name for name in dirty_functions if name in graph.functions]
    while stack:
        name = stack.pop()
        if name in cone:
            continue
        cone.add(name)
        stack.extend(graph.callers.get(name, ()))
    return cone
