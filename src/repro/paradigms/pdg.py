"""Program Dependence Graphs (paper section 2.1, Figure 1(b)).

A PDG has one node per loop statement and edges for data and control
dependences, each either intra-iteration or loop-carried.  The
parallelization techniques consult it:

* DOALL is legal only when no loop-carried dependence exists;
* DOACROSS/DSWP handle loop-carried dependences via communication;
* DSWP partitions the loop so that every dependence *recurrence* (a
  strongly connected component containing a loop-carried edge) stays
  within one pipeline stage, making all inter-stage communication
  acyclic — the property that buys latency tolerance;
* speculation removes edges that rarely manifest at run time
  (section 2.1's X-marked edges), growing the parallel region.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParadigmError

__all__ = ["DependenceKind", "Dependence", "ProgramDependenceGraph", "example_list_loop"]


class DependenceKind:
    """Dependence categories."""

    DATA = "data"
    CONTROL = "control"

    ALL = (DATA, CONTROL)


@dataclass(frozen=True)
class Dependence:
    """One PDG edge."""

    src: str
    dst: str
    kind: str = DependenceKind.DATA
    #: True for an inter-iteration (loop-carried) dependence.
    loop_carried: bool = False
    #: True if profiling says this dependence rarely manifests, making
    #: it a candidate for speculation (an X edge in Figure 1(b)).
    speculatable: bool = False

    def __post_init__(self) -> None:
        if self.kind not in DependenceKind.ALL:
            raise ParadigmError(f"unknown dependence kind {self.kind!r}")


class ProgramDependenceGraph:
    """PDG over the statements of one loop body."""

    def __init__(self) -> None:
        # Imported here, not at module level: only PDG users pay for
        # networkx, not every ``import repro``.
        import networkx as nx

        self._graph = nx.MultiDiGraph()
        self._dependences: list[Dependence] = []

    # -- construction -------------------------------------------------------------

    def add_statement(self, name: str, cycles: float = 1.0) -> None:
        """Add a statement with its per-iteration cost."""
        if name in self._graph:
            raise ParadigmError(f"statement {name!r} already present")
        self._graph.add_node(name, cycles=cycles)

    def add_dependence(self, dependence: Dependence) -> None:
        """Add a dependence edge; both endpoints must exist."""
        for endpoint in (dependence.src, dependence.dst):
            if endpoint not in self._graph:
                raise ParadigmError(f"unknown statement {endpoint!r}")
        self._graph.add_edge(dependence.src, dependence.dst, dependence=dependence)
        self._dependences.append(dependence)

    # -- queries ---------------------------------------------------------------------

    @property
    def statements(self) -> list[str]:
        return list(self._graph.nodes)

    def cycles_of(self, statement: str) -> float:
        return self._graph.nodes[statement]["cycles"]

    @property
    def dependences(self) -> list[Dependence]:
        return list(self._dependences)

    def loop_carried(self) -> list[Dependence]:
        """All inter-iteration dependences."""
        return [d for d in self._dependences if d.loop_carried]

    def is_doall(self) -> bool:
        """True if DOALL applies: no loop-carried dependences at all."""
        return not self.loop_carried()

    def sccs(self) -> list[frozenset[str]]:
        """Strongly connected components, in topological order of the
        condensed DAG.  Loop-carried edges participate: a statement
        feeding itself next iteration is a recurrence and forms (or
        joins) an SCC."""
        import networkx as nx

        condensed = nx.condensation(self._graph)
        order = nx.topological_sort(condensed)
        return [frozenset(condensed.nodes[n]["members"]) for n in order]

    def recurrences(self) -> list[frozenset[str]]:
        """SCCs that actually contain a dependence cycle (more than one
        statement, or a self-loop)."""
        result = []
        for component in self.sccs():
            if len(component) > 1:
                result.append(component)
                continue
            (statement,) = component
            if self._graph.has_edge(statement, statement):
                result.append(component)
        return result

    # -- speculation ----------------------------------------------------------------------

    def speculate(self, predicate=None) -> "ProgramDependenceGraph":
        """A new PDG with speculated dependences removed.

        By default every ``speculatable`` edge is removed (the compiler
        speculates everything profiling supports); ``predicate`` can
        narrow the choice.
        """
        if predicate is None:
            predicate = lambda d: d.speculatable  # noqa: E731
        pruned = ProgramDependenceGraph()
        for statement in self._graph.nodes:
            pruned.add_statement(statement, self.cycles_of(statement))
        for dependence in self._dependences:
            if not predicate(dependence):
                pruned.add_dependence(dependence)
        return pruned


def example_list_loop() -> ProgramDependenceGraph:
    """The paper's running example (Figure 1(a,b)).

    A: while(node) — loop condition;
    B: node = node->next;
    C: res = work(node) — work may modify the list;
    D: write(res).
    """
    pdg = ProgramDependenceGraph()
    for name in "ABCD":
        pdg.add_statement(name, cycles=1.0)
    add = pdg.add_dependence
    control, data = DependenceKind.CONTROL, DependenceKind.DATA
    # A controls everything in the body; the backward control edges to
    # the next iteration are speculatable ("the loop executes many
    # times").
    add(Dependence("A", "B", control))
    add(Dependence("A", "C", control))
    add(Dependence("A", "D", control))
    add(Dependence("B", "A", data, loop_carried=True))
    add(Dependence("B", "B", data, loop_carried=True))
    add(Dependence("B", "C", data))
    add(Dependence("C", "D", data))
    # "work" may modify the list: memory dependences back into the
    # traversal, speculated not to manifest.
    add(Dependence("C", "B", data, loop_carried=True, speculatable=True))
    add(Dependence("C", "C", data, loop_carried=True, speculatable=True))
    add(Dependence("D", "D", data, loop_carried=True, speculatable=True))
    return pdg
