"""Unit tests for the Program Dependence Graph."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.errors import ParadigmError
from repro.paradigms import (
    Dependence,
    DependenceKind,
    ProgramDependenceGraph,
    example_list_loop,
)


def test_add_statement_and_query():
    pdg = ProgramDependenceGraph()
    pdg.add_statement("A", cycles=3.0)
    assert pdg.statements == ["A"]
    assert pdg.cycles_of("A") == 3.0


def test_duplicate_statement_rejected():
    pdg = ProgramDependenceGraph()
    pdg.add_statement("A")
    with pytest.raises(ParadigmError):
        pdg.add_statement("A")


def test_dependence_endpoints_must_exist():
    pdg = ProgramDependenceGraph()
    pdg.add_statement("A")
    with pytest.raises(ParadigmError):
        pdg.add_dependence(Dependence("A", "B"))


def test_unknown_kind_rejected():
    with pytest.raises(ParadigmError):
        Dependence("A", "B", kind="psychic")


def test_is_doall():
    pdg = ProgramDependenceGraph()
    pdg.add_statement("A")
    pdg.add_statement("B")
    pdg.add_dependence(Dependence("A", "B"))
    assert pdg.is_doall()
    pdg.add_dependence(Dependence("B", "A", loop_carried=True))
    assert not pdg.is_doall()


def test_example_loop_has_paper_structure():
    pdg = example_list_loop()
    assert sorted(pdg.statements) == ["A", "B", "C", "D"]
    # Unspeculated, the whole loop is one tangle: the speculatable
    # memory dependences tie C and D back into the traversal.
    assert not pdg.is_doall()


def test_speculation_removes_marked_edges():
    pdg = example_list_loop()
    speculated = pdg.speculate()
    remaining = {(d.src, d.dst) for d in speculated.dependences}
    assert ("C", "B") not in remaining
    assert ("C", "C") not in remaining
    assert ("B", "A") in remaining  # real traversal dependence stays


def test_sccs_topological_order_after_speculation():
    speculated = example_list_loop().speculate()
    sccs = speculated.sccs()
    assert sccs[0] == frozenset({"A", "B"})  # the traversal recurrence
    assert frozenset({"C"}) in sccs
    assert frozenset({"D"}) in sccs
    assert sccs.index(frozenset({"C"})) < sccs.index(frozenset({"D"}))


def test_recurrences_detects_self_loop():
    pdg = ProgramDependenceGraph()
    pdg.add_statement("X")
    pdg.add_statement("Y")
    pdg.add_dependence(Dependence("X", "X", loop_carried=True))
    pdg.add_dependence(Dependence("X", "Y"))
    assert pdg.recurrences() == [frozenset({"X"})]


def test_speculate_with_predicate():
    pdg = example_list_loop()
    # Only speculate the C->C edge.
    narrowed = pdg.speculate(lambda d: d.src == "C" and d.dst == "C")
    remaining = {(d.src, d.dst) for d in narrowed.dependences}
    assert ("C", "C") not in remaining
    assert ("C", "B") in remaining


def test_import_repro_does_not_load_networkx():
    # networkx is imported when a PDG is built, not by ``import repro``.
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import repro; "
        "print('networkx' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
