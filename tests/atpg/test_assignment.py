"""Trail semantics of the assignment store."""

from repro.atpg.assignment import Assignment
from repro.logic.values import ONE, X, ZERO


def test_initially_unassigned():
    assignment = Assignment(4)
    assert all(assignment.get(n) == X for n in range(4))
    assert assignment.num_assigned() == 0


def test_set_and_get():
    assignment = Assignment(4)
    assignment.set(2, ONE)
    assert assignment.get(2) == ONE
    assert assignment.num_assigned() == 1


def test_backtrack_restores_x():
    assignment = Assignment(4)
    assignment.set(0, ZERO)
    mark = assignment.checkpoint()
    assignment.set(1, ONE)
    assignment.set(2, ZERO)
    assignment.backtrack(mark)
    assert assignment.get(0) == ZERO
    assert assignment.get(1) == X
    assert assignment.get(2) == X


def test_nested_checkpoints():
    assignment = Assignment(6)
    marks = []
    for n in range(5):
        marks.append(assignment.checkpoint())
        assignment.set(n, n % 2)
    assignment.backtrack(marks[2])
    assert assignment.get(0) == ZERO
    assert assignment.get(1) == ONE
    assert all(assignment.get(n) == X for n in (2, 3, 4))


def test_assigned_since_preserves_order():
    assignment = Assignment(5)
    mark = assignment.checkpoint()
    assignment.set(3, ONE)
    assignment.set(1, ZERO)
    assert assignment.assigned_since(mark) == [(3, ONE), (1, ZERO)]


def test_backtrack_to_current_is_noop():
    assignment = Assignment(2)
    assignment.set(0, ONE)
    mark = assignment.checkpoint()
    assignment.backtrack(mark)
    assert assignment.get(0) == ONE


def test_backtrack_at_trail_end_and_to_zero():
    assignment = Assignment(4)
    for node, value in ((2, ONE), (0, ZERO), (3, ONE)):
        assignment.set(node, value)
    assignment.backtrack(len(assignment.trail))
    assert assignment.trail == [2, 0, 3]
    assert [assignment.get(n) for n in range(4)] == [ZERO, X, ONE, ONE]
    assignment.backtrack(0)
    assert assignment.trail == []
    assert all(assignment.get(n) == X for n in range(4))
    assignment.set(1, ZERO)
    assert assignment.assigned_since(0) == [(1, ZERO)]
