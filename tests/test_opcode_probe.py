"""The opcode probe (`tests/opcode_probe.py`) counts the bytecodes of the
checker's own thread: `check_source` runs on the `cli.run_deep` worker, and a
trace installed on any other thread counts nothing in `evaluator` or
`checker`."""

from opcode_probe import REQUIRED, count_pass

from conftest import NAT

PROGRAM = NAT + """fun pred : Nat -> Nat
{ pred zero = zero
; pred (succ n) = n
}
eval let one : Nat = pred (succ (succ zero))
"""


def test_probe_counts_the_evaluator_and_the_checker():
    per_module = count_pass([(PROGRAM, "<probe>")])
    assert [m for m in REQUIRED if per_module.get(m, 0) == 0] == []
    assert per_module["cli"] < per_module["evaluator"]
