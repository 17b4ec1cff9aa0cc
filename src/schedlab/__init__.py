"""schedlab: a deterministic schedule workbench for concurrent search
structures under pessimistic (hand-over-hand locking) and optimistic
(versioned STM) synchronization, with LS-linearizability and
serializability checkers and a schedule-acceptance concurrency metric."""

from .model import Event, History, Schedule, Slot, complete, schedule_of
from .seqspec import Operation, SearchStructureDef, make_structure, \
    non_triviality_witness
from .scheduler import DriveResult, Workload, drive, free_run, universe
from .checkers import CheckResult, check_linearizable, \
    check_locally_serializable, check_ls_linearizable, check_safe_strict, \
    check_strictly_serializable
from .metric import accepted_set, compare, incomparability, lsl_set, \
    optimality_gap

__version__ = "0.1.0"

__all__ = [
    "Event", "History", "Schedule", "Slot", "complete", "schedule_of",
    "Operation", "SearchStructureDef", "make_structure",
    "non_triviality_witness", "DriveResult", "Workload", "drive", "free_run",
    "universe", "CheckResult", "check_linearizable",
    "check_locally_serializable", "check_ls_linearizable",
    "check_safe_strict", "check_strictly_serializable", "accepted_set",
    "compare", "incomparability", "lsl_set", "optimality_gap",
]
