"""Logic locking: circuits, locking schemes, and oracle-guided attacks.

The paper's second running example (besides PUFs) is IP logic locking
(Section II-A): combinational locking adds key-controlled gates, sequential
locking augments the FSM with obfuscation states.  Security analyses of
these schemes reduce to SAT [4], [5] — so this package provides the whole
stack from scratch:

* a gate-level netlist IR with a ``.bench`` reader/writer,
* a Tseitin CNF encoder and a CDCL SAT solver,
* random XOR/XNOR combinational locking,
* the oracle-guided SAT attack (exact key recovery) and AppSAT
  (approximate deobfuscation — the exact-vs-approximate distinction of
  Section IV-A),
* HARPOON-style sequential locking on Mealy machines, attackable with the
  L* learner of :mod:`repro.learning.angluin` (Section V-B).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "netlist": ("Gate", "GateType", "Netlist"),
        "bench_format": ("parse_bench", "write_bench"),
        "circuits": (
            "c17",
            "present_sbox",
            "array_multiplier",
            "multiplexer_tree",
            "random_circuit",
            "ripple_carry_adder",
            "comparator",
        ),
        "metrics": ("CorruptionReport", "corruption_report"),
        "cnf": ("CNF", "tseitin_encode"),
        "solver": ("SATSolver", "Satisfiability"),
        "combinational": ("LockedCircuit", "random_lock"),
        "antisat": ("antisat",),
        "compound": ("compound_lock",),
        "sarlock": ("sarlock",),
        "sat_attack": ("SATAttack", "SATAttackResult"),
        "appsat": ("AppSAT", "AppSATResult"),
        "sequential": ("LockedFSM", "harpoon_lock", "unlock_by_lstar"),
        "synthesis": ("synthesize_truth_table", "minimize_cubes"),
        "unroll": ("LockedSequentialCircuit", "lock_sequential", "unroll"),
        "sequential_netlist": (
            "SequentialCircuit",
            "synthesize_mealy",
            "encode_alphabet",
        ),
    },
)
