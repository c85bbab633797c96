"""Gradual porting of a CC iteration — the paper's integration story.

"The conversion from CGP to task based execution can happen gradually.
Performance critical parts of an application can be selectively ported
to execute over PaRSEC and then be re-integrated seamlessly into the
larger application which is oblivious to this transformation."

This example runs a full CCSD iteration (fourteen TCE sub-kernels over
seven barrier-separated levels, the ``ccsd`` workload) three ways on
the same simulated machine, by giving ``repro.run`` one runtime per
level:

1. fully legacy (the original NWChem execution model),
2. partially ported (only the levels holding ``icsd_t2_7`` and the two
   expensive ladder terms run over PaRSEC, as in the paper's
   incremental approach),
3. fully ported.

All three produce the same correlation energy; the timings show the
porting payoff growing with coverage.

Run:  python examples/mixed_cc_iteration.py
"""

import repro
from repro.analysis.report import format_table
from repro.tce.reference import correlation_energy

N_LEVELS = 7
#: icsd_t2_7 and the pp ladder icsd_t2_8 share level 3; the ladder
#: icsd_t2_13 sits in level 6
T2_7_AND_LADDERS = ["legacy"] * 3 + ["v5", "legacy", "legacy", "v5"]


def run_iteration(plan, label):
    config = repro.RunConfig(n_nodes=8, cores_per_node=4, seed=7)
    result = repro.run("ccsd:small", runtime=plan, config=config)
    return {
        "label": label,
        "time": result.execution_time,
        "ported": f"{plan.count('v5')}/{N_LEVELS}",
        "energy": correlation_energy(result.output.flat_values()),
        "result": result,
    }


def main() -> None:
    runs = [
        run_iteration(["legacy"] * N_LEVELS, "fully legacy"),
        run_iteration(T2_7_AND_LADDERS, "t2_7 + ladders over PaRSEC"),
        run_iteration(["v5"] * N_LEVELS, "fully ported"),
    ]

    print(
        format_table(
            ["configuration", "levels ported", "iteration time (s)", "speedup"],
            [
                [
                    run["label"],
                    run["ported"],
                    f"{run['time']:.4f}",
                    f"{runs[0]['time'] / run['time']:.2f}x",
                ]
                for run in runs
            ],
            title="One CCSD iteration, 8 nodes x 4 cores (virtual time)",
        )
    )

    print("\nper-step timings of the partially ported run:")
    for step in runs[1]["result"].levels:
        print(f"  {step.runtime_name:6s} {step.execution_time:.4f}s")

    print("\ncorrelation energies (must agree to the 14th digit):")
    for run in runs:
        print(f"  {run['label']:28s} {run['energy']:+.15e}")
    energies = [r["energy"] for r in runs]
    spread = max(energies) - min(energies)
    print(f"  absolute spread: {abs(spread):.2e}")
    ok = spread <= 1e-13 * abs(energies[0])
    print("OK" if ok else "MISMATCH")
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
