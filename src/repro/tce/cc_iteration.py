"""One full CCSD iteration: seven barrier-separated work levels.

Section III-A: the TCE generates "multiple (more than 60) sub-kernels"
whose work "is divided into seven different levels and there is an
explicit synchronization step between those levels. This implies that
the task-stealing model applies only within each level."

:func:`build_ccsd_iteration` assembles a representative iteration —
fourteen contraction terms of ring / ladder / one-index type spread
over seven levels, all accumulating into the shared i2 residual —
suitable for the legacy runtime (levels map directly onto its barrier
structure) and, as the ``ccsd`` workload, for mixed legacy/PaRSEC
runtime plans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tce.orbital_space import OrbitalSpace
from repro.tce.subroutine import Subroutine
from repro.tce.terms import TermBuilder, TermSpec

__all__ = ["DEFAULT_ITERATION_TERMS", "CcsdIteration", "build_ccsd_iteration"]

#: A representative sub-kernel table: ring terms ('hp'), hole and
#: particle ladders ('hh'/'pp'), and cheap one-index terms, two per
#: level across the seven levels. icsd_t2_7 sits at its real spot as a
#: ring term.
DEFAULT_ITERATION_TERMS: tuple[TermSpec, ...] = (
    TermSpec("icsd_t2_1", "h", level=0),
    TermSpec("icsd_t2_2", "hh", level=0),
    TermSpec("icsd_t2_3", "hp", level=1),
    TermSpec("icsd_t2_4", "p", level=1),
    TermSpec("icsd_t2_5", "hh", level=2),
    TermSpec("icsd_t2_6", "hp", level=2),
    TermSpec("icsd_t2_7", "hp", level=3),
    TermSpec("icsd_t2_8", "pp", level=3),
    TermSpec("icsd_t2_9", "p", level=4),
    TermSpec("icsd_t2_10", "hp", level=4),
    TermSpec("icsd_t2_11", "hh", level=5),
    TermSpec("icsd_t2_12", "h", level=5),
    TermSpec("icsd_t2_13", "pp", level=6),
    TermSpec("icsd_t2_14", "hp", level=6),
)


@dataclass
class CcsdIteration:
    """One assembled iteration: subroutines grouped by level."""

    builder: TermBuilder
    subroutines: list[Subroutine]

    @property
    def i2(self):
        """The shared residual tensor all terms accumulate into."""
        return self.builder.i2

    @property
    def n_levels(self) -> int:
        return 1 + max(s.level for s in self.subroutines)

    def levels(self) -> list[list[Subroutine]]:
        """Subroutines grouped by barrier level, in level order."""
        out: list[list[Subroutine]] = [[] for _ in range(self.n_levels)]
        for subroutine in self.subroutines:
            out[subroutine.level].append(subroutine)
        return out

    def chain_levels(self) -> list[list]:
        """Chains grouped per level — the legacy runtime's work units.

        Within a level the chains of all its subroutines form one
        stealable pool (chain ids re-numbered densely per level, as the
        shared NXTVAL ticket sequence requires).
        """
        import dataclasses

        out = []
        for level in self.levels():
            pool = []
            for subroutine in level:
                pool.extend(subroutine.chains)
            out.append(
                [
                    dataclasses.replace(chain, chain_id=i)
                    for i, chain in enumerate(pool)
                ]
            )
        return out

    def subroutine(self, name: str) -> Subroutine:
        for sub in self.subroutines:
            if sub.name == name:
                return sub
        raise KeyError(f"no subroutine named {name!r} in this iteration")

    @property
    def total_gemms(self) -> int:
        return sum(s.n_gemms for s in self.subroutines)

    def describe(self) -> str:
        return (
            f"CCSD iteration: {len(self.subroutines)} sub-kernels over "
            f"{self.n_levels} levels, {self.total_gemms} GEMMs total"
        )


def build_ccsd_iteration(
    ga,
    space: OrbitalSpace,
    seed: int = 7,
    symmetry_filter: bool = True,
    terms: tuple[TermSpec, ...] = DEFAULT_ITERATION_TERMS,
) -> CcsdIteration:
    """Assemble one iteration's sub-kernels over a shared tensor pool."""
    builder = TermBuilder(ga, space, seed=seed, symmetry_filter=symmetry_filter)
    subroutines = [builder.build(spec) for spec in terms]
    return CcsdIteration(builder=builder, subroutines=subroutines)
