"""Regeneration of the paper's descriptive tables.

These tables do not require simulation -- they document the policy space,
the evaluated architecture, the cell-technology assumptions, the application
suite and the parameter sweep -- but regenerating them from the library's
own data structures guarantees the implementation and the documentation
cannot drift apart, and gives the benchmarks something cheap to assert on.

Each function returns a :class:`Table` (a header plus rows of strings);
:func:`render_table` turns one into aligned plain text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.config.parameters import ArchitectureConfig
from repro.config.presets import (
    PAPER_RETENTION_TIMES_US,
    paper_architecture,
    paper_data_policies,
)
from repro.core.classes import APPLICATION_CLASSES
from repro.energy.tables import EDRAM_LEAKAGE_RATIO
from repro.workloads.suite import application_specs


@dataclass(frozen=True)
class Table:
    """A titled grid of strings."""

    title: str
    header: Sequence[str]
    rows: Sequence[Sequence[str]]


def render_table(table: Table) -> str:
    """Render a table as aligned plain text."""
    widths = [len(str(cell)) for cell in table.header]
    for row in table.rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))

    def format_row(cells: Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(cells))

    lines = [table.title, "=" * len(table.title), format_row(table.header)]
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(format_row(row) for row in table.rows)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 3.1 -- refresh policies proposed
# ---------------------------------------------------------------------------

def policy_taxonomy_table() -> Table:
    """Table 3.1: the time-based and data-based policy taxonomy."""
    rows = [
        ("Periodic", "time", "Refresh periodically (a group of lines at a time)"),
        ("Refrint", "time", "Refresh on Sentry bit decay (a group of lines at a time)"),
        ("All", "data", "All lines are refreshed"),
        ("Valid", "data", "Only Valid lines are refreshed"),
        ("Dirty", "data", "Only Dirty lines are refreshed"),
        (
            "WB(n,m)", "data",
            "Dirty lines refreshed n times before write-back; "
            "Valid lines refreshed m times before invalidation",
        ),
    ]
    return Table(
        title="Table 3.1: Refresh policies proposed",
        header=("Policy", "Kind", "Meaning"),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 5.1 -- evaluation architecture
# ---------------------------------------------------------------------------

def architecture_table(architecture: ArchitectureConfig | None = None) -> Table:
    """Table 5.1: architectural parameters of the evaluated CMP."""
    arch = architecture if architecture is not None else paper_architecture()
    rows = [
        ("Chip", f"{arch.num_cores} core CMP"),
        ("Frequency", f"{arch.frequency_hz / 1e6:.0f} MHz"),
        (
            "Instruction L1",
            f"{arch.l1i.size_bytes // 1024} KB, {arch.l1i.associativity} way, "
            f"{arch.l1i.access_cycles} cycle",
        ),
        (
            "Data L1",
            f"{arch.l1d.size_bytes // 1024} KB, {arch.l1d.associativity} way, WT, "
            f"{arch.l1d.access_cycles} cycle",
        ),
        (
            "L2",
            f"{arch.l2.size_bytes // 1024} KB, {arch.l2.associativity} way, WB, "
            f"private, {arch.l2.access_cycles} cycles",
        ),
        (
            "L3",
            f"{arch.l3_bank.size_bytes // 1024} KB per bank, {arch.num_l3_banks} banks, "
            f"{arch.l3_bank.associativity} way, WB, shared, "
            f"{arch.l3_bank.access_cycles} cycles",
        ),
        ("Line size", f"{arch.line_bytes} Bytes"),
        ("DRAM", f"{arch.dram_access_cycles} cycles"),
        ("Network", f"{arch.mesh_width} x {arch.mesh_height} torus"),
        ("Coherence", "Directory MESI protocol at L3"),
    ]
    return Table(
        title="Table 5.1: Evaluation architecture",
        header=("Parameter", "Value"),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 5.2 -- baseline vs proposed cell technology
# ---------------------------------------------------------------------------

def cell_comparison_table() -> Table:
    """Table 5.2: SRAM baseline vs eDRAM proposal cell ratios."""
    rows = [
        ("Cell", "SRAM", "eDRAM"),
        ("Access time (ratio)", "1", "1"),
        ("Access energy (ratio)", "1", "1"),
        ("Leakage power (ratio)", "1", f"{EDRAM_LEAKAGE_RATIO:g}"),
        ("Refresh time", "n/a", "access time"),
        ("Refresh energy", "n/a", "access energy"),
    ]
    return Table(
        title="Table 5.2: Baseline and proposed architecture",
        header=("Property", "Baseline", "Proposed"),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 5.3 -- applications
# ---------------------------------------------------------------------------

def applications_table() -> Table:
    """Table 5.3: the evaluated applications and their problem sizes."""
    rows = [
        (spec.suite, spec.name, spec.problem_size)
        for spec in application_specs().values()
    ]
    return Table(
        title="Table 5.3: Applications",
        header=("Suite", "Application", "Problem size"),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 5.4 -- parameter sweep
# ---------------------------------------------------------------------------

def sweep_table() -> Table:
    """Table 5.4: the retention / timing / data policy sweep."""
    retention = ", ".join(f"{value:g} us" for value in PAPER_RETENTION_TIMES_US)
    data_policies = ", ".join(spec.label for spec in paper_data_policies())
    num_combinations = (
        len(PAPER_RETENTION_TIMES_US) * 2 * len(paper_data_policies())
    )
    rows = [
        ("Retention time", retention, str(len(PAPER_RETENTION_TIMES_US))),
        ("Timing policy", "Periodic, Refrint", "2"),
        ("Data policy", data_policies, str(len(paper_data_policies()))),
        ("Total combinations", "", str(num_combinations)),
    ]
    return Table(
        title="Table 5.4: Parameter sweep of policies",
        header=("Dimension", "Values", "Count"),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 6.1 -- application binning
# ---------------------------------------------------------------------------

def application_binning_table() -> Table:
    """Table 6.1: the class each application is binned into."""
    rows = [
        (f"Class {app_class}", ", ".join(members))
        for app_class, members in sorted(APPLICATION_CLASSES.items())
    ]
    return Table(
        title="Table 6.1: Application binning",
        header=("Category", "Applications"),
        rows=rows,
    )
