"""Regeneration of every table and figure in the paper's evaluation."""

from repro.experiments.figures import (
    FigureSeries,
    figure_6_1,
    figure_6_2,
    figure_6_3,
    figure_6_4,
    render_figure,
)
from repro.experiments.runner import ExperimentScale, headline_summary
from repro.experiments.tables import (
    application_binning_table,
    applications_table,
    architecture_table,
    cell_comparison_table,
    policy_taxonomy_table,
    render_table,
    sweep_table,
)

__all__ = [
    "ExperimentScale",
    "FigureSeries",
    "application_binning_table",
    "applications_table",
    "architecture_table",
    "cell_comparison_table",
    "figure_6_1",
    "figure_6_2",
    "figure_6_3",
    "figure_6_4",
    "headline_summary",
    "policy_taxonomy_table",
    "render_figure",
    "render_table",
    "sweep_table",
]
