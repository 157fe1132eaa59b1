"""Experiment definitions (S9): the paper's tables and figure as code."""

from .paper_data import (
    PAPER_ROWS,
    TABLE1_COSYNTHESIS,
    TABLE1_PLATFORM,
    TABLE2,
    TABLE3,
    table1_rows,
    table2_rows,
    table3_rows,
)
from .table1 import (
    TABLE1_POLICIES,
    format_table1,
    run_table1,
    table1_rows_from_records,
)
from .table2 import (
    format_table2,
    run_table2,
    table2_reductions,
    table2_rows_from_records,
)
from .table3 import (
    format_table3,
    run_table3,
    table3_reductions,
    table3_rows_from_records,
)
from .figure1 import FlowTrace, format_figure1, run_figure1
from .runner import EXPERIMENTS, run_experiment

__all__ = [
    "PAPER_ROWS",
    "TABLE1_COSYNTHESIS",
    "TABLE1_PLATFORM",
    "TABLE2",
    "TABLE3",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "TABLE1_POLICIES",
    "run_table1",
    "table1_rows_from_records",
    "format_table1",
    "run_table2",
    "format_table2",
    "table2_reductions",
    "table2_rows_from_records",
    "run_table3",
    "format_table3",
    "table3_reductions",
    "table3_rows_from_records",
    "FlowTrace",
    "run_figure1",
    "format_figure1",
    "EXPERIMENTS",
    "run_experiment",
]
