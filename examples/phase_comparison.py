#!/usr/bin/env python3
"""Compare the coalescer's phases across all 12 benchmarks (Figure 8).

Runs every benchmark under four configurations -- no coalescing,
conventional MSHR-based coalescing only, the DMC unit only, and the
full two-phase coalescer -- and prints the coalescing-efficiency bars
of the paper's Figure 8.

Usage::

    python examples/phase_comparison.py [ACCESSES]
"""

import sys

from repro import Session
from repro.analysis.report import format_bar_chart, format_table


def main() -> None:
    accesses = int(sys.argv[1]) if len(sys.argv) > 1 else 12_000
    data = Session(accesses=accesses).fig8_coalescing_efficiency()

    rows = [
        [name, f"{mshr:.2%}", f"{dmc:.2%}", f"{both:.2%}"]
        for name, mshr, dmc, both in data.rows
    ]
    print(format_table(data.headers, rows, title=data.description))
    print()
    print(
        format_bar_chart(
            [r[0] for r in data.rows],
            [r[3] for r in data.rows],
            title="combined coalescing efficiency",
        )
    )
    print()
    print(
        f"averages: mshr-only {data.summary['avg_mshr_only']:.2%}, "
        f"dmc-only {data.summary['avg_dmc_only']:.2%}, "
        f"combined {data.summary['avg_combined']:.2%}"
    )
    print("paper   : mshr-only 31.53%, dmc-only 38.13%, combined 47.47%")


if __name__ == "__main__":
    main()
