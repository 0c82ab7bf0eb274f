#!/usr/bin/env python3
"""Why coalescing efficiency is not bandwidth efficiency (Figure 10).

HPCG coalesces well over 40% of its requests yet keeps a poor
bandwidth efficiency, because the *actually requested* data per
request is tiny (16 B matrix pairs and 8 B vector gathers).  This
example reproduces the paper's Figure 10 analysis: the distribution of
coalesced HMC requests bucketed by the data actually requested.

Usage::

    python examples/hpcg_request_sizes.py [BENCHMARK] [ACCESSES]
"""

import sys

from repro import Session
from repro.analysis.report import format_bar_chart, format_table


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "HPCG"
    accesses = int(sys.argv[2]) if len(sys.argv) > 2 else 12_000

    session = Session(accesses=accesses)
    data = session.fig10_request_distribution(benchmark)

    rows = [
        [size, kind, count, f"{share:.2%}"]
        for size, kind, count, share in data.rows
    ]
    print(format_table(data.headers, rows, title=data.description))
    print()
    labels = [f"{r[0]}B {r[1]}" for r in data.rows]
    print(format_bar_chart(labels, [r[3] for r in data.rows], title="share"))
    print()
    print(f"16 B load share: {data.summary['share_16B_loads']:.2%} "
          f"(paper: 40.25% for HPCG)")

    eff = session.run(benchmark)  # the default coalescer: both phases
    print(
        f"{benchmark}: coalescing efficiency "
        f"{eff.coalescing_efficiency:.2%} but bandwidth efficiency only "
        f"{eff.bandwidth_efficiency:.2%} -- small sparse requests waste "
        "most of each 64 B line fill."
    )


if __name__ == "__main__":
    main()
