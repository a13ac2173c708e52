"""Table I — equivalent computing power in Grid5000.

Paper pairings with our measured verdicts, plus the general
equivalence search ("how many LAN/xDSL peers replace this cluster?").
"""

from conftest import emit

from repro.analysis import format_equivalence_table, format_table
from repro.experiments import PAPER_VERDICTS, Stage2Config, run_table1


def test_table1_equivalent_computing_power(benchmark):
    config = Stage2Config()

    result = benchmark.pedantic(run_table1, args=(config,),
                                rounds=1, iterations=1)

    table = format_equivalence_table(result.rows)
    side_by_side = format_table(
        ["pairing", "paper verdict", "our verdict", "ratio"],
        [
            [
                f"{r.candidate_peers} {r.candidate_platform} vs "
                f"{r.reference_peers} G5K",
                paper, r.verdict, f"{r.ratio:.2f}",
            ]
            for r, paper in zip(result.rows, result.paper_verdicts)
        ],
    )
    search = format_table(
        ["Grid5000 peers", "smallest matching LAN", "smallest matching xDSL"],
        [
            [n, result.lan_equivalents.get(n), result.xdsl_equivalents.get(n)]
            for n in sorted(result.lan_equivalents)
        ],
    )
    emit("table1", f"{table}\n\npaper vs measured:\n{side_by_side}\n\n"
                   f"equivalence search:\n{search}\n\n"
                   f"verdict agreement with the paper: "
                   f"{result.agreement() * 100:.0f}%")

    # row 1 (the xDSL row) must match the paper exactly
    print(f"row 1 verdict: {result.rows[0].verdict!r} "
          f"(ratio {result.rows[0].ratio:.3f}; bound 'slightly lower than')")
    assert result.rows[0].verdict == "slightly lower than"
    # LAN at equal peer count is never better than the cluster
    print(f"row 2 ratio: {result.rows[1].ratio:.3f} (bound >= 1.0)")
    assert result.rows[1].ratio >= 1.0
    print(f"row 3 verdict: {result.rows[2].verdict!r} "
          f"(ratio {result.rows[2].ratio:.3f}; bound 'slightly lower than')")
    assert result.rows[2].verdict == "slightly lower than"
    # 4 xDSL is the smallest xDSL config matching 2 Grid5000
    print(f"smallest xDSL matching 2 G5K: {result.xdsl_equivalents[2]} "
          f"(bound == 4)")
    assert result.xdsl_equivalents[2] == 4
