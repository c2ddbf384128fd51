"""Table 7: communication patterns in the application codes.

Regenerates the pattern-by-rank classification.  Each run's recorded
inventory is checked against the registry's Table-7 metadata in
tier-1, for every benchmark version and variant
(``tests/test_comm_inventory.py``).
"""

from repro.suite.tables import table7_comm

from conftest import save_table


def test_table7_regeneration(benchmark, output_dir):
    text = benchmark(table7_comm)
    save_table(output_dir, "table7_app_comm", text)
    for pattern in ("cshift", "scan", "sort", "scatter"):
        assert pattern in text
