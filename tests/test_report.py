"""Load-test report rendering."""

from repro.loadtest import sweep_summary_text, utilization_table_text


class TestUtilizationTableText:
    def test_contains_all_tiers_and_resources(self, mini_sweep):
        text = utilization_table_text(mini_sweep)
        for label in ("Load Server", "Application Server", "Database Server"):
            assert label in text
        for col in ("CPU", "Disk", "Net-Tx", "Net-Rx"):
            assert col in text

    def test_one_row_per_level(self, mini_sweep):
        text = utilization_table_text(mini_sweep)
        data_lines = [
            l for l in text.splitlines() if l and l.lstrip()[0].isdigit()
        ]
        assert len(data_lines) == len(mini_sweep.levels)

    def test_title_names_application(self, mini_sweep):
        assert "MiniApp" in utilization_table_text(mini_sweep)


class TestSweepSummaryText:
    def test_columns(self, mini_sweep):
        text = sweep_summary_text(mini_sweep)
        assert "Pages/s" in text and "Cycle R+Z (s)" in text

    def test_values_present(self, mini_sweep):
        text = sweep_summary_text(mini_sweep)
        assert f"{mini_sweep.runs[-1].tps:.3f}" in text
