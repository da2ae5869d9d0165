"""The memory probe (``memory_peaks.py``) runs the four steps and reports each."""

from memory_peaks import STEPS, main, measure


def test_memory_peaks_reports_every_step_of_a_small_world():
    peaks = measure("sar", 5, n_days=200, models="EMOS,AR-EMOS",
                    train=("2015-01-01", "2015-05-31"), valid=("2015-06-01", "2015-07-19"))
    assert list(peaks) == ["imports", *STEPS]
    traced, rss = zip(*peaks.values())
    assert traced[0] is None and all(peak > 0 for peak in traced[1:])
    assert 0 < rss[0] and list(rss) == sorted(rss)  # a high-water mark never falls


def test_memory_peaks_needs_a_world_and_a_seed(capsys):
    assert main(["sar"]) == 2
    assert "usage: python tests/memory_peaks.py WORLD SEED" in capsys.readouterr().err
