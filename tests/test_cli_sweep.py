"""The ``--sweep-bits`` precision sweep of ``characterize`` and ``verify``.

The sweep starts at the parsed component's full width (a compact spec
such as ``mult8`` overrides ``--width``) and stops at precision 1 even
when ``--sweep-bits`` reaches past it.
"""

from repro.cli import main
from repro.core import AgingApproximationLibrary


def _precisions(path, key):
    """Precisions of entry *key* in the library JSON at *path*."""
    return AgingApproximationLibrary.load(path).get(key).precisions


class TestCharacterizeSweep:
    def test_default_sweep_clamps_at_precision_one(self, capsys, tmp_path):
        path = tmp_path / "lib.json"
        code = main(["characterize", "--component", "adder", "--width",
                     "8", "--years", "10", "--effort", "high",
                     "--output", str(path)])
        assert code == 0
        assert _precisions(path, "adder_w8") == [8, 7, 6, 5, 4, 3, 2, 1]

    def test_compact_spec_width_starts_the_sweep(self, capsys, tmp_path):
        path = tmp_path / "lib.json"
        code = main(["characterize", "--component", "mult8", "--years",
                     "10", "--effort", "high", "--sweep-bits", "2",
                     "--output", str(path)])
        assert code == 0
        assert _precisions(path, "multiplier_w8") == [8, 7, 6]

    def test_negative_sweep_bits_is_a_usage_error(self, capsys):
        code = main(["characterize", "--component", "adder8", "--years",
                     "10", "--effort", "high", "--sweep-bits", "-1"])
        assert code == 2
        assert "--sweep-bits" in capsys.readouterr().err


class TestVerifySweep:
    def test_compact_spec_sweep_clamps(self, capsys):
        code = main(["verify", "--component", "add3", "--scenario",
                     "worst10y", "--sweep-bits", "5", "--effort", "high"])
        assert code == 0
