"""Unit tests for the SCPI instrument facade."""

import numpy as np
import pytest

from repro.em.radiation import EmissionSpectrum
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.instruments.visa import (
    ScpiError,
    ScpiInstrument,
    SimulatedResourceManager,
)


@pytest.fixture
def instrument():
    inst = ScpiInstrument(
        analyzer=SpectrumAnalyzer(rng=np.random.default_rng(5))
    )
    inst.present_emission(
        EmissionSpectrum(np.array([100e6]), np.array([1e-3]))
    )
    return inst


class TestScpiCommands:
    def test_idn(self, instrument):
        assert "EM-SA" in instrument.query("*IDN?")

    def test_set_and_query_span(self, instrument):
        instrument.write("FREQ:STAR 60e6")
        instrument.write("FREQ:STOP 180e6")
        assert float(instrument.query("FREQ:STAR?")) == 60e6
        assert float(instrument.query("FREQ:STOP?")) == 180e6

    def test_set_rbw(self, instrument):
        instrument.write("BAND:RES 200e3")
        assert float(instrument.query("BAND:RES?")) == 200e3

    def test_sweep_and_trace(self, instrument):
        trace = instrument.query("INIT; TRAC?")
        values = [float(x) for x in trace.split(",")]
        assert len(values) > 100

    def test_peak_marker(self, instrument):
        instrument.write("INIT")
        instrument.write("CALC:MARK:MAX")
        freq = float(instrument.query("CALC:MARK:X?"))
        level = float(instrument.query("CALC:MARK:Y?"))
        assert freq == pytest.approx(100e6, rel=0.05)
        assert level > -70.0

    def test_compound_command(self, instrument):
        freq = float(instrument.query("INIT; CALC:MARK:MAX; CALC:MARK:X?"))
        assert freq == pytest.approx(100e6, rel=0.05)


class TestScpiErrors:
    def test_unknown_command(self, instrument):
        with pytest.raises(ScpiError, match="unknown"):
            instrument.write("BOGUS:CMD")

    def test_trace_without_sweep(self):
        inst = ScpiInstrument()
        with pytest.raises(ScpiError, match="INIT"):
            inst.query("TRAC?")

    def test_marker_without_peak_search(self, instrument):
        instrument.write("INIT")
        with pytest.raises(ScpiError, match="marker"):
            instrument.query("CALC:MARK:X?")

    def test_sweep_without_dut(self):
        inst = ScpiInstrument()
        with pytest.raises(ScpiError, match="device under test"):
            inst.write("INIT")

    def test_bad_numeric_argument(self, instrument):
        with pytest.raises(ScpiError, match="numeric"):
            instrument.write("FREQ:STAR abc")

    @pytest.mark.parametrize(
        "command, reason",
        [
            ("FREQ:STAR 3e8", "stop frequency must exceed start"),
            ("BAND:RES -5", "RBW must be positive"),
            ("BAND:RES 0", "RBW must be positive"),
            ("FREQ:STOP nan", "stop_hz must be finite"),
        ],
    )
    def test_setting_refused_by_analyzer_checks(
        self, instrument, command, reason
    ):
        """A write the analyzer's own checks refuse raises one
        ScpiError naming the command and leaves every setting as it
        was, so a later sweep runs on the old span."""
        a = instrument.analyzer
        before = (a.start_hz, a.stop_hz, a.rbw_hz)
        with pytest.raises(ScpiError) as excinfo:
            instrument.write(command)
        message = str(excinfo.value)
        assert "\n" not in message
        assert command in message and reason in message
        assert (a.start_hz, a.stop_hz, a.rbw_hz) == before
        values = instrument.query("INIT; TRAC?").split(",")
        assert len(values) == a.bin_centers().size > 100


class TestResourceManager:
    def test_register_and_open(self, instrument):
        rm = SimulatedResourceManager()
        rm.register("GPIB0::18::INSTR", instrument)
        assert rm.list_resources() == ("GPIB0::18::INSTR",)
        assert rm.open_resource("GPIB0::18::INSTR") is instrument

    def test_unknown_address(self):
        rm = SimulatedResourceManager()
        with pytest.raises(ScpiError):
            rm.open_resource("GPIB0::1::INSTR")
