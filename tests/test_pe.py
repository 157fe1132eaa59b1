"""Tests for PE types, instances, and architectures."""

import pytest

from repro.errors import LibraryError, UnknownPETypeError
from repro.library.pe import Architecture, PEInstance, PEType
from repro.library.presets import PLATFORM_PE


def make_type(name="core", w=6.0, h=6.0, **kw):
    return PEType(name, w, h, **kw)


class TestPEType:
    def test_area(self):
        assert make_type(w=4.0, h=5.0).area_mm2 == pytest.approx(20.0)

    @pytest.mark.parametrize("field,value", [
        ("width_mm", 0.0),
        ("height_mm", -1.0),
        ("speed", 0.0),
        ("power_scale", -0.5),
        ("idle_power", -0.1),
        ("cost", -1.0),
    ])
    def test_invalid_fields_rejected(self, field, value):
        kwargs = {"name": "x", "width_mm": 6.0, "height_mm": 6.0}
        kwargs[field] = value
        with pytest.raises(LibraryError):
            PEType(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field", ["width_mm", "height_mm", "speed", "power_scale", "idle_power", "cost"]
    )
    def test_non_finite_fields_rejected_by_name(self, field, value):
        kwargs = {"name": "x", "width_mm": 6.0, "height_mm": 6.0}
        kwargs[field] = value
        with pytest.raises(LibraryError) as excinfo:
            PEType(**kwargs)
        message = str(excinfo.value)
        assert message.startswith(f"PE type 'x': {field} must be ")
        assert message.endswith(f", got {value}")

    def test_empty_name_rejected(self):
        with pytest.raises(LibraryError):
            PEType("", 6.0, 6.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            make_type().speed = 2.0


class TestPEInstance:
    def test_delegates_to_type(self):
        pe = PEInstance("pe0", make_type())
        assert pe.type_name == "core"
        assert pe.area_mm2 == pytest.approx(36.0)

    def test_empty_name_rejected(self):
        with pytest.raises(LibraryError):
            PEInstance("", make_type())


class TestArchitecture:
    def test_add_and_lookup(self):
        arch = Architecture("a")
        arch.add_instance(make_type())
        arch.add_instance(make_type("other", 3.0, 3.0))
        assert len(arch) == 2
        assert arch.pe_names() == ["pe0", "pe1"]
        assert arch.pe("pe1").type_name == "other"
        assert "pe0" in arch and "nope" not in arch

    def test_unknown_pe_raises(self):
        arch = Architecture("a")
        with pytest.raises(UnknownPETypeError):
            arch.pe("ghost")

    def test_duplicate_name_rejected(self):
        arch = Architecture("a")
        arch.add(PEInstance("x", make_type()))
        with pytest.raises(LibraryError):
            arch.add(PEInstance("x", make_type()))

    def test_explicit_instance_name(self):
        arch = Architecture("a")
        pe = arch.add_instance(make_type(), name="dsp_main")
        assert pe.name == "dsp_main"

    def test_type_counts(self):
        arch = Architecture("a")
        arch.add_instance(make_type("t1"))
        arch.add_instance(make_type("t1"))
        arch.add_instance(make_type("t2", 3.0, 3.0))
        assert arch.type_counts() == {"t1": 2, "t2": 1}

    def test_totals(self):
        t = make_type(w=2.0, h=2.0, cost=1.5, idle_power=0.2)
        arch = Architecture.homogeneous("h", t, 3)
        assert arch.total_area_mm2 == pytest.approx(12.0)
        assert arch.total_cost == pytest.approx(4.5)
        assert arch.total_idle_power == pytest.approx(0.6)

    def test_homogeneous_count(self):
        arch = Architecture.homogeneous("h", PLATFORM_PE, 4)
        assert len(arch) == 4
        assert all(pe.type_name == PLATFORM_PE.name for pe in arch)

    def test_homogeneous_zero_rejected(self):
        with pytest.raises(LibraryError):
            Architecture.homogeneous("h", PLATFORM_PE, 0)

    def test_insertion_order_preserved(self):
        arch = Architecture("a")
        for name in ("z", "m", "a"):
            arch.add(PEInstance(name, make_type()))
        assert arch.pe_names() == ["z", "m", "a"]

    def test_empty_name_rejected(self):
        with pytest.raises(LibraryError):
            Architecture("")
