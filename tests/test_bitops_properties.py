"""Property-based suites: vm/bitops flips and engine cache-key encoding.

Hypothesis checks the algebra the injector and the plan cache lean on:

* a single-bit flip is an **involution** (flip twice = identity) and is
  **mask-preserving** (exactly one bit of the value's image changes,
  and the result stays representable at the declared width);
* a :class:`~repro.vm.fault.FaultPlan` survives the engine's cache-key
  encoding round-trip, and the content-addressed key is a function of
  the plan's *content* — stable under re-encoding, different for any
  field perturbation; an :class:`~repro.faults.analysis.AnalysisPlan`
  round-trips too, with a key disjoint from the plain and recovery
  keys of the same flip.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.engine.keys import decode_plan, encode_plan, plan_key
from repro.faults.analysis import AnalysisPlan
from repro.recovery.plan import DETECTORS, POLICIES, RecoveryPlan
from repro.vm.bitops import (bits_to_float64, flip_float64, flip_int,
                             flip_value, float64_to_bits, to_signed,
                             to_unsigned)
from repro.vm.fault import FaultPlan

WIDTHS = (8, 16, 32, 64)


@st.composite
def int_and_bit(draw):
    width = draw(st.sampled_from(WIDTHS))
    value = draw(st.integers(min_value=-(1 << (width - 1)),
                             max_value=(1 << (width - 1)) - 1))
    bit = draw(st.integers(min_value=0, max_value=width - 1))
    return value, bit, width


@st.composite
def fault_plans(draw):
    mode = draw(st.sampled_from(("loc", "result")))
    loc = draw(st.integers(min_value=-(1 << 20), max_value=1 << 20)) \
        if mode == "loc" else draw(st.none() | st.integers(0, 1 << 20))
    return FaultPlan(trigger=draw(st.integers(0, 1 << 40)), mode=mode,
                     bit=draw(st.integers(0, 63)), loc=loc,
                     width=draw(st.sampled_from((32, 64))))


class TestIntFlips:
    @given(int_and_bit())
    @settings(max_examples=200, deadline=None)
    def test_involutive(self, vbw):
        value, bit, width = vbw
        assert flip_int(flip_int(value, bit, width), bit, width) == value

    @given(int_and_bit())
    @settings(max_examples=200, deadline=None)
    def test_flips_exactly_one_image_bit(self, vbw):
        value, bit, width = vbw
        flipped = flip_int(value, bit, width)
        xor = to_unsigned(value, width) ^ to_unsigned(flipped, width)
        assert xor == 1 << bit

    @given(int_and_bit())
    @settings(max_examples=200, deadline=None)
    def test_stays_in_width_range(self, vbw):
        value, bit, width = vbw
        flipped = flip_int(value, bit, width)
        assert -(1 << (width - 1)) <= flipped < 1 << (width - 1)
        assert to_signed(to_unsigned(flipped, width), width) == flipped

    def test_boolean_width_toggles(self):
        assert flip_int(0, 0, width=1) == 1
        assert flip_int(1, 0, width=1) == 0


class TestFloatFlips:
    @given(st.floats(allow_nan=False), st.integers(0, 63))
    @settings(max_examples=200, deadline=None)
    def test_involutive_at_bit_level(self, value, bit):
        twice = flip_float64(flip_float64(value, bit), bit)
        assert float64_to_bits(twice) == float64_to_bits(value)

    @given(st.floats(allow_nan=False), st.integers(0, 63))
    @settings(max_examples=200, deadline=None)
    def test_flips_exactly_one_image_bit(self, value, bit):
        flipped = flip_float64(value, bit)
        assert float64_to_bits(value) ^ float64_to_bits(flipped) == 1 << bit

    @given(st.integers(0, (1 << 64) - 1))
    @settings(max_examples=200, deadline=None)
    def test_bits_roundtrip(self, image):
        assert float64_to_bits(bits_to_float64(image)) == image

    @given(st.floats(allow_nan=False), st.integers(0, 63))
    @settings(max_examples=100, deadline=None)
    def test_flip_value_preserves_type(self, value, bit):
        assert isinstance(flip_value(value, bit), float)
        assert isinstance(flip_value(7, bit, width=64), int)


class TestPlanKeyEncoding:
    @given(fault_plans())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, plan):
        assert decode_plan(encode_plan(plan)) == plan

    @given(fault_plans())
    @settings(max_examples=200, deadline=None)
    def test_encoding_is_json_safe(self, plan):
        wire = json.loads(json.dumps(encode_plan(plan)))
        assert decode_plan(wire) == plan
        assert plan_key("fp", decode_plan(wire), 1000) == \
            plan_key("fp", plan, 1000)

    @given(fault_plans())
    @settings(max_examples=100, deadline=None)
    def test_key_sensitive_to_every_field(self, plan):
        base = plan_key("fp", plan, 1000)
        perturbed = [
            FaultPlan(plan.trigger + 1, plan.mode, plan.bit, plan.loc,
                      plan.width),
            FaultPlan(plan.trigger, plan.mode,
                      (plan.bit + 1) % min(plan.width, 64), plan.loc,
                      plan.width),
            FaultPlan(plan.trigger, plan.mode, plan.bit, plan.loc,
                      32 if plan.width == 64 else 64),
        ]
        if plan.loc is not None:
            perturbed.append(FaultPlan(plan.trigger, plan.mode, plan.bit,
                                       plan.loc + 1, plan.width))
        for other in perturbed:
            assert plan_key("fp", other, 1000) != base
        assert plan_key("other-fp", plan, 1000) != base
        assert plan_key("fp", plan, 999) != base

    @given(fault_plans())
    @settings(max_examples=50, deadline=None)
    def test_key_is_hex_sha256(self, plan):
        key = plan_key("fp", plan, None)
        assert len(key) == 64
        int(key, 16)

    @given(fault_plans(), st.sampled_from(DETECTORS),
           st.sampled_from(POLICIES))
    @settings(max_examples=100, deadline=None)
    def test_analysis_plan_roundtrip_and_disjoint_keys(self, plan,
                                                       detector, policy):
        """An analysis plan round-trips through the JSON image, and its
        key differs from the plain and recovery keys of the same flip."""
        analysis = AnalysisPlan(plan)
        wire = json.loads(json.dumps(encode_plan(analysis)))
        assert decode_plan(wire) == analysis
        recovery = RecoveryPlan(fault=plan, detector=detector,
                                policy=policy)
        keys = {plan_key("fp", p, 1000)
                for p in (plan, analysis, recovery)}
        assert len(keys) == 3
        assert plan_key("fp", decode_plan(wire), 1000) == \
            plan_key("fp", analysis, 1000)

