"""Unit tests for sensitivity analysis (Sec. V-A) and the risk register."""

import pytest

from repro.qualitative import five_level_scale
from repro.risk import (
    RiskRegister,
    frequency_of_attack,
    frequency_of_simultaneous,
    full_factorial,
    magnitude_of_violations,
    one_at_a_time,
    ora_risk_matrix,
    rank_factors,
    requires_further_evaluation,
)

MATRIX = ora_risk_matrix()
SCALE = five_level_scale()


def risk(lm, lef):
    return MATRIX.classify(lm, lef)


class TestSensitivityPaperExample:
    """The exact worked example of Sec. V-A."""

    def test_lm_in_vl_l_is_insensitive(self):
        """LEF=L and LM in {VL, L}: Risk stays VL for both values."""
        results = one_at_a_time(
            risk, {"lef": "L"}, {"lm": ("VL", "L")}, SCALE
        )
        assert results[0].outputs == ("VL",)
        assert not results[0].sensitive

    def test_lm_in_l_vh_is_sensitive(self):
        """LM ranging L..VH: the output varies -> sensitive."""
        results = one_at_a_time(
            risk, {"lef": "L"}, {"lm": ("L", "M", "H", "VH")}, SCALE
        )
        assert results[0].sensitive
        assert len(results[0].outputs) > 1

    def test_sensitive_factor_flagged_for_further_evaluation(self):
        results = one_at_a_time(
            risk,
            {"lef": "L"},
            {"lm": ("L", "M", "H", "VH")},
            SCALE,
        )
        assert requires_further_evaluation(results) == ["lm"]


class TestSensitivityMachinery:
    def test_multiple_factors_ranked_by_spread(self):
        results = one_at_a_time(
            risk,
            {},
            {"lm": tuple("VL L M H VH".split()), "lef": ("L", "M")},
            SCALE,
        )
        ranked = rank_factors(results)
        assert ranked[0].factor == "lm"
        assert ranked[0].spread >= ranked[1].spread

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            one_at_a_time(risk, {}, {"lm": ()}, SCALE)

    def test_varies_one_factor_at_a_time_in_order(self):
        calls = []

        def recording(lm, lef):
            calls.append((lm, lef))
            return risk(lm, lef)

        one_at_a_time(
            recording,
            {"lm": "M", "lef": "L"},
            {"lm": ("L", "H"), "lef": ("VL", "M")},
            SCALE,
        )
        # each factor moves alone while the other stays at its nominal
        assert calls == [("L", "L"), ("H", "L"), ("M", "VL"), ("M", "M")]

    def test_label_function_running_epa_sweeps(self):
        """A label function may run a full EPA sweep per evaluation:
        each evaluation sees exactly its own sweep's scenarios."""
        from repro.casestudy import build_system_model, static_requirements
        from repro.epa import EpaEngine

        def engine():
            return EpaEngine(build_system_model(), static_requirements())

        expected = {
            bound: len(engine().analyze(max_faults=bound).violating())
            for bound in (1, 2)
        }
        assert expected[1] < expected[2]
        shared = engine()
        seen = []

        def swept_risk(lef, faults):
            hazards = len(shared.analyze(max_faults=int(faults)).violating())
            seen.append(hazards)
            return risk("M" if hazards <= expected[1] else "VH", lef)

        labels = ("1", "2", "1", "2")
        (result,) = one_at_a_time(
            swept_risk, {"lef": "M"}, {"faults": labels}, SCALE
        )
        assert seen == [expected[int(label)] for label in labels]
        assert result.outputs == (risk("M", "M"), risk("VH", "M"))
        assert result.sensitive

    def test_full_factorial_range(self):
        outcome = full_factorial(
            risk,
            {},
            {"lm": ("L", "M"), "lef": ("L", "M")},
            SCALE,
        )
        assert outcome.low == "VL"
        assert outcome.high == "M"

    def test_full_factorial_point(self):
        outcome = full_factorial(risk, {"lef": "M"}, {"lm": ("M",)}, SCALE)
        assert outcome.is_exact
        assert outcome.low == "M"


class TestRiskRegister:
    def test_entries_sorted_worst_first(self):
        register = RiskRegister()
        register.add("minor", "L", "L")
        register.add("major", "H", "VH")
        register.add("medium", "M", "M")
        names = [entry.scenario for entry in register]
        assert names == ["major", "medium", "minor"]

    def test_worst(self):
        register = RiskRegister()
        register.add("a", "VL", "VL")
        register.add("b", "VH", "VH")
        assert register.worst().scenario == "b"
        assert register.worst().risk == "VH"

    def test_above_threshold(self):
        register = RiskRegister()
        register.add("low", "L", "L")
        register.add("high", "VH", "VH")
        hot = register.above("H")
        assert [entry.scenario for entry in hot] == ["high"]

    def test_risk_label_follows_matrix(self):
        register = RiskRegister()
        entry = register.add("x", "L", "M")
        assert entry.risk == ora_risk_matrix().classify("M", "L")

    def test_by_scenario(self):
        register = RiskRegister()
        register.add("x", "L", "M")
        assert register.by_scenario("x").loss_magnitude == "M"
        with pytest.raises(KeyError):
            register.by_scenario("ghost")

    def test_empty_register(self):
        register = RiskRegister()
        assert register.worst() is None
        assert len(register) == 0


class TestEstimators:
    def test_single_fault_keeps_base_frequency(self):
        assert frequency_of_simultaneous(1, base="M") == "M"

    def test_more_simultaneous_faults_are_rarer(self):
        """The paper's S5-vs-S7 argument: same violations, but the
        probability of three simultaneous faults is much lower than two."""
        two = frequency_of_simultaneous(2)
        three = frequency_of_simultaneous(3)
        assert SCALE.index(three) < SCALE.index(two)

    def test_zero_faults(self):
        assert frequency_of_simultaneous(0) == "VL"

    def test_magnitude_of_violations_takes_worst(self):
        magnitudes = {"r1": "VH", "r2": "H"}
        assert magnitude_of_violations(["r2"], magnitudes) == "H"
        assert magnitude_of_violations(["r1", "r2"], magnitudes) == "VH"

    def test_no_violations_is_vl(self):
        assert magnitude_of_violations([], {}) == "VL"

    def test_unknown_requirement_uses_default(self):
        assert magnitude_of_violations(["rx"], {}, default="H") == "H"

    def test_attack_frequency_penalizes_difficulty(self):
        easy = frequency_of_attack(["L"])
        hard = frequency_of_attack(["H", "H"])
        assert SCALE.index(hard) < SCALE.index(easy)
