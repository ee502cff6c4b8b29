"""Stacking planner tests against the reference narrowband MSS scenario."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstack.cli import main
from fstack.errors import PlanningError
from fstack.stacking import (
    FrequencyPlan,
    StackingInputs,
    guardband_percentage,
    plan_stacking,
    zone_fold_parameters,
)

MHZ = 1e6
REF_PHIS_MHZ = [4.75, 1.25, 2.75, 3.25, 0.75, 4.75, 1.25, 2.75, 3.25]
REF_BETAS = [43, 50, 56, 63, 69, 75, 82, 88, 95]


class TestReferencePlan:
    def test_band_edges_exact(self, table2_plan):
        assert table2_plan.f_p == pytest.approx(29e6, abs=1e-3)
        assert table2_plan.f_a == pytest.approx(35e6, abs=1e-3)
        assert table2_plan.rho == 1
        assert table2_plan.sign == 1

    def test_offsets(self, table2_plan):
        np.testing.assert_allclose(
            np.asarray(table2_plan.offsets_hz) / MHZ, REF_PHIS_MHZ, atol=1e-9
        )

    def test_lo_multiples(self, table2_plan):
        assert list(table2_plan.betas) == REF_BETAS

    def test_betas_are_optimal(self, table2_plan):
        """No integer within +-50 of the choice does better (exhaustive scan)."""
        inp = table2_plan.inputs
        shift = inp.f_c - table2_plan.rho * inp.f_s
        for i, n in enumerate(table2_plan.occupied_subbands):
            target = n * inp.channel_spacing
            chosen_err = abs(
                table2_plan.sign * (table2_plan.betas[i] * inp.f_o - shift) - target
            )
            for beta in range(max(1, table2_plan.betas[i] - 50), table2_plan.betas[i] + 51):
                f_n = table2_plan.sign * (beta * inp.f_o - shift)
                if 0.0 <= f_n <= inp.f_s / 2.0:
                    assert chosen_err <= abs(f_n - target) + 1e-9

    def test_stacked_bands_inside_first_image(self, table2_plan):
        half_b = table2_plan.inputs.bandwidth / 2.0
        for centre in table2_plan.centres_hz:
            assert centre - half_b >= 0.0
            assert centre + half_b <= table2_plan.inputs.f_s / 2.0

    def test_guardband_budget(self, table2_plan):
        assert table2_plan.guardband_pct == pytest.approx(9.375)


class TestZoneAlgebra:
    def test_zone_two_inverts(self):
        assert zone_fold_parameters(2) == (1, 1)

    def test_zone_one_direct(self):
        rho, sign = zone_fold_parameters(1)
        assert (rho, sign) == (0, -1)

    @pytest.mark.parametrize("zone", [1, 2, 3, 4, 5, 6])
    def test_sign_never_zero(self, zone):
        _, sign = zone_fold_parameters(zone)
        assert sign in (-1, 1)

    def test_zone_one_plan_formula(self):
        inputs = StackingInputs(1280e6, 10e6, 1650.75e6, 1, 48.5e6, 20)
        plan = plan_stacking(inputs)
        assert plan.rho == 0 and plan.sign == -1
        for i, n in enumerate(plan.occupied_subbands):
            expected = inputs.f_c - plan.betas[i] * inputs.f_o
            assert plan.centres_hz[i] == pytest.approx(expected)


class TestPlannerProperties:
    def test_grid_aligned_offsets_vanish(self):
        # oscillator and geometry all on a 1 MHz grid: every offset is zero
        inputs = StackingInputs(1280e6, 1e6, 1650e6, 2, 48.5e6, 20)
        plan = plan_stacking(inputs)
        np.testing.assert_allclose(plan.offsets_hz, 0.0, atol=1e-6)
        assert plan.f_p == pytest.approx(inputs.bandwidth / 2.0)

    def test_offsets_match_closed_form(self, table2_plan):
        inp = table2_plan.inputs
        shift = inp.f_c - table2_plan.rho * inp.f_s
        for i, n in enumerate(table2_plan.occupied_subbands):
            residue = (n * inp.channel_spacing + table2_plan.sign * shift) % inp.f_o
            folded = min(residue, inp.f_o - residue)
            assert table2_plan.offsets_hz[i] == pytest.approx(folded, abs=1e-6)

    def test_halving_oscillator_never_hurts(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f_o = float(rng.uniform(2e6, 20e6))
            f_c = float(rng.uniform(1500e6, 1800e6))
            base = StackingInputs(1280e6, f_o, f_c, 2, 40e6, 20)
            fine = StackingInputs(1280e6, f_o / 2.0, f_c, 2, 40e6, 20)
            try:
                worst_base = max(plan_stacking(base).offsets_hz)
                worst_fine = max(plan_stacking(fine).offsets_hz)
            except PlanningError:
                continue
            assert worst_fine <= worst_base + 1e-6

    def test_edge_sum_is_channel_spacing(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            inputs = StackingInputs(
                1280e6, float(rng.uniform(1e6, 15e6)),
                float(rng.uniform(1500e6, 1700e6)), 2, 40e6, 20,
            )
            try:
                plan = plan_stacking(inputs)
            except PlanningError:
                continue
            assert plan.f_p + plan.f_a == pytest.approx(inputs.channel_spacing)

    def test_infeasible_bandwidth_rejected(self):
        inputs = StackingInputs(1280e6, 10e6, 1650.75e6, 2, 60e6, 20)
        with pytest.raises(PlanningError, match="infeasible"):
            plan_stacking(inputs)

    def test_input_validation(self):
        with pytest.raises(PlanningError):
            StackingInputs(1280e6, 10e6, 1650e6, 2, 48.5e6, 21)  # odd N
        with pytest.raises(PlanningError):
            StackingInputs(1280e6, 10e6, 1650e6, 2, 70e6, 20)  # B > fs/N
        with pytest.raises(PlanningError):
            StackingInputs(1280e6, 10e6, 1650e6, 0, 48.5e6, 20)  # zone

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("field", ["f_s", "f_o", "f_c", "bandwidth"])
    def test_non_finite_input_rejected(self, field, value):
        # rejected before the planner's arithmetic, which would overflow or fail
        fields = dict(f_s=1280e6, f_o=10e6, f_c=1650.75e6, nyquist_zone=2,
                      bandwidth=48.5e6, num_channels=20)
        with pytest.raises(PlanningError, match=f"{field} must be finite"):
            StackingInputs(**{**fields, field: value})

    @pytest.mark.parametrize("field, value", [("num_channels", 20.0), ("nyquist_zone", 2.5),
                                              ("nyquist_zone", 2.0)])
    def test_non_integer_count_rejected(self, field, value):
        # counts follow PrototypeSpec's rule: a numbers.Integral, not a whole float
        fields = dict(f_s=1280e6, f_o=10e6, f_c=1650.75e6, nyquist_zone=2,
                      bandwidth=48.5e6, num_channels=20)
        with pytest.raises(PlanningError, match=f"{field} must be an integer"):
            plan_stacking(StackingInputs(**{**fields, field: value}))


class TestGuardband:
    def test_reference_point(self):
        assert guardband_percentage(6.0 / 1280.0, 20) == pytest.approx(9.375)

    def test_linearity_in_channels(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 64))
            df = float(rng.uniform(1e-4, 0.5 / n))
            assert guardband_percentage(df, 2 * n) == pytest.approx(
                2.0 * guardband_percentage(df, n), rel=1e-12
            )

    def test_degenerate_rejected(self):
        with pytest.raises(PlanningError):
            guardband_percentage(0.0, 20)
        with pytest.raises(PlanningError):
            guardband_percentage(0.2, 20)  # beyond 1/N


class TestValidatePlan:
    """The plan check ``fstack plan`` reports, read from ``FrequencyPlan.margins_hz``."""

    def test_reference_margins(self, table2_plan):
        margins = np.asarray(table2_plan.margins_hz)
        assert np.all(margins >= -1e-9)
        # offsets of 4.75 MHz at n=1 and n=6 make those sub-bands tight
        assert margins[0] == pytest.approx(0.0, abs=1e-6)
        assert margins[5] == pytest.approx(0.0, abs=1e-6)

    def test_report_text(self, tmp_path):
        assert main(["plan", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "plan_report.txt").read_text()
        assert "pass" in text
        assert "n= 1" in text
        lines = text.splitlines()
        assert lines[-10].startswith("plan check: pass (")
        assert lines[-9] == "  n= 1 margin=0 Hz ok" and lines[-4] == "  n= 6 margin=0 Hz ok"


class TestPlanType:
    """A FrequencyPlan is its inputs and its betas; every other value is derived."""

    @settings(max_examples=200)
    @given(
        f_s=st.floats(200e6, 3e9),
        f_o=st.floats(0.5e6, 40e6),
        f_c=st.floats(100e6, 6e9),
        zone=st.integers(1, 6),
        channels=st.integers(2, 20),
        fill=st.floats(0.05, 0.95),
    )
    def test_planned_plans_are_consistent(self, f_s, f_o, f_c, zone, channels, fill):
        n = 2 * channels
        inputs = StackingInputs(f_s, f_o, f_c, zone, fill * f_s / n, n)
        try:
            plan = plan_stacking(inputs)
        except PlanningError:
            return
        margins = plan.margins_hz
        assert min(margins) == 0.0 and all(m >= 0.0 for m in margins)
        assert plan.f_p + plan.f_a == pytest.approx(inputs.channel_spacing, rel=1e-12)
        shift = inputs.f_c - plan.rho * inputs.f_s
        for beta, centre in zip(plan.betas, plan.centres_hz):
            assert centre == plan.sign * (beta * inputs.f_o - shift)
        # the stimulus relies on this: each stacked band ends before the next begins
        half_b = inputs.bandwidth / 2.0
        for below, above in zip(plan.centres_hz, plan.centres_hz[1:]):
            assert below + half_b < above - half_b

    def test_wrong_beta_count_rejected(self, table2_inputs):
        with pytest.raises(PlanningError, match=r"one integer LO multiple per sub-band \(9\)"):
            FrequencyPlan(table2_inputs, tuple(REF_BETAS[:-1]))
        with pytest.raises(PlanningError, match="one integer LO multiple"):
            FrequencyPlan(table2_inputs, (43.5,) + tuple(REF_BETAS[1:]))

    def test_band_outside_first_image_rejected(self, table2_inputs):
        # beta_1 = 38 stacks sub-band 1 at 9.25 MHz, less than B/2 from DC
        with pytest.raises(PlanningError, match="n=1 .* falls outside the first Nyquist image"):
            FrequencyPlan(table2_inputs, (38,) + tuple(REF_BETAS[1:]))

    def test_no_transition_band_rejected(self, table2_inputs):
        # beta_1 = 45 puts sub-band 1 15.25 MHz off its channel centre:
        # f_p = 39.5 MHz > f_a = 24.5 MHz
        with pytest.raises(PlanningError, match=r"infeasible plan: .*largest offset at n=1\)"):
            FrequencyPlan(table2_inputs, (45,) + tuple(REF_BETAS[1:]))

    def test_replaced_betas_derive_every_value(self, table2_plan):
        assert dataclasses.replace(table2_plan, betas=tuple(REF_BETAS)) == table2_plan
        moved = dataclasses.replace(table2_plan, betas=(44,) + tuple(REF_BETAS[1:]))
        assert moved.centres_hz[0] == 69.25e6 and moved.centres_hz[1:] == table2_plan.centres_hz[1:]
        assert moved.offsets_hz[0] == 5.25e6
        assert moved.f_p == 29.5e6 and moved.f_a == 34.5e6
        assert moved.margins_hz[0] == 0.0 and moved.margins_hz[5] == 0.5e6


class TestSerialization:
    def test_csv_columns(self, table2_plan, tmp_path):
        path = tmp_path / "plan.csv"
        table2_plan.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,beta_n,F_n_hz,phi_n_hz"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "43"
        assert float(first[2]) == pytest.approx(59.25e6)

    def test_text_report_mentions_reserved_channels(self, table2_plan):
        assert "reserved empty" in table2_plan.to_text()
