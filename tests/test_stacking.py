"""Stacking planner tests against the reference narrowband MSS scenario."""

import dataclasses

import numpy as np
import pytest

from fstack.errors import PlanningError
from fstack.stacking import (
    StackingInputs,
    guardband_percentage,
    plan_stacking,
    validate_plan,
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
    def test_reference_margins(self, table2_plan):
        check = validate_plan(table2_plan)
        assert check.ok
        assert check.reserved_empty
        margins = np.asarray(check.margins_hz)
        assert np.all(margins >= -1e-9)
        # offsets of 4.75 MHz at n=1 and n=6 make those sub-bands tight
        assert margins[0] == pytest.approx(0.0, abs=1e-6)
        assert margins[5] == pytest.approx(0.0, abs=1e-6)

    def test_undersized_passband_fails_everywhere(self, table2_plan):
        check = validate_plan(dataclasses.replace(table2_plan, f_p=20e6))
        assert not check.ok
        assert len(check.failures) == len(table2_plan.occupied_subbands)

    def test_report_text(self, table2_plan):
        text = validate_plan(table2_plan).to_text()
        assert "pass" in text
        assert "n= 1" in text


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
