"""Cost-model tests: hand-evaluated counts, identities, sweep behavior."""

import csv

import pytest

from fstack import complexity
from fstack.errors import InvalidSpecError
from fstack.filter_design import attenuation_to_ripple, ripple_pp_db_to_linear

# 0.1 dB peak-to-peak passband ripple and 50 dB stopband, as linear peak deviations
RIPPLES = (ripple_pp_db_to_linear(0.1), attenuation_to_ripple(50.0))


class TestTransformCost:
    def test_size_four(self):
        assert complexity.ifft_cost(4) == (36.0, 12.0)

    def test_size_one_free(self):
        assert complexity.ifft_cost(1) == (0.0, 0.0)

    def test_single_butterfly(self):
        # one butterfly: 9 real adds, 3 real mults
        assert complexity.ifft_cost(2) == (9.0, 3.0)

    def test_rejects_zero(self):
        with pytest.raises(InvalidSpecError):
            complexity.ifft_cost(0)


class TestCandidateCosts:
    def test_fir_hand_evaluation(self):
        # N=16, L=320: adds 2*(320-16) + 9*8*4 = 896, mults 2*320 + 3*8*4 = 736
        assert complexity.fir_candidate_cost(16, 320) == (896.0, 736.0)

    def test_fir_degenerate_single_tap(self):
        assert complexity.fir_candidate_cost(1, 1) == (0.0, 2.0)

    def test_fir_monotone_in_length(self):
        costs = [complexity.fir_candidate_cost(64, l)[0] for l in (64, 128, 640, 1280)]
        assert costs == sorted(costs)

    def test_iir_hand_evaluation(self):
        # N=16, L=160: adds 4*(15/16)*160 + 288 = 888, mults 2*(15/16)*160 + 96 = 396
        assert complexity.iir_candidate_cost(16, 160) == (888.0, 396.0)

    def test_iir_single_branch_free_filtering(self):
        adds, mults = complexity.iir_candidate_cost(1, 0)
        assert adds == 0.0 and mults == 0.0

    def test_iir_filtering_components_table_point(self):
        rep = complexity.point_report(
            20, 9.375, passband_ripple=10 ** (0.0492 / 40) - 1,
            stopband_ripple=10 ** (-49.09 / 20),
        )
        assert rep.l_iir == 180
        assert rep.a_iir == pytest.approx(684.0)
        assert rep.p_iir == pytest.approx(342.0)

    def test_iir_requires_whole_sections(self):
        with pytest.raises(InvalidSpecError):
            complexity.iir_candidate_cost(16, 170)


class TestSweep:
    def test_report_identities(self):
        for rep in complexity.sweep(*RIPPLES):
            assert rep.a1 == pytest.approx(rep.a_fir + rep.a_ifft)
            assert rep.p1 == pytest.approx(rep.p_fir + rep.p_ifft)
            assert rep.a2 == pytest.approx(rep.a_iir + rep.a_ifft)
            assert rep.p2 == pytest.approx(rep.p_iir + rep.p_ifft)

    def test_recursive_adds_double_the_mults(self):
        # each first-order section: one coefficient multiply, two adds
        for rep in complexity.sweep(*RIPPLES):
            assert rep.a_iir == pytest.approx(2.0 * rep.p_iir)

    def test_recursive_candidate_cheaper_everywhere(self):
        for rep in complexity.sweep(*RIPPLES):
            assert rep.a2 < rep.a1 and rep.p2 < rep.p1

    def test_equal_length_algebra(self):
        # with L forced equal, a2 < a1 iff 4(1-1/N)L < 2L - 2N
        for n, l in ((4, 64), (16, 320), (64, 1024)):
            a1, _ = complexity.fir_candidate_cost(n, l)
            a2, _ = complexity.iir_candidate_cost(n, l)
            lhs = 4.0 * (1.0 - 1.0 / n) * l
            rhs = 2.0 * l - 2.0 * n
            assert (a2 < a1) == (lhs < rhs)

    def test_envelope_warning_flag(self):
        assert not complexity.point_report(4, 20.0, *RIPPLES).warning
        assert complexity.point_report(256, 2.0, *RIPPLES).warning

    def test_csv_output(self, tmp_path):
        path = tmp_path / "complexity.csv"
        complexity.write_csv(complexity.sweep(*RIPPLES), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == complexity.CSV_HEADER
        assert len(rows) == 8
        for row in rows[1:]:
            assert float(row[6]) < float(row[4])  # a2 < a1
            assert float(row[7]) < float(row[5])  # p2 < p1

    def test_default_guardband_schedule_endpoints(self):
        n_values = [2 ** k for k in range(1, 8)]
        sched = complexity.default_guardband_schedule(n_values)
        assert sched[0] == pytest.approx(40.0)
        assert sched[-1] == pytest.approx(5.0)
        assert all(a >= b for a, b in zip(sched, sched[1:]))
