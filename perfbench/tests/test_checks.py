"""Each workload check passes a good history and fails each way it can fail."""

import numpy as np

import checks

FLOOR = 0.0315


def good_energy():
    # (energy, dissipation increment, cumulative, lifted energy) per step
    return dict(energy=[1.0, 2.0, 3.0], diss_inc=[FLOOR, FLOOR + 0.1, FLOOR],
                cumulative=[0.0, 0.1, 0.1], lifted_energy=[1.1, 2.2, 3.0])


def test_energy_estimate_accepts_a_consistent_chain():
    ok, _ = checks.energy_estimate(**good_energy(), floor=FLOOR)
    assert ok


def test_energy_estimate_rejects_an_upper_violation():
    case = good_energy()
    case["energy"][2] += 2e-4               # slack -2e-4 < -1e-4
    assert not checks.energy_estimate(**case, floor=FLOOR)[0]


def test_energy_estimate_rejects_dissipation_below_its_floor():
    case = good_energy()
    case["diss_inc"][0] = FLOOR - 1e-3
    assert not checks.energy_estimate(**case, floor=FLOOR)[0]


def test_energy_estimate_rejects_a_falling_cumulative_dissipation():
    case = good_energy()
    case["cumulative"][2] = 0.09
    assert not checks.energy_estimate(**case, floor=FLOOR)[0]


def test_energy_estimate_rejects_an_empty_history():
    assert not checks.energy_estimate([], [], [], [], floor=FLOOR)[0]


# elastic for four steps, force turns positive, then a 30% drop at step 7
KINK_F = [-300.0, -200.0, -100.0, 0.0, 100.0, 200.0, 140.0, 170.0]
KINK_G = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.25]
BAND = np.array([0.0, 0.0, 0.0, 1.0])        # std/max = 0.43


def test_kink_accepts_the_paper_result():
    ok, detail = checks.kink(KINK_F, KINK_G, lambda i: BAND, True)
    assert ok, detail


def test_kink_rejects_a_history_without_a_force_drop():
    rising = [-300.0, -200.0, -100.0, 0.0, 100.0, 200.0, 210.0, 220.0]
    assert not checks.kink(rising, KINK_G, lambda i: BAND, True)[0]


def test_kink_rejects_a_drop_smaller_than_ten_percent():
    shallow = KINK_F[:6] + [185.0, 190.0]     # 7.5% below the maximum
    assert not checks.kink(shallow, KINK_G, lambda i: BAND, True)[0]


def test_kink_rejects_a_drop_while_the_running_maximum_is_not_positive():
    negative = [f - 1000.0 for f in KINK_F]
    assert not checks.kink(negative, KINK_G, lambda i: BAND, True)[0]


def test_kink_rejects_slip_before_three_elastic_steps():
    early = [0.0, 0.0, 0.02] + KINK_G[3:]
    assert not checks.kink(KINK_F, early, lambda i: BAND, True)[0]


def test_kink_rejects_slip_that_never_starts():
    assert not checks.kink(KINK_F, [0.0] * 8, lambda i: BAND, True)[0]


def test_kink_rejects_uniform_slip_at_the_drop():
    uniform = np.full(4, 0.2)
    assert not checks.kink(KINK_F, KINK_G, lambda i: uniform, True)[0]


def test_kink_reads_the_slip_after_the_first_drop_step():
    seen = []
    checks.kink(KINK_F, KINK_G, lambda i: seen.append(i) or BAND, True)
    assert seen == [6]


def test_kink_rejects_a_failed_energy_estimate():
    assert not checks.kink(KINK_F, KINK_G, lambda i: BAND, False)[0]


STIFF_F = [-7421.9, -5811.5, -4187.3, -2548.7]


def test_stiff_accepts_an_elastic_monotone_history():
    ok, detail = checks.stiff(STIFF_F, [0.0] * 4, True)
    assert ok, detail


def test_stiff_rejects_slip():
    assert not checks.stiff(STIFF_F, [0.0, 2e-6, 0.0, 0.0], True)[0]


def test_stiff_rejects_a_falling_force():
    assert not checks.stiff(STIFF_F[:3] + [-4200.0], [0.0] * 4, True)[0]


def test_stiff_rejects_a_failed_energy_estimate():
    assert not checks.stiff(STIFF_F, [0.0] * 4, False)[0]


def test_gradcheck_accepts_a_small_error():
    assert checks.gradcheck(0, 7.3e-6)[0]


def test_gradcheck_rejects_each_failure():
    assert not checks.gradcheck(2, 7.3e-6)[0]
    assert not checks.gradcheck(0, 1.5e-3)[0]
    assert not checks.gradcheck(0, float("nan"))[0]
    assert not checks.gradcheck(0, None)[0]
