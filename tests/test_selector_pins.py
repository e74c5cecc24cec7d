"""Pinned outputs of every selector on small sim2 inputs.

The expected orders, evaluation counts, warnings, native traces and VE
curves were recorded from the selectors as they stood before their front
ends were merged into one (the lazy ``fsfp-fsca``/``ufs`` counts before
their gains moved onto one score vector per step); any change to them is a
change of behaviour.
Orders, counts and warnings must match exactly, traces to 1e-12.

The PFS traces were recorded again when PFS moved from NIPALS to the exact
top eigenvector: NIPALS's 1e-9 tolerance showed in their digits, and the
new values are within 1e-12 of the 60-digit scores of
``reference.pfs_scores_exact`` (``test_pfs_matches_exact_reference``).
"""

from __future__ import annotations

import numpy as np
import pytest

from varsel import CovarianceModel, center_columns, fsfp_fsca_select, gen_sim2, ufs_select
from varsel.selectors import ALGORITHMS, _ItfsGain, _schur_diagonal

from conftest import lazy_select
from reference import fsca_scores, itfs_denominators, pfs_scores_exact

EXHAUSTED = "selection stopped early: every remaining column lies in the selected span"
IDLE_PICK_11 = "pick 11 adds no variance: it lies in the span of the earlier picks"

# name -> (order, eval_count, warnings, native_trace, ve_curve)
SIM2 = {
    "fsca": (
        (26, 28, 16, 19, 31, 13, 12, 17, 9, 10, 8, 24),
        414,
        (),
        (
            20.238222956942867, 18.75474968887277, 13.160093320752635,
            11.171485671674322, 10.413719167417465, 7.095840503693563,
            7.147486997303298, 5.311580151204491, 3.4662252398527618,
            2.9729330826263816, 0.10687616764466945, 0.034564829542078464,
        ),
        (
            20.23822295694287, 38.992972645815634, 52.15306596656826,
            63.324551638242575, 73.73827080566004, 80.8341113093536,
            87.9815983066569, 93.2931784578614, 96.75940369771416,
            99.73233678034055, 99.8392129479852, 99.8737777775273,
        ),
    ),
    "lfsca": (
        (26, 28, 16, 19, 31, 13, 12, 17, 9, 3, 8, 24),
        227,
        (),
        (
            20.238222956942867, 18.75474968887277, 13.160093320752635,
            11.171485671674322, 10.413719167417465, 7.095840503693563,
            7.147486997303298, 5.311580151204491, 3.4662252398527618,
            2.9538194244959937, 0.1318914679828203, 0.03260751706274733,
        ),
        (
            20.23822295694287, 38.992972645815634, 52.15306596656826,
            63.324551638242575, 73.73827080566004, 80.8341113093536,
            87.9815983066569, 93.2931784578614, 96.75940369771416,
            99.71322312221017, 99.84511459019298, 99.87772210725574,
        ),
    ),
    "fosmod": (
        (26, 28, 18, 11, 38, 30, 17, 7, 3, 1, 10, 8),
        414,
        (),
        (
            0.17741279500427687, 0.16619953473323357, 0.12628128458906446,
            0.10747993315982993, 0.09963556218085273, 0.08426300045177615,
            0.06874508014717089, 0.06353137389733123, 0.05719216492220377,
            0.04673471455745094, 0.0006194596014397987, 0.0005084943753666065,
        ),
        (
            20.23822295694287, 38.992972645815634, 51.064517539667314,
            62.46449097450258, 72.33949839748325, 78.99215678388437,
            85.70832645771935, 91.52751268452614, 96.53972191070507,
            99.75020916040208, 99.8008414432012, 99.85885376629665,
        ),
    ),
    "pfs": (
        (26, 35, 16, 18, 36, 39, 34, 22, 2, 1, 10, 7),
        414,
        (),
        (
            0.8137943815052883, 0.9115462224528206, 0.9602964933363047,
            0.8722209385083267, 0.8943844044217847, 0.8891241898195641,
            0.9469587916267133, 0.9736393512090777, 0.9859776957768224,
            0.9929257677641188, 0.9309125287690437, 0.9212946151316406,
        ),
        (
            20.23822295694287, 38.74983524195875, 51.90073553646162,
            63.099905880688155, 73.01450067257552, 80.5037633664134,
            87.32992992095896, 93.29023792214097, 96.85194217690764,
            99.64886422393033, 99.78885692142754, 99.85082473251741,
        ),
    ),
    "itfs": (
        (12, 35, 19, 5, 4, 33, 31, 9, 2, 29, 36, 10),
        414,
        (),
        (
            1461.788852108968, 1165.2039082555318, 967.3616922325527,
            719.2800251136767, 677.0551321260125, 593.4203454232257,
            534.87527464417, 461.39626869727533, 342.81989512130235,
            233.45198084405843, 2.399294634226577, 1.9594824261089199,
        ),
        (
            17.60140769693123, 36.83338434543892, 51.33744708632568,
            60.73025988692589, 66.78671585640014, 75.78310130933423,
            84.76706344890509, 91.99613670158988, 95.91385649332634,
            99.87540482043958, 99.89126362003772, 99.90264698483746,
        ),
    ),
    "fsfp-fsca": (
        (26, 7, 9, 5, 2, 1, 6, 8, 3, 4, 10, 21),
        414,
        (),
        (
            0.9999999999999998, 2.0000102568958056, 3.0046541137205023,
            4.052694625042312, 5.1076445148293494, 6.272970553140216,
            7.558012702636532, 8.934760993422266, 10.379425095151275,
            11.962986552084372, 13.777479585920336, 16.621746535234422,
        ),
        (
            20.23822295694287, 32.04647015451352, 41.15662509863407,
            50.34918066271306, 57.8571677008927, 63.51671736982313,
            77.36644243598913, 87.87053487772621, 94.53704014032789,
            99.88795239602615, 99.91328499286175, 99.91628258436978,
        ),
    ),
    "ufs": (
        (16, 33, 30, 25, 1, 23, 4, 7, 20, 2, 10, 21),
        335,
        (),
        (
            0.0001482540925217783, 0.0001482540925217783, 0.004702003470047379,
            0.012349919025175477, 0.11513463328227043, 0.23597863318515633,
            0.2583081019593861, 0.3204344067012909, 0.5682705837783886,
            0.6767227692461977, 0.9958513806715996, 0.9968044728143816,
        ),
        (
            13.470948973299734, 26.285670225172108, 42.66689134199268,
            53.68634867077096, 59.14244865631414, 68.00378430356149,
            75.70578587839753, 83.59085041249891, 95.68182172803098,
            99.83851911491375, 99.86546798518579, 99.87010568728813,
        ),
    ),
}

WARM_START_ONLY = {
    "fsfp-fsca": (
        (26,),
        40,
        (),
        (
            0.9999999999999998,
        ),
        (
            20.23822295694287,
        ),
    ),
    "ufs": (
        (16, 33),
        0,
        (),
        (
            0.0001482540925217783, 0.0001482540925217783,
        ),
        (
            13.470948973299734, 26.285670225172108,
        ),
    ),
}

# The last pick of every deflating selector is an exact tie: at step 10 the
# residual has rank one, so every live column scores the same (PFS
# correlation 1, the same FOS-MOD average, an FSCA VE of 100), and
# round-off alone picks among the 31 of them.  PFS picked 21 by NIPALS and
# picks 30 by the exact eigenvector; FSCA and L-FSCA picked column 1 on
# the m x v residual, column 9 on the triangular factor, and pick column 27
# through the fixed form ``T T^T`` (test_rank_ten_last_fsca_pick_is_a_tie).
RANK_TEN = {
    "fsca": (
        (26, 28, 16, 19, 31, 13, 22, 18, 21, 27),
        385,
        (EXHAUSTED,),
        (
            20.261646056446597, 18.737506644798934, 13.197928927895733,
            11.192644981594016, 10.472303750017797, 7.147209256606335,
            7.245413700932098, 5.308349240239765, 3.46820124927857,
            2.9687961921901205,
        ),
        (
            20.261646056446597, 38.999152701245535, 52.197081629141266,
            63.38972661073527, 73.86203036075308, 81.00923961735941,
            88.25465331829152, 93.56300255853128, 97.03120380780986,
            99.99999999999997,
        ),
    ),
    "lfsca": (
        (26, 28, 16, 19, 31, 13, 22, 18, 21, 27),
        220,
        (EXHAUSTED,),
        (
            20.261646056446597, 18.737506644798934, 13.197928927895733,
            11.192644981594016, 10.472303750017797, 7.147209256606335,
            7.245413700932098, 5.308349240239765, 3.46820124927857,
            2.9687961921901205,
        ),
        (
            20.261646056446597, 38.999152701245535, 52.197081629141266,
            63.38972661073527, 73.86203036075308, 81.00923961735941,
            88.25465331829152, 93.56300255853128, 97.03120380780986,
            99.99999999999997,
        ),
    ),
    "fosmod": (
        (26, 28, 18, 11, 38, 30, 20, 36, 23, 31),
        385,
        (EXHAUSTED,),
        (
            0.1777795343324059, 0.16628284444776845, 0.12661909099648724,
            0.1076143712984119, 0.1003458299968286, 0.08431099153744108,
            0.06916212979203346, 0.06219774080511672, 0.059481697118860435,
            0.04620576967464638,
        ),
        (
            20.261646056446597, 38.999152701245535, 51.12962947060261,
            62.55271891403939, 72.49942153761566, 79.13862387917885,
            85.99766769638343, 91.20847399256495, 96.87536636023806,
            99.99999999999997,
        ),
    ),
    "pfs": (
        (26, 35, 16, 18, 8, 15, 34, 31, 12, 30),
        385,
        (EXHAUSTED,),
        (
            0.815748835233038, 0.911416004085582, 0.9638620761295836,
            0.8727663698570765, 0.892347835839023, 0.9444694147705632,
            0.9943281145882418, 0.9839787925619633, 0.9996589865625608,
            1.0000000000000002,
        ),
        (
            20.261646056446597, 38.76446950742375, 51.95451434473337,
            63.180957621031574, 72.61500505175941, 80.07958590922044,
            86.87768160757538, 92.97461496926887, 96.6799011661306,
            99.99999999999999,
        ),
    ),
    "itfs": (
        (20, 38, 16, 31, 15, 24, 22, 40, 25, 13, 21, 14),
        414,
        (IDLE_PICK_11,),
        # Recorded from the precision-matrix denominators.  With cond(A)
        # about 1e5 these digits are round-off: the values recorded from
        # inverting A_UU each step were up to 1.1e-12 from the 60-digit
        # trace, these are up to 2.2e-12, and both routes' denominators are
        # within 5.8e-12 of it (test_itfs_denominators_match_reference).
        (
            12512.426494716821, 11246.289050874393, 10308.294954635514,
            8317.62939630307, 7965.054860518542, 5704.677520010097,
            3382.7914213371805, 2282.180735141078, 1868.5739364230458,
            1112.9042498713534, 2.5254096080362043, 2.0988791377475113,
        ),
        (
            17.37151313994315, 35.58640124150428, 48.81092806690811,
            59.91174547971834, 73.67934249362145, 81.95367567157902,
            87.07305216973202, 92.01479867171028, 96.32023577499618,
            99.99999999999997, 99.99999999999997, 99.99999999999997,
        ),
    ),
    "fsfp-fsca": (
        (26, 7, 9, 5, 2, 1, 6, 8, 3, 4, 10, 21),
        414,
        (IDLE_PICK_11,),
        (
            0.9999999999999993, 2.00000015382325, 3.004790252898286,
            4.0532808634174975, 5.108182912157476, 6.273778738489137,
            7.558448195965825, 8.934995500871736, 10.37871072908858,
            11.95980767732627, 13.781010208336593, 16.631260433754406,
        ),
        (
            20.261646056446594, 32.103860473817946, 41.23306688181472,
            50.44125237630137, 57.93641398137832, 63.60702300156194,
            77.48907247312972, 88.01516871865552, 94.65142008598852,
            99.99999999999996, 99.99999999999996, 99.99999999999996,
        ),
    ),
}


# The two submodular gains driven through the lazy engine: the plain runs'
# orders, traces and curves, with these evaluation counts.
LAZY_EVAL_COUNT = {"fsfp-fsca": 140, "ufs": 139}


def sim2(noise_sd=0.1):
    return center_columns(gen_sim2(m=300, u=10, v=40, seed=7, noise_sd=noise_sd))


def assert_pinned(result, expected):
    order, eval_count, warnings, native, ve = expected
    assert result.order == order
    assert result.eval_count == eval_count
    assert result.warnings == warnings
    np.testing.assert_allclose(result.native_trace, native, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(result.ve_curve.values, ve, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_sim2_k12(name):
    assert_pinned(ALGORITHMS[name](sim2(), 12), SIM2[name])


@pytest.mark.parametrize("name", sorted(LAZY_EVAL_COUNT))
def test_sim2_k12_lazy(name):
    order, _, warnings, native, ve = SIM2[name]
    expected = (order, LAZY_EVAL_COUNT[name], warnings, native, ve)
    assert_pinned(lazy_select(name, sim2(), 12), expected)


@pytest.mark.parametrize("name, k, select", [("fsfp-fsca", 1, fsfp_fsca_select), ("ufs", 2, ufs_select)])
def test_warm_start_only(name, k, select):
    assert_pinned(select(sim2(), k), WARM_START_ONLY[name])


@pytest.mark.parametrize("name", sorted(RANK_TEN))
def test_rank_ten_k12(name):
    # Noise-free sim2 has rank 10: the deflating selectors exhaust with a
    # warning, ITFS and FSFP-FSCA keep going with a flat VE curve and warn
    # that pick 11 adds nothing.
    assert_pinned(ALGORITHMS[name](sim2(noise_sd=0.0), 12), RANK_TEN[name])


def test_rank_ten_last_fsca_pick_is_a_tie():
    # After the first nine pinned picks the residual has rank one, so every
    # live column completes the span: the reference scores all 31 of them
    # at the same VE, and the pinned 10th pick (27) and the ones it replaced
    # (1, then 9) are all among them.
    order = RANK_TEN["fsca"][0]
    assert RANK_TEN["lfsca"][0] == order
    scores = fsca_scores(sim2(noise_sd=0.0), order[:9])
    live = np.flatnonzero(np.isfinite(scores)) + 1
    assert len(live) == 31
    assert {1, 9, 27} <= set(live)
    assert np.ptp(scores[live - 1]) <= 1e-12


def test_rank_ten_fsfp_lazy():
    order, _, warnings, native, ve = RANK_TEN["fsfp-fsca"]
    expected = (order, LAZY_EVAL_COUNT["fsfp-fsca"], warnings, native, ve)
    assert_pinned(lazy_select("fsfp-fsca", sim2(noise_sd=0.0), 12), expected)


@pytest.mark.parametrize("lazy", [False, True], ids=["greedy", "lazy"])
def test_rank_ten_ufs_stops(lazy):
    # UFS excludes the columns in the selected span, so it stops at the
    # rank like the deflating selectors; column 13, its next pick by R^2
    # before the rank test, is one of them.
    data = sim2(noise_sd=0.0)
    result = lazy_select("ufs", data, 12) if lazy else ufs_select(data, 12)
    assert result.order == (7, 26, 9, 5, 2, 1, 6, 8, 3, 4)
    assert result.warnings == (EXHAUSTED,)
    assert result.ve_curve[-1] == pytest.approx(100.0, abs=1e-9)


@pytest.mark.slow
@pytest.mark.parametrize("noise_sd, pinned", [(0.1, SIM2), (0.0, RANK_TEN)], ids=["noisy", "noise-free"])
def test_itfs_denominators_match_reference(noise_sd, pinned):
    # Every candidate's ITFS denominator at every step of the pinned order,
    # as the gain computes it from its precision matrix, against the inverse
    # of A_UU in 60 digits.  The bound is about cond(A) * eps, with cond(A)
    # about 1e5 on both inputs; measured: 2.3e-13 noisy, 5.7e-12 noise-free.
    data = sim2(noise_sd)
    gain, model = _ItfsGain(data, None), CovarianceModel.from_dataset(data)
    order = [i - 1 for i in pinned["itfs"][0]]
    for step in range(len(order)):
        selected = order[:step]
        unsel = np.setdiff1d(np.arange(data.v), selected)
        denominators = 1.0 / _schur_diagonal(gain.p, selected, unsel)
        expected = itfs_denominators(model.cov, model.sigma_noise, selected)
        np.testing.assert_allclose(denominators, expected, rtol=1e-11, atol=0.0)


@pytest.mark.slow
@pytest.mark.parametrize("noise_sd, pinned", [(0.1, SIM2), (0.0, RANK_TEN)], ids=["noisy", "noise-free"])
def test_pfs_matches_exact_reference(noise_sd, pinned):
    # Before each pick of the pinned order, the 60-digit PFS scores of every
    # live column: the pick scores highest (within 1e-12, the width of the
    # rank-one tie at the last noise-free step), and the pinned trace is its
    # score to 1e-12.  Measured: at most 6.2e-16 relative on both inputs.
    data = sim2(noise_sd)
    order, _, _, native, _ = pinned["pfs"]
    for step, scores in enumerate(pfs_scores_exact(data, order)):
        live = np.delete(scores, [i - 1 for i in order[:step]])
        pick = scores[order[step] - 1]
        assert pick >= live.max() - 1e-12
        np.testing.assert_allclose(native[step], pick, rtol=1e-12, atol=0.0)
