import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from cutchoose import combs as combs_module
from cutchoose.combs import (
    Channel,
    Comb,
    GeneralSetup,
    GeneralTest,
    Tooth,
    _evolve,
    bell_test_setup,
    build_tooth,
    custom_test_setup,
    dephasing_channel,
    depolarizing_channel,
    general_tradeoff_check,
    plug,
    general_test_acceptance,
    random_unitary,
    register_permutation_unitary,
    trivial_parallel_comb,
)
from cutchoose.config import parse_config
from cutchoose.errors import (
    ContractViolationError,
    DimensionCapError,
    LayoutError,
    OutOfDomainError,
)
from cutchoose.families import (
    PlusTraps,
    RandomTraps,
    matched_acceptance,
    plus_acceptance,
)
from cutchoose.linalg import PureState, dagger, trace_norm
from cutchoose.protocol import (
    ProtocolSpec,
    RoundDistribution,
    output_round_weights,
    overall_acceptance,
    round_outcome_table,
)
from cutchoose.report import run_scenario
from cutchoose.reference import (
    diamond_distance_pure_search,
    diamond_distance_unitaries,
    random_comb_draw,
    random_density,
    random_pure_state,
    round_outcome_table_via_combs,
)
from cutchoose.states import PovmElement, RankOneEffect, bell_pair, phase_gate
from cutchoose.strategies import HONEST, PhaseAttack, Placement, SecurityModel, transform_round


class TestChannel:
    def test_unitary_channel(self):
        rng = np.random.default_rng(0)
        u = random_unitary(4, rng)
        chan = Channel.from_unitary(u)
        rho = random_density(4, rng).matrix
        np.testing.assert_allclose(chan.apply(rho), u @ rho @ dagger(u), atol=1e-12)

    def test_rejects_incomplete_kraus(self):
        with pytest.raises(ContractViolationError):
            Channel((0.5 * np.eye(2),))

    @pytest.mark.parametrize("kraus, message", [
        ((), r"^channel needs at least one Kraus operator$"),
        ((np.eye(2), np.eye(3)), r"^Kraus operators must be square and same-shaped$"),
        ((np.ones((2, 3)),), r"^Kraus operators must be square and same-shaped$"),
    ], ids=["empty", "ragged", "non-square"])
    def test_rejects_empty_or_ragged_kraus(self, kraus, message):
        with pytest.raises(ContractViolationError, match=message):
            Channel(kraus)

    @pytest.mark.parametrize("strength", (1.5, -0.1))
    def test_rejects_strength_outside_the_unit_interval(self, strength):
        for name, channel in (("dephasing", dephasing_channel), ("depolarizing", depolarizing_channel)):
            with pytest.raises(ContractViolationError,
                               match=rf"^{name} strength {strength} outside \[0, 1\]$"):
                channel(strength)

    def test_compose_rejects_a_dim_mismatch(self):
        with pytest.raises(LayoutError, match=r"^cannot compose channels of dims 4 and 2$"):
            dephasing_channel(0.2).compose(Channel.from_unitary(np.eye(4)))

    def test_dephasing_trace_preserving(self):
        for chan in (dephasing_channel(0.3), depolarizing_channel(0.7)):
            assert np.abs(sum(dagger(k) @ k for k in chan.kraus) - np.eye(2)).max() <= 1e-12

    @pytest.mark.parametrize("qubit", (2, -1))
    def test_rejects_qubit_outside_the_stack(self, qubit):
        message = rf"qubit {qubit} not among 2 qubits"
        for channel in (dephasing_channel, depolarizing_channel):
            with pytest.raises(ContractViolationError, match=message):
                channel(0.5, qubit, 2)
        with pytest.raises(ContractViolationError, match=message):
            build_tooth(Tooth(None, "dephasing", qubit, 0.5), width=2, k=1)

    def test_compose(self):
        a = dephasing_channel(0.2)
        b = dephasing_channel(0.5)
        rho = random_density(2, np.random.default_rng(1)).matrix
        np.testing.assert_allclose(
            a.compose(b).apply(rho), a.apply(b.apply(rho)), atol=1e-12
        )


class TestPlug:
    def test_single_hole_identity_comb(self):
        rng = np.random.default_rng(2)
        u = random_unitary(2, rng)
        comb = trivial_parallel_comb(1)
        chan = plug(comb, [u])
        rho = random_density(2, rng).matrix
        np.testing.assert_allclose(chan.apply(rho), u @ rho @ dagger(u), atol=1e-12)

    def test_five_hole_three_register_layout_identity(self):
        # holes 1,2 on register 1; 3,5 on register 2; 4 on register 3
        comb = Comb(
            n_holes=5, k=1, width=3, y_dim=1,
            hole_registers=(0, 0, 1, 2, 1),
            teeth=(None,) * 6,
        )
        chan = plug(comb, [np.eye(2)] * 5)
        rho = random_density(8, np.random.default_rng(3)).matrix
        np.testing.assert_allclose(chan.apply(rho), rho, atol=1e-12)

    def test_five_hole_layout_reduces_to_register_products(self):
        rng = np.random.default_rng(4)
        us = [random_unitary(2, rng) for _ in range(5)]
        comb = Comb(
            n_holes=5, k=1, width=3, y_dim=1,
            hole_registers=(0, 0, 1, 2, 1),
            teeth=(None,) * 6,
        )
        chan = plug(comb, us)
        expected = np.kron(np.kron(us[1] @ us[0], us[4] @ us[2]), us[3])
        rho = random_density(8, rng).matrix
        np.testing.assert_allclose(chan.apply(rho), expected @ rho @ dagger(expected), atol=1e-11)

    def test_swap_tooth_pattern(self):
        self.check_swap_pattern(k=1)

    def test_swap_tooth_pattern_on_two_qubit_registers(self):
        self.check_swap_pattern(k=2)

    @staticmethod
    def check_swap_pattern(k):
        # both holes wired to register 1 with a swap between them: V swap U
        rng = np.random.default_rng(5)
        d = 2**k
        u, v = random_unitary(d, rng), random_unitary(d, rng)
        swap = register_permutation_unitary((1, 0), 2, k)
        comb = Comb(
            n_holes=2, k=k, width=2, y_dim=1,
            hole_registers=(0, 0),
            teeth=(None, Tooth((1, 0), None, None, None), None),
        )
        chan = plug(comb, [u, v])
        expected = np.kron(v, np.eye(d)) @ swap @ np.kron(u, np.eye(d))
        rho = random_density(d * d, rng).matrix
        np.testing.assert_allclose(chan.apply(rho), expected @ rho @ dagger(expected), atol=1e-11)
        vec = random_pure_state(d * d, rng).amplitudes
        np.testing.assert_allclose(_evolve(comb, [u, v], vec), expected @ vec, atol=1e-12)

    def test_layout_errors(self):
        comb = trivial_parallel_comb(2)

        def network(c, us):
            test = GeneralTest(random_density(4, np.random.default_rng(0)), tuple(us),
                               PovmElement(np.eye(4)))
            return general_test_acceptance(test, c, HONEST)

        # the two entry points that check the hole layout
        for evaluate in (plug, network):
            with pytest.raises(LayoutError):
                evaluate(comb, [np.eye(2)])
            with pytest.raises(LayoutError):
                evaluate(comb, [np.eye(4), np.eye(4)])

    @pytest.mark.parametrize("perm", [(0, 0), (1, 2), (0,), (2, 1, 0)])
    def test_permutation_check_is_shared(self, perm):
        messages = []
        for build in (lambda: build_tooth(Tooth(perm, None, None, None), width=2, k=1),
                      lambda: register_permutation_unitary(perm, 2, 1)):
            with pytest.raises(LayoutError) as err:
                build()
            messages.append(str(err.value))
        assert messages == [f"{perm} is not a permutation of 0..1"] * 2

    def test_register_permutation_matches_basis_loop(self):
        for k in (1, 2):
            for width in (1, 2, 3):
                d = 2**k
                dims, full = (d,) * width, d**width
                for perm in itertools.permutations(range(width)):
                    # output slot j holds input register perm[j], basis state by basis state
                    ref = np.zeros((full, full), dtype=np.complex128)
                    for x in range(full):
                        digits = np.unravel_index(x, dims)
                        ref[np.ravel_multi_index(tuple(digits[p] for p in perm), dims), x] = 1.0
                    got = register_permutation_unitary(perm, width, k)
                    assert got.dtype == ref.dtype and np.array_equal(got, ref), (k, perm)

    @pytest.mark.parametrize("layout, message", [
        ((-1, 1, (), ()), r"^comb dimensions must be positive \(n_holes may be 0\)$"),
        ((2, 2, (0,), (None,) * 3), r"^1 hole registers for 2 holes$"),
        ((1, 2, (2,), (None,) * 2), r"^hole registers \(2,\) outside 0\.\.1$"),
        ((1, 1, (0,), (None,)), r"^1 teeth for 1 holes \(need n \+ 1\)$"),
    ], ids=["negative-holes", "register-count", "register-range", "teeth-count"])
    def test_comb_rejects_a_bad_layout(self, layout, message):
        n_holes, width, registers, teeth = layout
        with pytest.raises(LayoutError, match=message):
            Comb(n_holes=n_holes, k=1, width=width, y_dim=1, hole_registers=registers, teeth=teeth)

    def test_rejects_a_plugged_channel_that_loses_trace(self):
        lossy = Channel((0.5 * np.eye(2),), check=False)
        with pytest.raises(ContractViolationError,
                           match=r"^plugged network is not trace preserving within 1e-9$"):
            plug(trivial_parallel_comb(1), [lossy])

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            Comb(n_holes=9, k=1, width=9, y_dim=1,
                 hole_registers=tuple(range(9)), teeth=(None,) * 10)


class TestGeneralTestAcceptance:
    def test_honest_product_tests(self):
        spec = ProtocolSpec(
            omega=RoundDistribution.point_mass(3), k=1,
            traps=PlusTraps(), acceptance=plus_acceptance(),
        )
        (row,) = round_outcome_table_via_combs(spec, HONEST).rows
        assert row.tolist() == pytest.approx([1.0] * 4, abs=1e-12)

    def test_entangled_test_detects_attack_at_generic_rate(self):
        phi = bell_pair()
        test = GeneralTest(
            chi=phi.density(),
            unitaries=(np.eye(2, dtype=complex),),
            measurement=PovmElement(phi.projector()),
        )
        comb = trivial_parallel_comb(1, k=1, y_dim=2)
        for alpha in (0.5, 1.4, 2.9):
            got = general_test_acceptance(test, comb, PhaseAttack(alpha))
            assert got == pytest.approx(math.cos(alpha / 2) ** 2, abs=1e-12)

    def test_matches_per_round_engine(self):
        traps = RandomTraps(seed=8)
        spec = ProtocolSpec(
            omega=RoundDistribution.point_mass(2), k=1,
            traps=traps, acceptance=matched_acceptance(traps),
        )
        for strategy in (HONEST, PhaseAttack(0.9, Placement.PRE)):
            (via,) = round_outcome_table_via_combs(spec, strategy).rows
            (direct,) = round_outcome_table(spec, strategy).rows
            assert via.tolist() == pytest.approx(direct.tolist(), abs=1e-12)

    def test_layout_mismatch(self):
        phi = bell_pair()
        comb = trivial_parallel_comb(1, y_dim=2)
        two_holes = GeneralTest(
            chi=phi.density(),
            unitaries=(np.eye(2, dtype=complex),) * 2,
            measurement=PovmElement(phi.projector()),
        )
        # a 4-dim unitary in a 2-dim hole: named before the attack phases meet it
        wide_hole = GeneralTest(
            chi=phi.density(),
            unitaries=(np.eye(4, dtype=complex),),
            measurement=PovmElement(phi.projector()),
        )
        for test in (two_holes, wide_hole):
            for strategy in (HONEST, PhaseAttack(0.8), PhaseAttack(0.8, Placement.PRE)):
                with pytest.raises(LayoutError):
                    general_test_acceptance(test, comb, strategy)

    @pytest.mark.parametrize("chi, measurement, message", [
        (bell_pair().amplitudes[:2] * math.sqrt(2.0), np.eye(4),
         r"^test state has dim 2, network expects 4$"),
        (bell_pair().amplitudes, np.eye(2), r"^measurement has dim 2, network expects 4$"),
    ], ids=["state", "measurement"])
    def test_rejects_a_state_or_measurement_of_another_dim(self, chi, measurement, message):
        test = GeneralTest(PureState(chi), (np.eye(2),), PovmElement(measurement))
        with pytest.raises(LayoutError, match=message):
            general_test_acceptance(test, trivial_parallel_comb(1, y_dim=2), HONEST)

    @pytest.mark.parametrize("build, message", [
        (lambda: bell_test_setup(0), r"^need at least one test round, got 0$"),
    ], ids=["bell"])
    def test_setups_need_a_test_round(self, build, message):
        with pytest.raises(ContractViolationError, match=message):
            build()

    @pytest.mark.parametrize("bad", [
        np.diag([1.0, 2.0]), np.ones((2, 3)), np.array([[1.0, 0.0], [0.0, np.nan]]),
    ])
    def test_rejects_bad_unitary(self, bad):
        phi = bell_pair()
        with pytest.raises(ContractViolationError):
            GeneralTest(chi=phi.density(), unitaries=(np.eye(2), bad),
                        measurement=PovmElement(phi.projector()))


class TestOverallGeneral:
    def test_point_mass_zero_accepts(self):
        setup = GeneralSetup(omega=RoundDistribution.point_mass(0), k=1, tests={}, combs={})
        assert setup.outcome_table(HONEST).acceptance == 1.0

    def test_rejects_missing_tests_or_combs(self):
        bell = bell_test_setup(2)
        with pytest.raises(LayoutError, match=r"no tests\[3\]"):
            GeneralSetup(RoundDistribution.point_mass(3), 1, bell.tests, bell.combs)
        combs = {key: comb for key, comb in bell.combs.items() if key != (2, 2)}
        with pytest.raises(LayoutError, match=r"no combs\[\(2, 2\)\]"):
            GeneralSetup(bell.omega, 1, bell.tests, combs)

    def test_bell_two_rounds_attack(self):
        setup = bell_test_setup(2)
        for alpha in (0.7, 2.1):
            got = setup.outcome_table(PhaseAttack(alpha)).acceptance
            assert got == pytest.approx(math.cos(alpha / 2) ** 4, abs=1e-12)

    def test_overall_is_weighted_table(self):
        setups = [bell_test_setup(1), bell_test_setup(3)]
        setups += [random_comb_draw(seed).setup for seed in (0, 2, 3, 5)]
        for setup in setups:
            for strategy in (HONEST, PhaseAttack(1.3), PhaseAttack(2.2, Placement.PRE)):
                got = setup.outcome_table(strategy).acceptance
                # sequential reference: one general-test evaluation per (n, ell)
                expected = sum(
                    wn * w * general_test_acceptance(setup.tests[n], setup.combs[(n, ell)],
                                                     strategy)
                    for n, wn in setup.omega.support if n > 0
                    for ell, w in enumerate(output_round_weights(setup.output_round, n), 1)
                ) + dict(setup.omega.support).get(0, 0.0)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_main_engine_uniform(self):
        spec = ProtocolSpec(
            omega=RoundDistribution.from_pairs([(0, 0.25), (1, 0.25), (3, 0.5)]),
            k=1, traps=PlusTraps(), acceptance=plus_acceptance(),
        )
        for strategy in (HONEST, PhaseAttack(1.2), PhaseAttack(2.8, Placement.PRE)):
            assert round_outcome_table_via_combs(spec, strategy).acceptance == pytest.approx(
                overall_acceptance(spec, strategy), abs=1e-10
            )


class TestDiamondDistance:
    def test_equal_unitaries(self):
        assert diamond_distance_unitaries(np.eye(2), np.eye(2)) == 0.0

    def test_half_turn_is_maximal(self):
        assert diamond_distance_unitaries(np.eye(2), phase_gate(math.pi)) == pytest.approx(1.0)

    def test_third_turn(self):
        got = diamond_distance_unitaries(np.eye(2), phase_gate(math.pi / 3))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_fifty_angles_closed_form(self):
        for alpha in np.linspace(0.0, 2 * math.pi, 50, endpoint=False):
            got = diamond_distance_unitaries(np.eye(2), phase_gate(alpha))
            assert got == pytest.approx(abs(math.sin(alpha / 2)), abs=1e-9)

    def test_search_agrees(self):
        for alpha in (0.0, 0.6, 1.5, math.pi, 4.4):
            closed = diamond_distance_unitaries(np.eye(2), phase_gate(alpha))
            searched = diamond_distance_pure_search(np.eye(2), phase_gate(alpha))
            assert abs(closed - searched) <= 1e-5
        rng = np.random.default_rng(12)
        for k, pairs in ((1, 10), (2, 3)):
            for _ in range(pairs):
                u, v = random_unitary(2**k, rng), random_unitary(2**k, rng)
                searched = diamond_distance_pure_search(u, v)
                assert searched == pytest.approx(diamond_distance_unitaries(u, v), abs=1e-9)
        with pytest.raises(DimensionCapError):
            diamond_distance_pure_search(np.eye(8), np.eye(8))

    def test_stacked_search_equals_each_one_pair_call(self):
        rng = np.random.default_rng(13)
        gates = np.stack([phase_gate(a) for a in np.linspace(0.0, 2 * math.pi, 50, endpoint=False)])
        u2, v2 = (np.stack([random_unitary(2, rng) for _ in range(30)]) for _ in range(2))
        u4, v4 = (np.stack([random_unitary(4, rng) for _ in range(2)]) for _ in range(2))
        for u, v in ((np.eye(2), gates), (u2, v2), (u4, v4)):
            stacked = diamond_distance_pure_search(u, v)
            single = [diamond_distance_pure_search(a, b) for a, b in zip(*np.broadcast_arrays(u, v))]
            assert all(type(x) is float for x in single)
            assert stacked.shape == (len(single),) and stacked.tolist() == single
        grid = diamond_distance_pure_search(np.eye(2), gates.reshape(5, 10, 2, 2))
        assert grid.shape == (5, 10) and np.array_equal(grid.ravel(), diamond_distance_pure_search(np.eye(2), gates))

    def test_fifty_pair_search_peaks_below_6_mb(self):
        # the grid is scanned in blocks and each eigvalsh stack is freed before the next
        gates = np.stack([phase_gate(a) for a in np.linspace(0.0, 2 * math.pi, 50, endpoint=False)])
        tracemalloc.start()
        try:
            diamond_distance_pure_search(np.eye(2), gates)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_stacked_bad_input_names_the_first_bad_pair(self):
        gates = np.stack([phase_gate(a) for a in (0.1, 0.2, 0.3, 0.4)])
        scaled, nan = gates.copy(), gates.copy()
        scaled[2:] *= 2.0
        nan[1, 0, 0] = np.nan
        cases = [
            (np.eye(2), scaled, r"^second argument at stack index 2 is not unitary within 1e-10$"),
            (scaled, gates, r"^first argument at stack index 2 is not unitary within 1e-10$"),
            (np.eye(2), nan, r"^second argument at stack index 1 has non-finite entries$"),
            (gates, np.eye(4), r"^second argument has dim 4, expected 2$"),
            (gates, gates[:3], r"do not broadcast$"),
        ]
        for u, v, message in cases:
            with pytest.raises(ContractViolationError, match=message):
                diamond_distance_pure_search(u, v)

    def test_left_unitary_invariance(self):
        # ||T - T A|| equals ||I - A|| for any unitary T
        rng = np.random.default_rng(6)
        for k in (1, 2):
            a = np.kron(np.eye(2 ** (k - 1)), phase_gate(1.234))
            ref = diamond_distance_unitaries(np.eye(2**k), a)
            for _ in range(10):
                t = random_unitary(2**k, rng)
                assert diamond_distance_unitaries(t, t @ a) == pytest.approx(ref, abs=1e-9)

    def test_rejects_non_unitary(self):
        with pytest.raises(ContractViolationError):
            diamond_distance_unitaries(np.diag([1.0, 2.0]), np.eye(2))

    @pytest.mark.parametrize(
        "distance", [diamond_distance_unitaries, diamond_distance_pure_search],
        ids=["closed-form", "search"],
    )
    @pytest.mark.parametrize(
        "u, v",
        [
            (np.eye(2), np.eye(4)),
            (np.eye(2), np.diag([1.0, 2.0])),
            (np.diag([1.0, 2.0]), np.eye(2)),
            (np.eye(2), np.ones((2, 3))),
            (np.eye(2), np.diag([1.0, np.nan])),
        ],
        ids=["shape-mismatch", "second-non-unitary", "first-non-unitary", "non-square", "nan"],
    )
    def test_rejects_bad_input(self, distance, u, v):
        with pytest.raises(ContractViolationError):
            distance(u, v)


class TestCombContraction:
    def test_network_distance_bounded_by_per_round_distances(self):
        # plugging rotated rounds moves the output by at most the sum of
        # the per-round diamond distances
        for seed in range(10):
            draw = random_comb_draw(seed)
            setup = draw.setup
            attack = PhaseAttack(draw.alpha, draw.placement)
            for n, test in setup.tests.items():
                for ell in range(1, n + 2):
                    comb = setup.combs[(n, ell)]
                    played = [transform_round(attack, u, comb.k) for u in test.unitaries]
                    out_h = _evolve(comb, test.unitaries, test.chi.matrix)
                    out_d = _evolve(comb, played, test.chi.matrix)
                    lhs = 0.5 * trace_norm(out_h - out_d)
                    rhs = sum(
                        diamond_distance_unitaries(u, v) for u, v in zip(test.unitaries, played)
                    )
                    assert lhs <= rhs + 1e-9


def plugged_reference(comb, unitaries, rho):
    """plug's composed channel, with the identity on the auxiliary space, applied to rho."""
    eye = np.eye(comb.y_dim)
    network = plug(comb, unitaries)
    return Channel([np.kron(op, eye) for op in network.kraus], check=False).apply(rho)


class TestStateEvolution:
    def test_matches_plug_on_layouts(self):
        rng = np.random.default_rng(11)
        swap = Tooth((1, 0), None, None, None)
        combs = [
            trivial_parallel_comb(1),
            trivial_parallel_comb(2, y_dim=2),
            Comb(n_holes=5, k=1, width=3, y_dim=1,
                 hole_registers=(0, 0, 1, 2, 1), teeth=(None,) * 6),
            Comb(n_holes=2, k=1, width=2, y_dim=1,
                 hole_registers=(0, 0), teeth=(None, swap, None)),
            Comb(n_holes=2, k=1, width=2, y_dim=4, hole_registers=(1, 0),
                 teeth=(Tooth(None, "depolarizing", 1, 0.4), swap,
                        Tooth(None, "dephasing", 0, 0.7))),
        ]
        for comb in combs:
            us = [random_unitary(2, rng) for _ in range(comb.n_holes)]
            rho = random_density(comb.register_dim * comb.y_dim, rng).matrix
            np.testing.assert_allclose(
                _evolve(comb, us, rho), plugged_reference(comb, us, rho), rtol=0, atol=1e-12
            )

    def test_matches_plug_on_random_networks(self):
        for seed in range(20):
            draw = random_comb_draw(seed)
            attack = PhaseAttack(draw.alpha, draw.placement)
            for (n, ell), comb in draw.setup.combs.items():
                test = draw.setup.tests[n]
                for strategy in (HONEST, attack):
                    played = [transform_round(strategy, u, comb.k) for u in test.unitaries]
                    np.testing.assert_allclose(
                        _evolve(comb, played, test.chi.matrix),
                        plugged_reference(comb, played, test.chi.matrix),
                        rtol=0, atol=1e-12, err_msg=f"seed {seed}, n {n}, ell {ell}",
                    )

    @pytest.mark.parametrize("k, width, y_dim", [(2, 2, 1), (2, 2, 2), (3, 1, 2), (2, 3, 1)])
    def test_matches_plug_on_multi_qubit_registers(self, k, width, y_dim):
        # each hole is a k-qubit Liouville form, whose rows and columns the
        # density path reorders into (left, right) qubit pairs
        rng = np.random.default_rng(100 * k + 10 * width + y_dim)
        qubits = width * k

        def noise(name):
            return Tooth(None, name, int(rng.integers(0, qubits)), float(rng.uniform(0.1, 0.9)))

        perm = tuple(int(p) for p in np.roll(range(width), 1))  # a rotation; the identity at width 1
        comb = Comb(n_holes=3, k=k, width=width, y_dim=y_dim,
                    hole_registers=tuple(int(r) for r in rng.integers(0, width, size=3)),
                    teeth=(noise("depolarizing"), noise("dephasing")._replace(permutation=perm),
                           None, noise("depolarizing")))
        us = [random_unitary(2**k, rng) for _ in range(3)]
        rho = random_density(comb.register_dim * y_dim, rng).matrix
        np.testing.assert_allclose(
            _evolve(comb, us, rho), plugged_reference(comb, us, rho), rtol=0, atol=1e-12)

    def test_rejects_output_without_unit_trace(self):
        rho = random_density(2, np.random.default_rng(12)).matrix
        with pytest.raises(ContractViolationError):
            _evolve(trivial_parallel_comb(1), [np.eye(2)], 2.0 * rho)

    def test_rejects_a_vector_output_without_unit_norm(self):
        # the vector path checks the output's squared norm, as the density path its trace
        vec = np.array([1.0, 0.0], dtype=complex)
        message = r"^network output has squared norm 1\.0201\d*, not 1 within 1e-9$"
        with pytest.raises(ContractViolationError, match=message):
            _evolve(trivial_parallel_comb(1), [1.01 * np.eye(2)], vec)

    def test_production_never_composes(self, monkeypatch):
        noisy = parse_config(json.dumps({
            "protocol": {"omega": {"point_mass": 8}, "k": 1,
                         "traps": {"family": "plus"}, "acceptance": {"family": "plus"}},
            "strategy": {"kind": "phase-attack", "alpha": "theorem-optimal"},
            "models": ["stand-alone", "composable"],
            "variant": {"kind": "general-tests", "setup": {
                "family": "custom", "width": 2, "y_qubits": 1,
                "hole_registers": [1, 2, 1, 1, 2, 2, 1, 2],
                "teeth": [{"channel": "depolarizing", "register": 1 + j % 2, "strength": 0.3,
                           **({"permute": [2, 1]} if j % 3 == 0 else {})} for j in range(9)],
                "unitaries": "random", "unitary_seed": 5,
            }},
        }))

        def forbidden(*args, **kwargs):
            raise AssertionError("production path composed Kraus sets")

        monkeypatch.setattr(combs_module, "plug", forbidden)
        monkeypatch.setattr(Channel, "compose", forbidden)
        assert bell_test_setup(2).outcome_table(PhaseAttack(0.8)).acceptance == pytest.approx(
            math.cos(0.4) ** 4, abs=1e-12)
        draw = random_comb_draw(4)
        assert acceptance_gap_step(draw.setup, draw.alpha, draw.placement).holds
        # the custom setup: eight holes with a depolarizing tooth in every gap
        # would plug 4**9 Kraus operators; by state evolution it takes milliseconds
        bundle = run_scenario(noisy)
        assert [r.report.satisfied for r in bundle.runs] == [True, True]


def custom_setup(teeth, n=3):
    """A width-2 custom comb with one kept qubit and random unitaries."""
    cfg = parse_config(json.dumps({
        "protocol": {"omega": {"point_mass": n}, "k": 1,
                     "traps": {"family": "plus"}, "acceptance": {"family": "plus"}},
        "strategy": {"kind": "phase-attack", "alpha": "theorem-optimal"},
        "models": ["composable"],
        "variant": {"kind": "general-tests", "setup": {
            "family": "custom", "width": 2, "y_qubits": 1,
            "hole_registers": [1 + j % 2 for j in range(n)], "teeth": teeth,
            "unitaries": "random", "unitary_seed": 2,
        }},
    }))
    return custom_test_setup(cfg.canonical()["variant"]["setup"])


PERMUTE_ONLY = [None, {"permute": [2, 1]}, None, {"permute": [2, 1]}]


class TestVectorAndDensityPaths:
    """A pure state through a unitary network goes through as a vector, any
    other state as a density tensor; both agree with the dense plug reference."""

    @staticmethod
    def three_ways(comb, unitaries, vec) -> bool:
        rho = np.outer(vec, vec.conj())
        ref = plugged_reference(comb, unitaries, rho)
        out = _evolve(comb, unitaries, vec)
        as_density = np.outer(out, out.conj()) if out.ndim == 1 else out
        np.testing.assert_allclose(as_density, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(_evolve(comb, unitaries, rho), ref, rtol=0, atol=1e-12)
        return out.ndim == 1

    def test_random_networks(self):
        rng = np.random.default_rng(21)
        paths = []
        for seed in range(20):
            draw = random_comb_draw(seed)
            attack = PhaseAttack(draw.alpha, draw.placement)
            for (n, ell), comb in draw.setup.combs.items():
                vec = random_pure_state(comb.register_dim * comb.y_dim, rng).amplitudes
                for strategy in (HONEST, attack):
                    played = [transform_round(strategy, u, comb.k)
                              for u in draw.setup.tests[n].unitaries]
                    paths.append(self.three_ways(comb, played, vec))
        # the draws have both unitary networks and noisy ones
        assert any(paths) and not all(paths)

    def test_unitary_layouts_go_through_as_vectors(self):
        rng = np.random.default_rng(22)
        combs = [bell_test_setup(n).combs[(n, 1)] for n in (1, 2, 3)]
        combs += [custom_setup(PERMUTE_ONLY).combs[(3, 1)], trivial_parallel_comb(2, k=2, y_dim=2)]
        for comb in combs:
            unitaries = [random_unitary(comb.hole_dim, rng) for _ in range(comb.n_holes)]
            for strategy in (HONEST, PhaseAttack(1.1), PhaseAttack(2.3, Placement.PRE)):
                played = [transform_round(strategy, u, comb.k) for u in unitaries]
                vec = random_pure_state(comb.register_dim * comb.y_dim, rng).amplitudes
                assert self.three_ways(comb, played, vec)

    def test_bell_setup_runs_no_eigendecomposition(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("eigendecomposition while building or reading a bell setup")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        setup = bell_test_setup(4)
        got = setup.outcome_table(PhaseAttack(0.6)).acceptance
        assert got == pytest.approx(math.cos(0.3) ** 8, abs=1e-12)

    def test_acceptance_never_embeds(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("operator embedded into the whole register stack")

        monkeypatch.setattr(combs_module, "_embed", forbidden)
        noisy = [None, {"channel": "depolarizing", "register": 2, "strength": 0.3},
                 {"permute": [2, 1], "channel": "dephasing"}, None]
        setups = [bell_test_setup(3), custom_setup(PERMUTE_ONLY), custom_setup(noisy)]
        setups += [random_comb_draw(seed).setup for seed in range(6)]
        for setup in setups:
            for n, test in setup.tests.items():
                comb = setup.combs[(n, 1)]
                for strategy in (HONEST, PhaseAttack(0.9), PhaseAttack(0.9, Placement.PRE)):
                    assert 0.0 <= general_test_acceptance(test, comb, strategy) <= 1.0

    def test_match_state_is_rank_one_on_unitary_networks(self):
        unitary = custom_setup(PERMUTE_ONLY)
        assert isinstance(unitary.tests[3].chi, PureState)
        assert isinstance(unitary.tests[3].measurement, RankOneEffect)
        assert unitary.outcome_table(HONEST).acceptance == pytest.approx(1.0, abs=1e-12)
        noisy = custom_setup([None, {"channel": "dephasing"}, None, None])
        assert isinstance(noisy.tests[3].measurement, PovmElement)

    def test_models_share_the_honest_table(self, monkeypatch):
        strategies = []
        evaluate = combs_module.general_test_acceptance

        def counting(test, comb, strategy):
            strategies.append(strategy)
            return evaluate(test, comb, strategy)

        monkeypatch.setattr(combs_module, "general_test_acceptance", counting)
        setup = bell_test_setup(2)
        reports = [general_tradeoff_check(model, setup) for model in SecurityModel]
        # one honest evaluation, one attacked per model (their angles differ)
        assert strategies.count(HONEST) == 1 and len(strategies) == 3
        assert reports[0].honest_rounds is reports[1].honest_rounds


def acceptance_gap_step(setup, alpha, placement=Placement.POST):
    """The composable report's ``acceptance_gap`` step: ``lhs`` is the linear
    bound N|sin(alpha/2)|, ``rhs`` the gap |p_H - p_D|."""
    report = general_tradeoff_check(SecurityModel.COMPOSABLE, setup, alpha, placement)
    (step,) = (s for s in report.proof_steps if s.name == "acceptance_gap")
    return step


class TestLinearGapBound:
    def test_zero_angle(self):
        setup = bell_test_setup(2)
        step = acceptance_gap_step(setup, 0.0)
        assert step.rhs == pytest.approx(0.0, abs=1e-12)
        assert step.holds

    def test_bell_example(self):
        setup = bell_test_setup(2)
        step = acceptance_gap_step(setup, math.pi / 4)
        assert step.rhs == pytest.approx(1.0 - math.cos(math.pi / 8) ** 4, abs=1e-12)
        assert step.lhs == pytest.approx(2.0 * math.sin(math.pi / 8), abs=1e-12)
        assert step.holds

    def test_random_networks(self):
        for seed in range(20):
            draw = random_comb_draw(seed)
            step = acceptance_gap_step(draw.setup, draw.alpha, draw.placement)
            assert step.holds, f"seed {seed}: {step}"


class TestGeneralTradeoff:
    def test_stand_alone_bell_two(self):
        report = general_tradeoff_check(SecurityModel.STAND_ALONE, bell_test_setup(2))
        assert report.bound == pytest.approx(1.0 / 28.0)
        assert report.satisfied
        s = 2.0 / (3.0 * 2.0)
        assert report.eps_d == pytest.approx((1 - s * s) ** 2 * s * s, abs=1e-10)

    def test_composable_bell_two(self):
        report = general_tradeoff_check(SecurityModel.COMPOSABLE, bell_test_setup(2))
        assert report.bound == pytest.approx(1.0 / 8.0)
        assert report.satisfied
        assert all(s.holds for s in report.proof_steps)

    def test_small_n_out_of_domain(self):
        # expected round count 0.1 puts the angle choice outside the arcsin domain
        base = bell_test_setup(1)
        setup = GeneralSetup(
            omega=RoundDistribution.from_pairs([(0, 0.9), (1, 0.1)]),
            k=1, tests=base.tests, combs=base.combs,
        )
        with pytest.raises(OutOfDomainError):
            general_tradeoff_check(SecurityModel.STAND_ALONE, setup)

    def test_full_sweep(self):
        for n in (1, 2, 3, 4):
            setup = bell_test_setup(n)
            sa = general_tradeoff_check(SecurityModel.STAND_ALONE, setup)
            assert sa.eps_h + sa.eps_d >= 1.0 / (7.0 * n * n) - 1e-12
            co = general_tradeoff_check(SecurityModel.COMPOSABLE, setup)
            assert co.eps_h + co.eps_d >= 1.0 / (4.0 * n) - 1e-12


class TestReferenceFetchesOncePerN:
    def test_traps_fetched_once_per_n(self):
        calls = []

        class CountingTraps(RandomTraps):
            def action(self, k, n, e=None):
                calls.append((self.seed, n))
                return super().action(k, n, e)

        traps, other = CountingTraps(seed=8), CountingTraps(seed=9)
        for rule, draws in ((matched_acceptance(traps), [(8, 4)]),
                            (matched_acceptance(other), [(8, 4), (9, 4)])):
            calls.clear()
            spec = ProtocolSpec(
                omega=RoundDistribution.point_mass(4), k=1, traps=traps, acceptance=rule,
            )
            round_outcome_table_via_combs(spec, PhaseAttack(0.7))
            # one block per n for the traps; a matched rule over the spec's own
            # traps reads its effects from that block, over other traps from
            # one block of theirs
            assert sorted(calls) == draws


class TestCrossEngine:
    def test_round_dependent_traps_per_round_view(self):
        traps = RandomTraps(seed=33)
        spec = ProtocolSpec(
            omega=RoundDistribution.point_mass(3), k=1,
            traps=traps, acceptance=matched_acceptance(traps),
        )
        attack = PhaseAttack(1.9)
        (via,) = round_outcome_table_via_combs(spec, attack).rows
        (direct,) = round_outcome_table(spec, attack).rows
        assert via.shape == (4,)
        assert via.tolist() == pytest.approx(direct.tolist(), abs=1e-10)
