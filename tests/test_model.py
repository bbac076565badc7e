import math

import numpy as np
import pytest
from conftest import sigma_x, sigma_y

from drag_forge import (HamiltonianGenerators, SystemSpec, Topology,
                        build_intermediate_sno, build_sno, build_star,
                        generators, hamiltonian_at, spec_from_json,
                        spec_to_json)

TWO_PI = 2.0 * math.pi


class TestBuildSno:
    def test_d3_values(self):
        spec = build_sno(3, -TWO_PI)
        assert spec.delta == {0: 0.0, 1: 0.0, 2: -TWO_PI}
        assert spec.lam[0] == 1.0
        assert spec.lam[1] == pytest.approx(math.sqrt(2), abs=0)

    def test_d5_higher_levels(self):
        spec = build_sno(5, -TWO_PI)
        assert spec.delta[3] == pytest.approx(3 * -TWO_PI)
        assert spec.delta[4] == pytest.approx(6 * -TWO_PI)
        assert spec.lam[3] == pytest.approx(2.0)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError, match="d >= 3"):
            build_sno(2, -TWO_PI)

    def test_rejects_zero_anharmonicity(self):
        with pytest.raises(ValueError, match="nonzero"):
            build_sno(4, 0.0)

    def test_anharmonicity_telescoping(self):
        # delta_{j+1} - delta_j = j * delta2 for the quadratic SNO spectrum
        spec = build_sno(7, -TWO_PI)
        for j in range(1, 6):
            assert spec.delta[j + 1] - spec.delta[j] == pytest.approx(j * -TWO_PI)


class TestBuildIntermediate:
    def test_paper_window_values(self, inter5):
        d2 = -TWO_PI
        assert inter5.delta[-1] == pytest.approx(d2)
        assert inter5.delta[-2] == pytest.approx(3 * d2)
        assert inter5.delta[2] == pytest.approx(d2)
        assert inter5.lam[-1] == pytest.approx(math.sqrt(2 / 3))
        assert inter5.lam[-2] == pytest.approx(math.sqrt(1 / 3))
        assert inter5.lam[1] == pytest.approx(math.sqrt(4 / 3))

    def test_lam0_normalized(self, inter5):
        assert inter5.lam[0] == 1.0

    def test_leakage_deltas_nonzero(self, inter5):
        for j in inter5.leakage_levels:
            assert inter5.delta[j] != 0.0

    def test_rejects_even_d(self):
        with pytest.raises(ValueError, match="odd"):
            build_intermediate_sno(6, -TWO_PI)

    def test_rejects_d_below_5(self):
        # d = 3 has no level 2 above the qubit, so no delta2 and no lam[1]
        with pytest.raises(ValueError, match="odd d >= 5, got d=3"):
            build_intermediate_sno(3, -TWO_PI)
        with pytest.raises(ValueError, match="odd d >= 5, got d=3"):
            SystemSpec(Topology.INTERMEDIATE, 3,
                       {-1: -TWO_PI, 0: 0.0, 1: 0.0}, {-1: 0.7, 0: 1.0})

    def test_window_rule_against_recentering_oracle(self, inter5):
        # derive the window parameters from scratch: take the bare 6-level
        # quadratic spectrum, relabel level 2 -> 0, re-zero the energies and
        # rescale the weights so the new qubit transition is unity
        d2 = -TWO_PI
        omega = 5.0 * TWO_PI
        energy = {k: k * omega + d2 * k * (k - 1) / 2 for k in range(6)}
        weight = {k: math.sqrt(k + 1) for k in range(5)}  # k -> k+1 transition
        new_qubit_freq = energy[3] - energy[2]
        oracle_delta = {j: energy[j + 2] - energy[2] - j * new_qubit_freq
                        for j in range(-2, 4)}
        oracle_lam = {m: weight[m + 2] / weight[2] for m in range(-2, 3)}

        # the re-centered spectrum keeps the quadratic closed form, covering
        # the levels beyond the symmetric d=5 window as well
        for j in range(-2, 4):
            assert oracle_delta[j] == pytest.approx(d2 * j * (j - 1) / 2)
        assert oracle_delta[3] == pytest.approx(3 * d2)
        assert oracle_lam[2] == pytest.approx(math.sqrt(5 / 3))

        # the builder's d=5 window agrees with the oracle where it overlaps
        for j in inter5.levels:
            assert inter5.delta[j] == pytest.approx(oracle_delta[j])
        for m, _, _ in inter5.transitions:
            assert inter5.lam[m] == pytest.approx(oracle_lam[m])

    def test_signed_rows(self, inter5):
        assert inter5.qubit_rows == (2, 3)
        assert inter5.row(-2) == 0


class TestLevelMap:
    """``SystemSpec.row`` is the one label-to-row lookup on every topology."""

    @pytest.mark.parametrize("name,label,levels", [
        ("sno5", 7, "(0, 1, 2, 3, 4)"),
        ("inter5", -9, "(-2, -1, 0, 1, 2)"),
        ("inter5", 3, "(-2, -1, 0, 1, 2)"),
        ("star6", 6, "(0, 1, 2, 3, 4, 5)"),
        ("sno5", True, "(0, 1, 2, 3, 4)"),
        ("sno5", 2.0, "(0, 1, 2, 3, 4)"),
        ("inter5", -1.0, "(-2, -1, 0, 1, 2)"),
        ("star6", False, "(0, 1, 2, 3, 4, 5)"),
    ], ids=["sno5-7", "inter5-minus9", "inter5-3", "star6-6", "sno5-true",
            "sno5-float", "inter5-float", "star6-false"])
    def test_unknown_label_raises(self, request, name, label, levels):
        # an unchecked offset read inter5's -9 as row -7, which numpy
        # counts from the end; True and 2.0 compare equal to the labels 1
        # and 2, so a bare index lookup would accept them
        spec = request.getfixturevalue(name)
        with pytest.raises(ValueError) as exc:
            spec.row(label)
        assert str(exc.value) == (f"no level {label} in this system; its "
                                  f"levels are {levels}")

    @pytest.mark.parametrize("name", ["sno5", "inter5", "star6"])
    def test_every_label_maps_to_its_index(self, request, name):
        spec = request.getfixturevalue(name)
        assert [spec.row(j) for j in spec.levels] == list(range(spec.d))
        assert [spec.row(np.int64(j)) for j in spec.levels] == list(
            range(spec.d))

    @pytest.mark.parametrize("name", ["sno5", "inter5", "star6"])
    def test_generators_size_is_the_level_count(self, request, name):
        spec = request.getfixturevalue(name)
        assert generators(spec).d == spec.d

    def test_hand_built_generators_size(self):
        gen = HamiltonianGenerators(
            np.zeros((2, 2), complex), np.diag([0.0, 1.0]).astype(complex),
            sigma_x(2, 0, 1), sigma_y(2, 0, 1))
        assert gen.d == 2


class TestGenerators:
    def test_ladder_hx_entries(self, sno3):
        gen = generators(sno3)
        assert gen.h_x[0, 1] == pytest.approx(1.0)
        assert gen.h_x[1, 2] == pytest.approx(math.sqrt(2))
        assert gen.h_x[0, 2] == 0.0

    def test_star_topology_entries(self):
        star = build_star([-TWO_PI, -2 * TWO_PI], [1.0, 1.0])
        gen = generators(star)
        assert gen.h_x[0, 1] == 1.0
        assert gen.h_x[1, 2] == 1.0
        assert gen.h_x[1, 3] == 1.0
        assert gen.h_x[2, 3] == 0.0
        assert gen.h_x[0, 2] == 0.0
        assert np.allclose(np.diag(gen.h_z), [0, 1, 2, 2])

    def test_intermediate_hz(self, inter5):
        gen = generators(inter5)
        assert np.allclose(np.diag(gen.h_z), [-2, -1, 0, 1, 2])

    @pytest.mark.parametrize("builder", [
        lambda: build_sno(5, -TWO_PI),
        lambda: build_intermediate_sno(7, -TWO_PI),
        lambda: build_star([-TWO_PI, -3 * TWO_PI], [0.7, 1.3]),
    ])
    def test_all_hermitian(self, builder):
        gen = generators(builder())
        for m in (gen.h_drift, gen.h_z, gen.h_x, gen.h_y):
            assert np.array_equal(m, m.conj().T)

    def test_hy_quadrature_relation(self, rng):
        # h_y = i (L - L^dag) with L the lower triangle of h_x
        for _ in range(10):
            d = int(rng.integers(3, 8))
            spec = build_sno(d, -float(rng.uniform(1.0, 10.0)))
            gen = generators(spec)
            low = np.tril(gen.h_x, -1)
            np.testing.assert_allclose(gen.h_y, 1j * (low - low.conj().T),
                                       atol=1e-15)
            assert np.array_equal(gen.h_x != 0, gen.h_y != 0)


class TestHamiltonianAt:
    def test_zero_controls_gives_drift(self, sno5):
        gen = generators(sno5)
        np.testing.assert_array_equal(hamiltonian_at(gen, 0, 0, 0), gen.h_drift)

    def test_two_level_drive(self):
        gen = HamiltonianGenerators(
            np.zeros((2, 2), complex), np.diag([0.0, 1.0]).astype(complex),
            sigma_x(2, 0, 1), sigma_y(2, 0, 1))
        h = hamiltonian_at(gen, 0.0, 3.0, 0.0)
        np.testing.assert_allclose(h, 1.5 * sigma_x(2, 0, 1))

    def test_hermitian_for_random_inputs(self, sno5, rng):
        gen = generators(sno5)
        for _ in range(20):
            d, x, y = rng.normal(size=3)
            h = hamiltonian_at(gen, d, x, y)
            np.testing.assert_allclose(h, h.conj().T, atol=1e-15)

    def test_arrays_match_scalar_calls_bitwise(self, sno5, rng):
        gen = generators(sno5)
        dl, ox, oy = rng.normal(size=(3, 4, 7))
        stack = hamiltonian_at(gen, dl, ox, oy)
        assert stack.shape == (4, 7, 5, 5)
        for i in range(4):
            for j in range(7):
                one = hamiltonian_at(gen, float(dl[i, j]), float(ox[i, j]),
                                     float(oy[i, j]))
                assert np.array_equal(stack[i, j], one)


class TestValidation:
    def test_rejects_zero_leakage_delta(self):
        with pytest.raises(ValueError, match="zero anharmonicity"):
            SystemSpec(Topology.LADDER, 3, {0: 0.0, 1: 0.0, 2: 0.0},
                       {0: 1.0, 1: 1.0})

    def test_rejects_bad_lam0(self):
        with pytest.raises(ValueError, match="lam\\[0\\]"):
            SystemSpec(Topology.LADDER, 3, {0: 0.0, 1: 0.0, 2: 1.0},
                       {0: 2.0, 1: 1.0})

    def test_rejects_non_integer_d(self):
        # a float d raised a bare TypeError from range(d), and True passed
        # for 1 until the d >= 3 check
        delta, lam = {0: 0.0, 1: 0.0, 2: 1.0}, {0: 1.0, 1: 1.0}
        for d in (3.0, True, "3"):
            with pytest.raises(ValueError) as exc:
                SystemSpec(Topology.LADDER, d, delta, lam)
            assert str(exc.value) == f"d must be an integer, got {d!r}"
        assert SystemSpec(Topology.LADDER, np.int64(3), delta, lam).d == 3

    def test_rejects_nonzero_qubit_delta(self):
        with pytest.raises(ValueError, match="delta\\[1\\]"):
            SystemSpec(Topology.LADDER, 3, {0: 0.0, 1: 0.5, 2: 1.0},
                       {0: 1.0, 1: 1.0})


class TestJsonRoundTrip:
    @pytest.mark.parametrize("make", [
        lambda: build_sno(5, -TWO_PI),
        lambda: build_intermediate_sno(5, -TWO_PI),
        lambda: build_star([-TWO_PI, -2 * TWO_PI, -3 * TWO_PI], [1, 1, 1]),
    ])
    def test_round_trip(self, make):
        spec = make()
        back = spec_from_json(spec_to_json(spec))
        assert back.topology == spec.topology
        assert back.d == spec.d
        assert back.delta == spec.delta
        assert back.lam == spec.lam

    def test_reads_older_documents(self):
        # earlier versions also wrote "time_unit" and "omega" (this is such
        # a document, for build_sno(3, -2 pi) with omega set); both are ignored
        text = """{"d": 3, "delta": [0.0, -0.0, -6.283185307179586],
                   "lambda": [1.0, 1.4142135623730951], "omega": 31.4,
                   "time_unit": 1.0, "topology": "ladder"}"""
        assert spec_from_json(text) == build_sno(3, -TWO_PI)

    @pytest.mark.parametrize("make,key,value,match", [
        (lambda: build_sno(3, -TWO_PI), "d", 3.5, "d must be an integer"),
        (lambda: build_sno(3, -TWO_PI), "delta", 5.0, "delta of the ladder"),
        (lambda: build_intermediate_sno(5, -TWO_PI), "lambda", [1.0] * 4,
         "lambda of the intermediate"),
    ], ids=["d-fraction", "ladder-delta-number", "intermediate-lambda-list"])
    def test_rejects_malformed_fields(self, make, key, value, match):
        import json
        doc = dict(json.loads(spec_to_json(make())), **{key: value})
        with pytest.raises(ValueError, match=match):
            spec_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", [" 2", "0_2", "+2", "02", "-0", "2.0",
                                     "x"])
    def test_refuses_label_keys_not_written_as_labels(self, key):
        # int() alone reads " 2", "0_2", "+2" and "02" as label 2, so " 2"
        # would overwrite the "2" entry
        import json
        import re
        doc = {"topology": "ladder", "d": 3, "lambda": [1.0, 1.4],
               "delta": {"0": 0.0, "1": 0.0, "2": -1.0, key: -5.0}}
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            spec_from_json(json.dumps(doc))

    def test_intermediate_uses_signed_map(self, inter5):
        import json
        doc = json.loads(spec_to_json(inter5))
        assert doc["delta"]["-2"] == pytest.approx(3 * -TWO_PI)
        assert "-1" in doc["lambda"]

