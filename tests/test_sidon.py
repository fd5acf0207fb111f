"""Greedy and algebraic Sidon constructions plus the incremental ladder."""

import pytest

import repbasis.sidon as sidon_mod
from repbasis import (
    DensityUnreachableError,
    InputTooSmallError,
    SidonLadder,
    SidonSet,
    erdos_turan_sidon,
    greedy_sidon,
    is_sidon,
    sidon_for_density,
)


class TestIsSidon:
    def test_basic(self):
        assert is_sidon([1, 2, 4, 8, 13])
        assert not is_sidon([1, 2, 3])  # 1+3 = 2+2
        assert is_sidon([])
        assert is_sidon([5])

    def test_duplicates_collapse(self):
        assert is_sidon([1, 2, 2])

    def test_negative_values_allowed(self):
        assert is_sidon([-3, 1, 2])
        assert not is_sidon([-1, 0, 1])


class TestGreedy:
    def test_pins(self):
        assert greedy_sidon(5).elements == (1, 2, 4)
        assert greedy_sidon(10).elements == (1, 2, 4, 8)
        assert greedy_sidon(1).elements == (1,)

    def test_too_small(self):
        with pytest.raises(InputTooSmallError):
            greedy_sidon(0)

    def test_prefix_monotone_and_sidon(self):
        prev = ()
        for n in range(1, 201):
            current = greedy_sidon(n).elements
            assert current[: len(prev)] == prev
            assert is_sidon(current)
            prev = current


class TestErdosTuran:
    def test_pins(self):
        assert erdos_turan_sidon(18).elements == (1, 8, 14)
        assert erdos_turan_sidon(8).elements == (1, 6)

    def test_too_small(self):
        with pytest.raises(InputTooSmallError):
            erdos_turan_sidon(7)

    def test_structure_over_range(self):
        for n in range(8, 2000, 53):
            D = erdos_turan_sidon(n)
            assert is_sidon(D.elements)
            assert D.elements[0] >= 1 and D.elements[-1] <= n
            # size equals the largest prime p with 2p*p <= n
            p = max(q for q in range(2, n) if 2 * q * q <= n and sidon_mod._is_prime(q))
            assert len(D) == p


class TestSidonSet:
    def test_density_flag(self):
        assert SidonSet((1, 2, 4), 5).density_ok()  # 36 > 5
        assert not SidonSet((1, 6), 18).density_ok()  # 16 <= 18

    def test_validation(self):
        with pytest.raises(ValueError):
            SidonSet((2, 1), 5)
        with pytest.raises(ValueError):
            SidonSet((0, 1), 5)
        with pytest.raises(ValueError):
            SidonSet((1, 6), 5)

    def test_container_protocol(self):
        D = SidonSet((1, 2, 4), 5)
        assert len(D) == 3
        assert list(D) == [1, 2, 4]


class TestSidonForDensity:
    def test_pins(self):
        assert sidon_for_density(16).elements == (1, 2, 4, 8, 13)
        assert sidon_for_density(1).elements == (1,)

    def test_always_beats_half_sqrt(self):
        for n in range(1, 500, 7):
            D = sidon_for_density(n)
            assert 4 * len(D) ** 2 > n

    def test_algebraic_wins_only_when_strictly_larger(self):
        # find an n where the prime construction overtakes the greedy one
        ladder = SidonLadder()
        for n in range(8, 30001, 251):
            ladder.advance(n)
            if ladder.best_size() > len(ladder.greedy_prefix()):
                winner = sidon_for_density(n)
                assert winner.elements == erdos_turan_sidon(n).elements
                assert len(winner) > len(greedy_sidon(n))
                break
        else:
            pytest.fail("no crossover found")

    def test_unreachable_density(self, monkeypatch):
        tiny = SidonSet((1,), 100)
        monkeypatch.setattr(sidon_mod, "greedy_sidon", lambda n: tiny)
        monkeypatch.setattr(sidon_mod, "erdos_turan_sidon", lambda n: tiny)
        with pytest.raises(DensityUnreachableError):
            sidon_mod.sidon_for_density(100)


class TestSidonLadder:
    def test_matches_fresh_constructions(self):
        ladder = SidonLadder()
        for n in (1, 3, 8, 20, 100, 101, 550, 1000):
            ladder.advance(n)
            assert tuple(ladder.greedy_prefix()) == greedy_sidon(n).elements
            fresh = sidon_for_density(n)
            assert ladder.best_size() == len(fresh)
            assert ladder.best_elements().elements == fresh.elements

    def test_only_moves_forward(self):
        ladder = SidonLadder()
        ladder.advance(10)
        with pytest.raises(ValueError):
            ladder.advance(9)

    def test_repeated_advance_is_idempotent(self):
        ladder = SidonLadder()
        ladder.advance(50)
        first = ladder.greedy_prefix()
        ladder.advance(50)
        assert ladder.greedy_prefix() == first

    def test_advance_to_growth_stops_where_size_first_grows(self):
        limit = 5000
        reference = SidonLadder()
        sizes = []
        for n in range(limit + 1):
            reference.advance(n)
            sizes.append(reference.best_size())
        growth = [n for n in range(1, limit + 1) if sizes[n] > sizes[n - 1]]

        # one ladder walked from growth point to growth point passes every n
        ladder, seen = SidonLadder(), []
        while (n := ladder.advance_to_growth(limit)) is not None:
            seen.append(n)
            fresh = SidonLadder()
            fresh.advance(n)
            assert ladder.greedy_prefix() == fresh.greedy_prefix()
            assert ladder.best_elements() == fresh.best_elements()
        assert seen == growth
        assert ladder.best_elements() == reference.best_elements()

        # from other starts, with limits before and at the next growth point
        for start in range(0, limit, 97):
            after = next((g for g in growth if g > start), None)
            for stop in (start, after - 1, after) if after else (limit,):
                ladder = SidonLadder()
                ladder.advance(start)
                got = ladder.advance_to_growth(stop)
                assert got == (after if stop == after else None), (start, stop)
                ref = SidonLadder()
                ref.advance(max(start, stop))
                assert ladder.greedy_prefix() == ref.greedy_prefix()
                assert ladder.best_elements() == ref.best_elements()
