"""Greedy and algebraic Sidon constructions plus the incremental ladder."""

import pytest

import repbasis.sidon as sidon_mod
from repbasis import (
    DensityUnreachableError,
    FiniteBasis,
    InputTooLargeError,
    InputTooSmallError,
    SidonLadder,
    SidonSet,
    erdos_turan_sidon,
    greedy_sidon,
    is_sidon,
    sidon_for_density,
)

# OEIS A005282, the Mian-Chowla sequence
MIAN_CHOWLA = (1, 2, 4, 8, 13, 21, 31, 45, 66, 81, 97, 123, 148, 182, 204, 252, 290, 361, 401, 475)


class ReferenceLadder:
    """The ladder as a per-candidate loop: every bound up to
    sidon.FIRST_FIT_REACH is offered to the greedy set, tested against a
    bytearray of its pair sums."""

    def __init__(self):
        self._greedy = []
        self._sums = bytearray(1)
        self._prime = 0
        self._next_q = 2
        self._next_q_at = 8
        self._n = 0

    def advance(self, n):
        if n < self._n:
            raise ValueError("ladder only moves forward")
        while self._n < n:
            self._step()

    def advance_to_growth(self, limit):
        best = self.best_size()
        while self._n < limit:
            self._step()
            if len(self._greedy) > best or self._prime > best:
                return self._n
        return None

    def _step(self):
        c = self._n = self._n + 1
        if c == self._next_q_at:
            q = self._next_q
            if sidon_mod._is_prime(q):
                self._prime = q
            self._next_q = q + 1
            self._next_q_at = 2 * (q + 1) ** 2
        if c > sidon_mod.FIRST_FIT_REACH:
            return
        sums = self._sums
        top = len(sums)
        for e in self._greedy:
            s = c + e
            if s < top and sums[s]:
                return
        if 2 * c < top and sums[2 * c]:
            return
        need = 2 * c + 1
        if need > top:
            sums.extend(bytearray(need - top))
        for e in self._greedy:
            sums[c + e] = 1
        sums[2 * c] = 1
        self._greedy.append(c)

    def greedy_prefix(self):
        return list(self._greedy)

    def best_size(self):
        return max(len(self._greedy), self._prime)

    def best_elements(self):
        if self._prime > len(self._greedy):
            return SidonSet(sidon_mod._et_elements(self._prime), self._n)
        return SidonSet(tuple(self._greedy), self._n)


def same_state(ladder, reference):
    return (
        ladder.greedy_prefix() == reference.greedy_prefix()
        and ladder.best_size() == reference.best_size()
        and ladder.best_elements() == reference.best_elements()
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

    @pytest.mark.parametrize("items, first", [("abc", "'a'"), ([1.5, 2.5], "1.5"), ([True, 2], "True")],
                             ids=["str", "float", "bool"])
    def test_non_integers_are_refused(self, items, first):
        # each once answered True
        with pytest.raises(ValueError, match=f"^element must be an integer, got {first}$"):
            is_sidon(items)


class TestGreedy:
    def test_pins(self):
        assert greedy_sidon(5).elements == (1, 2, 4)
        assert greedy_sidon(10).elements == (1, 2, 4, 8)
        assert greedy_sidon(1).elements == (1,)

    def test_too_small(self):
        with pytest.raises(InputTooSmallError):
            greedy_sidon(0)

    def test_mian_chowla_terms(self):
        assert greedy_sidon(MIAN_CHOWLA[-1]).elements == MIAN_CHOWLA
        assert greedy_sidon(MIAN_CHOWLA[-1] - 1).elements == MIAN_CHOWLA[:-1]

    def test_pin_at_a_million(self):
        D = greedy_sidon(10**6)
        assert len(D) == 381
        assert D.elements[-1] == 986799

    def test_prefix_monotone_and_sidon(self):
        prev = ()
        for n in range(1, 201):
            current = greedy_sidon(n).elements
            assert current[: len(prev)] == prev
            assert is_sidon(current)
            prev = current

    @pytest.mark.parametrize("n", [16383, 16384, 16385, 10**5])
    def test_both_sides_of_the_reach_match_a_fresh_walk(self, n):
        assert greedy_sidon(n).elements == sidon_mod._first_fit(n)


class TestFirstFitReach:
    def test_the_kept_prefix_is_the_walk_to_the_reach(self):
        reach = sidon_mod.FIRST_FIT_REACH
        assert sidon_mod._FIRST_FIT == sidon_mod._first_fit(reach)
        assert len(sidon_mod._FIRST_FIT) == 81
        assert tuple(reference_at(reach).greedy_prefix()) == sidon_mod._FIRST_FIT

    def test_erdos_turan_wins_past_the_last_tie(self):
        # first-fit's count only grows at its own elements, so comparing
        # there covers every n; 12034 is the last n where first-fit keeps up
        walk = sidon_mod._first_fit(10**6)
        keeps_up = [g for count, g in enumerate(walk, 1)
                    if g < 8 or count >= sidon_mod._largest_prime(g)]
        assert keeps_up[-1] == 12034 < sidon_mod.FIRST_FIT_REACH


class TestInputLimit:
    CONSTRUCTIONS = (greedy_sidon, erdos_turan_sidon, sidon_for_density)

    @pytest.fixture()
    def advanced(self, monkeypatch):
        """Bounds handed to SidonLadder.advance and to the first-fit walk,
        which are stubbed out so that no test here walks to 10**8."""
        bounds = []
        monkeypatch.setattr(SidonLadder, "advance", lambda self, n: bounds.append(n))
        monkeypatch.setattr(sidon_mod, "_first_fit", lambda n: bounds.append(n) or (1,))
        return bounds

    @pytest.mark.parametrize("construct", CONSTRUCTIONS)
    def test_past_the_limit_raises_before_any_ladder_work(self, construct, advanced):
        with pytest.raises(InputTooLargeError) as err:
            construct(sidon_mod.SIDON_N_LIMIT + 1)
        assert err.value.code == "INPUT_TOO_LARGE"
        assert str(err.value) == "Sidon bound n=100000001 exceeds 100000000"
        assert advanced == []

    @pytest.mark.parametrize("construct, n", [
        (greedy_sidon, 1.5), (greedy_sidon, True), (erdos_turan_sidon, 8.5),
        (erdos_turan_sidon, True), (sidon_for_density, 50.5), (sidon_for_density, "50"),
    ])
    def test_a_bound_that_is_not_an_integer_is_refused_before_any_ladder_work(self, construct, n, advanced):
        with pytest.raises(ValueError) as err:
            construct(n)
        assert str(err.value) == f"Sidon bound n must be an integer, got {n!r}"
        assert advanced == []

    def test_limit_is_inclusive(self, advanced):
        n = sidon_mod.SIDON_N_LIMIT
        assert greedy_sidon(n).ambient_n == n
        assert advanced == [n]
        assert len(erdos_turan_sidon(n)) == 7069  # the largest prime p with 2p^2 <= 10**8


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


def _reference_erdos_turan_sidon(n):
    """erdos_turan_sidon as it was written: walk q upward over every q with
    2*q*q <= n and keep the last prime."""
    p = 2
    q = 3
    while 2 * q * q <= n:
        if sidon_mod._is_prime(q):
            p = q
        q += 1
    return SidonSet(sidon_mod._et_elements(p), n)


def _upward_primes(bounds):
    """(n, p) for increasing bounds n, p as the upward walk above finds it;
    the walk for n continues the walk for the bound before it."""
    p, q = 2, 3
    for n in bounds:
        while 2 * q * q <= n:
            if sidon_mod._is_prime(q):
                p = q
            q += 1
        yield n, p


class TestDownwardPrime:
    """erdos_turan_sidon counts p down from isqrt(n // 2) to the first prime;
    the upward walk over every q must pick the same p."""

    @pytest.fixture()
    def chosen_prime(self, monkeypatch):
        # the elements follow from p by the unchanged _et_elements; stubbing
        # it to (p,) checks the choice of p at every n in little time
        monkeypatch.setattr(sidon_mod, "_et_elements", lambda p: (p,))
        return lambda n: erdos_turan_sidon(n).elements[0]

    def test_every_bound_to_ten_to_the_fifth(self, chosen_prime):
        for n, p in _upward_primes(range(8, 10**5 + 1)):
            assert chosen_prime(n) == p, n

    def test_both_sides_of_each_prime_bound(self, chosen_prime):
        primes = [q for q in range(2, 7072) if sidon_mod._is_prime(q)]
        assert primes[-1] == 7069
        bounds = sorted({b for q in primes for b in (2 * q * q - 1, 2 * q * q, 2 * q * q + 1)})
        for n, p in _upward_primes(b for b in bounds if b >= 8):
            assert chosen_prime(n) == p, n

    def test_whole_sets_match_the_upward_walk(self):
        for n in (*range(8, 3001), 10**5, 10**6, 12345678, sidon_mod.SIDON_N_LIMIT):
            assert erdos_turan_sidon(n) == _reference_erdos_turan_sidon(n), n


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
        for bad in ((True, 2), (1.5, 2)):
            with pytest.raises(ValueError, match=f"^element must be an integer, got {bad[0]}$"):
                SidonSet(bad, 5)

    def test_container_protocol(self):
        D = SidonSet((1, 2, 4), 5)
        assert len(D) == 3
        assert list(D) == [1, 2, 4]
        assert 4 in D and 3 not in D
        assert D.max_abs() == 4
        assert isinstance(D, FiniteBasis)


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
        monkeypatch.setattr(sidon_mod.SidonLadder, "best_elements", lambda self: tiny)
        with pytest.raises(DensityUnreachableError):
            sidon_mod.sidon_for_density(100)


class TestSidonLadder:
    def test_matches_the_per_candidate_reference(self):
        # every bound up to 400, both sides of each ratchet bound 2q^2 past it
        # (the prime first beats the greedy size at 2 * 59**2), and far bounds
        ratchets = {2 * q * q + d for q in range(15, 101) for d in (-1, 0)}
        ladder, reference = SidonLadder(), ReferenceLadder()
        for n in [*range(401), *sorted(ratchets | {997, 5000, 12345})]:
            ladder.advance(n)
            reference.advance(n)
            assert same_state(ladder, reference), n
            fresh = SidonLadder()
            fresh.advance(n)
            assert same_state(fresh, reference), n

    def test_growth_points_match_the_reference(self):
        ladder, reference = SidonLadder(), ReferenceLadder()
        while True:
            got = ladder.advance_to_growth(20000)
            assert got == reference.advance_to_growth(20000)
            assert same_state(ladder, reference), got
            if got is None:
                break

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


def reference_at(n):
    reference = ReferenceLadder()
    reference.advance(n)
    return reference


class TestSharedWalk:
    """Ladders share only the immutable first-fit prefix; no ladder's work,
    finished or interrupted, changes what another reads."""

    @pytest.mark.parametrize("far_first", [True, False])
    def test_interleaved_ladders_match_the_reference(self, far_first):
        far, near, reference = SidonLadder(), SidonLadder(), ReferenceLadder()
        if far_first:
            far.advance(10**5)
        for n in range(401):
            near.advance(n)
            reference.advance(n)
            assert same_state(near, reference), n
        if not far_first:
            far.advance(10**5)
        assert same_state(far, reference_at(10**5))
        # the near ladder reads on from where it stopped, past the far one's reach
        while (n := near.advance_to_growth(10**5 + 500)) is not None:
            reference.advance(n)
            assert same_state(near, reference), n

    def test_a_returned_prefix_can_be_changed_freely(self):
        ladder = SidonLadder()
        ladder.advance(MIAN_CHOWLA[-1])
        prefix = ladder.greedy_prefix()
        prefix[0] = 99
        prefix.append(500)
        prefix.clear()
        assert ladder.greedy_prefix() == list(MIAN_CHOWLA)
        assert ladder.best_elements().elements == MIAN_CHOWLA
        assert greedy_sidon(MIAN_CHOWLA[-1]).elements == MIAN_CHOWLA
        fresh = SidonLadder()
        fresh.advance(5000)
        assert same_state(fresh, reference_at(5000))

    @pytest.mark.parametrize("step", ["_is_prime"])
    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_a_step_that_raises_leaves_later_ladders_exact(self, monkeypatch, step, k):
        original, calls = getattr(sidon_mod, step), []

        def interrupted(*args):
            calls.append(args)
            if len(calls) == k:
                raise KeyboardInterrupt
            return original(*args)

        monkeypatch.setattr(sidon_mod, step, interrupted)
        # k = 1 stops advance's count down to 61, k = 7 its search for 67,
        # and k = 40 the growth walk's search for the prime after 97
        ladder = SidonLadder()
        with pytest.raises(KeyboardInterrupt):
            ladder.advance(8000)
            while ladder.advance_to_growth(20000) is not None:
                pass
        # the step that raised left the ladder as it was before that step
        reference = reference_at(ladder._n)
        assert same_state(ladder, reference)
        while (n := ladder.advance_to_growth(20000)) is not None:
            reference.advance(n)
            assert same_state(ladder, reference), n
        ladder.advance(20000)
        reference.advance(20000)
        assert same_state(ladder, reference)
        for n in (0, 500, 20000, 30000):
            fresh = SidonLadder()
            fresh.advance(n)
            assert same_state(fresh, reference_at(n)), n
