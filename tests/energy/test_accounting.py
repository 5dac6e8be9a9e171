"""Energy accountant tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.energy.accounting import EnergyAccountant, gateway_flags
from repro.energy.battery import BatteryBank
from repro.energy.models import FixedDrain, LinearDrain
from repro.errors import EnergyError
from repro.graphs import bitset


class TestApply:
    def test_gateways_and_others_drain_differently(self):
        bank = BatteryBank(4, initial=10.0)
        acct = EnergyAccountant(bank, FixedDrain(d=3.0))
        rec = acct.apply(bitset.mask_from_ids({0, 2}))
        assert bank.levels.tolist() == [7.0, 9.0, 7.0, 9.0]
        assert rec.n_gateways == 2
        assert rec.gateway_drain == 3.0
        assert rec.non_gateway_drain == 1.0

    def test_linear_model_uses_backbone_size(self):
        bank = BatteryBank(8, initial=100.0)
        acct = EnergyAccountant(bank, LinearDrain())
        rec = acct.apply(bitset.mask_from_ids({1, 2}))
        assert rec.gateway_drain == pytest.approx(8 / 2)

    def test_empty_gateway_set_drains_dprime_only(self):
        bank = BatteryBank(3, initial=5.0)
        acct = EnergyAccountant(bank, FixedDrain(d=3.0))
        rec = acct.apply(0)
        assert bank.levels.tolist() == [4.0, 4.0, 4.0]
        assert rec.n_gateways == 0
        assert rec.gateway_drain == 0.0

    def test_death_reported_once(self):
        bank = BatteryBank(2, initial=1.5)
        acct = EnergyAccountant(bank, FixedDrain(d=1.0))
        first = acct.apply(bitset.mask_from_ids({0}))
        assert first.died == ()
        second = acct.apply(bitset.mask_from_ids({0}))
        # non-gateway (host 1) drained 1.0 twice from 1.5 -> dead
        assert 1 in second.died
        third = acct.apply(bitset.mask_from_ids({0}))
        assert 1 not in third.died  # already dead, not re-reported

    def test_interval_counter_and_ledger(self):
        bank = BatteryBank(3, initial=50.0)
        acct = EnergyAccountant(bank, FixedDrain(d=2.0))
        acct.apply(bitset.mask_from_ids({0}))
        acct.apply(bitset.mask_from_ids({0, 1}))
        assert acct.intervals_applied == 2
        assert acct.total_gateway_drain == pytest.approx(2.0 + 4.0)
        assert acct.total_non_gateway_drain == pytest.approx(2.0 + 1.0)

    def test_custom_dprime(self):
        bank = BatteryBank(2, initial=10.0)
        acct = EnergyAccountant(bank, FixedDrain(d=1.0), non_gateway_drain=0.5)
        acct.apply(bitset.mask_from_ids({0}))
        assert bank.levels.tolist() == [9.0, 9.5]

    def test_negative_dprime_rejected(self):
        with pytest.raises(EnergyError):
            EnergyAccountant(BatteryBank(1), FixedDrain(), non_gateway_drain=-1)

    def test_record_min_level(self):
        bank = BatteryBank.from_levels([5.0, 2.0])
        acct = EnergyAccountant(bank, FixedDrain(d=1.0))
        rec = acct.apply(bitset.mask_from_ids({0}))
        assert rec.min_level_after == pytest.approx(1.0)


def _loop_flags(mask: int, n: int) -> np.ndarray:
    """The per-bit decode ``gateway_flags`` replaces."""
    out = np.zeros(n, dtype=bool)
    while mask:
        low = mask & -mask
        out[low.bit_length() - 1] = True
        mask ^= low
    return out


class TestGatewayFlags:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 10_000])
    def test_equals_the_bit_loop(self, n):
        rng = np.random.default_rng(n)
        random = bitset.mask_from_ids(
            np.flatnonzero(rng.random(n) < 0.3).tolist()
        )
        for mask in (0, (1 << n) - 1, random, 1 << max(0, n - 1) if n else 0):
            got = gateway_flags(mask, n)
            assert got.dtype == bool and got.shape == (n,)
            np.testing.assert_array_equal(got, _loop_flags(mask, n))

    @pytest.mark.parametrize("mask", [1 << 5, -1])
    def test_bits_outside_the_hosts_raise(self, mask):
        with pytest.raises(EnergyError):
            gateway_flags(mask, 5)

    def test_apply_counts_decoded_gateways(self):
        n = 130
        bank = BatteryBank(n, initial=10.0)
        acct = EnergyAccountant(bank, FixedDrain(d=3.0))
        ids = {0, 63, 64, 65, 129}
        rec = acct.apply(bitset.mask_from_ids(ids))
        assert rec.n_gateways == len(ids)
        drained = np.flatnonzero(bank.levels == 7.0).tolist()
        assert drained == sorted(ids)
