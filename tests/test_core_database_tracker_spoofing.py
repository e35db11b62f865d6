"""Tests for the signature database, tracker, and spoofing detector."""

import numpy as np
import pytest

from repro.aoa.spectrum import Pseudospectrum
from repro.core.database import SignatureDatabase
from repro.core.metrics import signature_similarity
from repro.core.signature import AoASignature
from repro.core.spoofing import SpoofingDetector, SpoofingDetectorConfig, SpoofingVerdict
from repro.core.tracker import SignatureTracker, TrackerConfig
from repro.mac.address import MacAddress


def _signature(peak_deg, secondary_deg=None):
    grid = np.arange(0.0, 360.0, 1.0)
    distance = np.minimum(np.abs(grid - peak_deg), 360.0 - np.abs(grid - peak_deg))
    values = np.exp(-0.5 * (distance / 4.0) ** 2) + 1e-4
    if secondary_deg is not None:
        second = np.minimum(np.abs(grid - secondary_deg), 360.0 - np.abs(grid - secondary_deg))
        values = values + 0.4 * np.exp(-0.5 * (second / 6.0) ** 2)
    return AoASignature.from_pseudospectrum(Pseudospectrum(grid, values))


@pytest.fixture()
def victim_address():
    return MacAddress("02:00:00:00:00:aa")


class TestSignatureDatabase:
    def test_train_lookup_and_forget(self, victim_address):
        database = SignatureDatabase()
        signature = _signature(100.0)
        database.train(victim_address, signature, timestamp_s=1.0)
        record = database.lookup(victim_address)
        assert record is not None
        assert record.signature is signature
        assert victim_address in database
        assert database.forget(victim_address)
        assert database.lookup(victim_address) is None
        assert not database.forget(victim_address)

    def test_require_raises_for_unknown_address(self, victim_address):
        database = SignatureDatabase()
        with pytest.raises(KeyError):
            database.require(victim_address)

    def test_update_tracks_bookkeeping_and_history(self, victim_address):
        database = SignatureDatabase(keep_history=2)
        database.train(victim_address, _signature(100.0), timestamp_s=0.0)
        for index in range(4):
            database.update(victim_address, _signature(100.0 + index), timestamp_s=index + 1.0)
        record = database.require(victim_address)
        assert record.packets_seen == 5
        assert record.updated_at_s == pytest.approx(4.0)
        assert len(record.history) == 2

    def test_iteration_and_len(self, victim_address):
        database = SignatureDatabase()
        database.train(victim_address, _signature(10.0))
        database.train(MacAddress("02:00:00:00:00:bb"), _signature(20.0))
        assert len(database) == 2
        assert len(list(database)) == 2
        assert len(database.addresses()) == 2


class TestSignatureTracker:
    def test_matching_observation_updates_the_signature(self, victim_address):
        database = SignatureDatabase()
        database.train(victim_address, _signature(100.0), timestamp_s=0.0)
        tracker = SignatureTracker(database, TrackerConfig(update_weight=0.5))
        updated = tracker.observe(victim_address, _signature(104.0), timestamp_s=5.0)
        assert updated
        record = database.require(victim_address)
        assert 100.0 < record.signature.direct_path_bearing_deg <= 104.0
        assert record.updated_at_s == pytest.approx(5.0)

    def test_mismatching_observation_never_updates(self, victim_address):
        database = SignatureDatabase()
        database.train(victim_address, _signature(100.0), timestamp_s=0.0)
        tracker = SignatureTracker(database)
        updated = tracker.observe(victim_address, _signature(250.0), timestamp_s=5.0)
        assert not updated
        assert database.require(victim_address).signature.direct_path_bearing_deg == pytest.approx(
            100.0, abs=1.0)

    def test_unknown_address_is_not_created(self, victim_address):
        database = SignatureDatabase()
        tracker = SignatureTracker(database)
        assert not tracker.observe(victim_address, _signature(10.0), timestamp_s=0.0)
        assert victim_address not in database

    def test_staleness(self, victim_address):
        database = SignatureDatabase()
        database.train(victim_address, _signature(100.0), timestamp_s=0.0)
        tracker = SignatureTracker(database, TrackerConfig(max_signature_age_s=60.0))
        assert not tracker.is_stale(victim_address, now_s=30.0)
        assert tracker.is_stale(victim_address, now_s=120.0)
        assert tracker.is_stale(MacAddress("02:00:00:00:00:cc"), now_s=0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(update_weight=0.0)
        with pytest.raises(ValueError):
            TrackerConfig(min_similarity_to_update=1.5)
        with pytest.raises(ValueError):
            TrackerConfig(max_signature_age_s=0.0)


class TestSpoofingDetector:
    def test_matching_packet_is_accepted(self, victim_address):
        database = SignatureDatabase()
        database.train(victim_address, _signature(100.0, 250.0))
        detector = SpoofingDetector(database)
        check = detector.check(victim_address, _signature(101.0, 251.0))
        assert check.verdict is SpoofingVerdict.MATCH
        assert check.similarity > 0.5

    def test_spoofed_packet_is_flagged(self, victim_address):
        database = SignatureDatabase()
        database.train(victim_address, _signature(100.0, 250.0))
        detector = SpoofingDetector(database)
        check = detector.check(victim_address, _signature(200.0, 30.0))
        assert check.verdict is SpoofingVerdict.SPOOFED
        assert database.require(victim_address).anomalies_flagged == 1

    def test_unknown_address_reported(self, victim_address):
        detector = SpoofingDetector(SignatureDatabase())
        check = detector.check(victim_address, _signature(10.0))
        assert check.verdict is SpoofingVerdict.UNKNOWN_ADDRESS

    def test_consecutive_mismatch_requirement_delays_the_alarm(self, victim_address):
        database = SignatureDatabase()
        database.train(victim_address, _signature(100.0))
        detector = SpoofingDetector(database, SpoofingDetectorConfig(consecutive_mismatches=3))
        attacker = _signature(220.0)
        first = detector.check(victim_address, attacker)
        second = detector.check(victim_address, attacker)
        third = detector.check(victim_address, attacker)
        assert first.verdict is SpoofingVerdict.MATCH
        assert second.verdict is SpoofingVerdict.MATCH
        assert third.verdict is SpoofingVerdict.SPOOFED

    def test_matching_packet_resets_the_mismatch_streak(self, victim_address):
        database = SignatureDatabase()
        database.train(victim_address, _signature(100.0))
        detector = SpoofingDetector(database, SpoofingDetectorConfig(consecutive_mismatches=2))
        attacker = _signature(220.0)
        legitimate = _signature(100.5)
        detector.check(victim_address, attacker)
        detector.check(victim_address, legitimate)
        check = detector.check(victim_address, attacker)
        assert check.verdict is SpoofingVerdict.MATCH  # streak restarted

    def test_direct_path_gate_flags_nearby_shift(self, victim_address):
        database = SignatureDatabase()
        database.train(victim_address, _signature(100.0))
        detector = SpoofingDetector(database, SpoofingDetectorConfig(
            similarity_threshold=0.0, max_direct_path_error_deg=10.0))
        check = detector.check(victim_address, _signature(125.0))
        assert check.verdict is SpoofingVerdict.SPOOFED

    def test_reset_clears_streaks(self, victim_address):
        database = SignatureDatabase()
        database.train(victim_address, _signature(100.0))
        detector = SpoofingDetector(database, SpoofingDetectorConfig(consecutive_mismatches=2))
        detector.check(victim_address, _signature(220.0))
        detector.reset(victim_address)
        check = detector.check(victim_address, _signature(220.0))
        assert check.verdict is SpoofingVerdict.MATCH  # streak was cleared

    def test_similarity_follows_signature_updates(self, victim_address):
        # The detector keeps the stored signature's reference curve between
        # checks; every update (tracking or re-training) must refresh it.
        database = SignatureDatabase()
        database.train(victim_address, _signature(100.0, 160.0))
        detector = SpoofingDetector(database)
        tracker = SignatureTracker(database, TrackerConfig(update_weight=0.5))
        for observation in (_signature(101.0, 162.0), _signature(103.0, 158.0),
                            _signature(99.0, 161.0)):
            stored = database.require(victim_address).signature
            check = detector.check(victim_address, observation)
            assert check.similarity == signature_similarity(stored, observation)
            assert tracker.observe(victim_address, observation, 1.0,
                                   similarity=check.similarity)
        database.train(victim_address, _signature(250.0))
        observation = _signature(252.0)
        assert detector.check(victim_address, observation).similarity == (
            signature_similarity(_signature(250.0), observation))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpoofingDetectorConfig(similarity_threshold=2.0)
        with pytest.raises(ValueError):
            SpoofingDetectorConfig(max_direct_path_error_deg=0.0)
        with pytest.raises(ValueError):
            SpoofingDetectorConfig(consecutive_mismatches=0)
