"""Access points that share an AoA engine must not change a single decision.

A deployment stacks the captures of every AP with the same array spec and
estimator configuration into one engine call, each corrected by its own AP's
calibration table; a subspace-tracking AP keeps its own engine.  These tests
pin that the grouping is invisible: stream and batch events equal a
reference that analyses every capture with its own AP's ``analyze`` call,
byte for byte, and the batched serve ingest equals the scalar traffic
generators.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.aoa import AoAEstimator, EstimatorConfig
from repro.api.deployment import Deployment
from repro.api.scenarios import SCENARIOS, THREE_AP_LAYOUT, fence_scenario
from repro.api.spec import AccessPointSpec, ArraySpec, ScenarioSpec
from repro.core.access_point import SecureAngleAP
from repro.serve.ingest import PacketRequest, synthesize_packets
from repro.serve.smoke import canonical_event


class PerApDeployment(Deployment):
    """The reference: one ``ap.analyze`` call per capture, no engine sharing."""

    def _analyze(self, packets):
        return [{name: self.ap(name).analyze(capture)
                 for name, capture in packet.captures.items()}
                for packet in packets]


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def three_ap_spec(name, arrays, estimators=(None, None, None)):
    return ScenarioSpec(
        name=name,
        seed=5,
        access_points=tuple(
            AccessPointSpec(name=ap_name, position=position, array=array,
                            estimator=estimator, rng_stream=index)
            for index, ((ap_name, position), array, estimator)
            in enumerate(zip(THREE_AP_LAYOUT, arrays, estimators))),
    )


OCTAGON = ArraySpec(geometry="octagon")
LINEAR = ArraySpec(geometry="linear", num_elements=8)

#: (spec, expected engine calls per packet).
SPECS = {
    "fence": (fence_scenario(seed=5), 1),
    "octagon+ula": (three_ap_spec("mixed", (OCTAGON, OCTAGON, LINEAR)), 2),
    "estimator-override": (three_ap_spec(
        "override", (OCTAGON, OCTAGON, OCTAGON),
        (None, EstimatorConfig(resolution_deg=0.5), EstimatorConfig())), 2),
    "subspace-tracking": (three_ap_spec(
        "tracked", (OCTAGON, OCTAGON, OCTAGON),
        (None, EstimatorConfig(subspace_tracking=True), None)), 2),
}

TRAINED_CLIENT = 3


def build(spec, cls=Deployment):
    deployment = cls(spec)
    deployment.train(deployment.clients[TRAINED_CLIENT].address, TRAINED_CLIENT)
    return deployment


def packets_for(spec):
    deployment = build(spec)
    victim = deployment.clients[TRAINED_CLIENT].address
    packets = deployment.traffic(TRAINED_CLIENT, num_packets=4, start_s=30.0)
    packets += deployment.traffic(8, num_packets=2, source=victim)
    for name in deployment.attackers:
        packets += deployment.traffic(attacker=name, victim_address=victim,
                                      num_packets=2, start_s=40.0)
    return packets


def canonical(events):
    return [canonical_event(event.to_dict()) for event in events]


@pytest.fixture(scope="module", params=sorted(SPECS))
def case(request):
    spec, calls = SPECS[request.param]
    return spec, calls, packets_for(spec)


class TestEngineGroups:
    def test_stream_and_batch_equal_the_per_ap_reference(self, case):
        spec, _, packets = case
        reference = canonical(build(spec, PerApDeployment).process(packets))
        assert canonical(build(spec).process(packets, mode="stream")) == reference
        assert canonical(build(spec).process(packets, mode="batch")) == reference

    def test_estimates_are_bit_identical_to_per_ap_analysis(self, case):
        spec, _, packets = case
        grouped = build(spec)._analyze(packets)
        reference = build(spec, PerApDeployment)._analyze(packets)
        for ours, theirs in zip(grouped, reference):
            assert list(ours) == list(theirs)  # capture order is kept
            for name in ours:
                assert bits_equal(ours[name].pseudospectrum.values,
                                  theirs[name].pseudospectrum.values)
                assert ours[name].peak_bearings_deg == theirs[name].peak_bearings_deg
                assert ours[name].num_sources == theirs[name].num_sources

    def test_one_engine_call_per_group_and_packet(self, case, monkeypatch):
        spec, calls, packets = case
        counted = []
        original = SecureAngleAP.analyze_batch

        def counting(ap, captures, calibrations=None):
            counted.append(len(captures))
            return original(ap, captures, calibrations=calibrations)

        monkeypatch.setattr(SecureAngleAP, "analyze_batch", counting)
        deployment = build(spec)
        counted.clear()
        for _ in deployment.process(packets[:3], mode="stream"):
            pass
        assert len(counted) == 3 * calls
        assert sum(counted) == 3 * len(deployment.aps)


class TestPerCaptureCalibration:
    def test_matches_separate_per_table_calls(self):
        deployment = Deployment(SPECS["fence"][0])
        tables = [ap.calibration for ap in deployment.aps.values()]
        packets = deployment.traffic(TRAINED_CLIENT, num_packets=3)
        captures = [packet.captures[name] for packet in packets
                    for name in deployment.aps]
        per_capture = [table for _ in packets for table in tables]
        estimator = AoAEstimator(deployment.ap().array)
        stacked = estimator.process_batch(captures, calibration=per_capture)
        for offset, table in enumerate(tables):
            alone = AoAEstimator(deployment.ap().array).process_batch(
                captures[offset::len(tables)], calibration=table)
            for ours, theirs in zip(stacked[offset::len(tables)], alone):
                assert bits_equal(ours.pseudospectrum.values,
                                  theirs.pseudospectrum.values)
                assert ours.bearing_deg == theirs.bearing_deg

    def test_table_count_must_match_captures(self):
        deployment = Deployment(SPECS["fence"][0])
        captures = list(deployment.traffic(1)[0].captures.values())
        estimator = AoAEstimator(deployment.ap().array)
        with pytest.raises(ValueError, match="calibration tables"):
            estimator.process_batch(captures, calibration=[deployment.ap().calibration])


def scalar_packet(deployment, request):
    """The scalar generators' packet for one request (the ingest reference)."""
    if request.attacker is not None:
        victim = deployment.clients[request.victim_client_id].address
        return next(deployment.attacker_packets(
            request.attacker, victim, start_s=request.timestamp_s))
    return next(deployment.client_packets(
        request.client_id, start_s=request.timestamp_s, source=request.source))


class TestBatchedIngest:
    @pytest.mark.parametrize("scenario", ["cfo_drift", "replay", "fence"])
    def test_mixed_micro_batch_matches_scalar_generators(self, scenario):
        spec = SCENARIOS.get(scenario)()
        batched, scalar = Deployment(spec), Deployment(spec)
        attackers = list(batched.attackers)
        if scenario != "fence":
            # Waveform-shaping attackers take a fifth rng spawn per packet.
            assert all(batched.attackers[name].shapes_waveform for name in attackers)
        victim = batched.clients[5].address
        requests = [PacketRequest(client_id=3, timestamp_s=1.0)]
        for index, name in enumerate(attackers):
            requests += [
                PacketRequest(attacker=name, victim_client_id=5,
                              timestamp_s=2.0 + index),
                PacketRequest(client_id=7, timestamp_s=2.5 + index, source=victim),
            ]
        requests.append(PacketRequest(client_id=3, timestamp_s=9.0))
        ours = synthesize_packets(batched, requests)
        theirs = [scalar_packet(scalar, request) for request in requests]
        assert len(ours) == len(theirs) == len(requests)
        for packet, reference in zip(ours, theirs):
            assert packet.frame == reference.frame
            assert packet.timestamp_s == reference.timestamp_s
            assert packet.metadata == reference.metadata
            assert list(packet.captures) == list(reference.captures)
            for name, capture in packet.captures.items():
                expected = reference.captures[name]
                assert bits_equal(capture.samples, expected.samples)
                assert capture.timestamp_s == expected.timestamp_s
                assert capture.metadata == expected.metadata

    def test_split_into_calls_changes_nothing(self):
        spec = replace(SCENARIOS.get("cfo_drift")(), seed=9)
        whole, split = Deployment(spec), Deployment(spec)
        requests = [PacketRequest(client_id=client, timestamp_s=float(client))
                    for client in (2, 4, 6)]
        requests.append(PacketRequest(attacker="cfo-fast", victim_client_id=2,
                                      timestamp_s=7.0))
        ours = synthesize_packets(whole, requests)
        theirs = (synthesize_packets(split, requests[:1])
                  + synthesize_packets(split, requests[1:]))
        for packet, reference in zip(ours, theirs):
            for name, capture in packet.captures.items():
                assert bits_equal(capture.samples, reference.captures[name].samples)
