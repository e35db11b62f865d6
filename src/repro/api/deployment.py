"""The deployment facade: compile a spec, then stream packets through it.

``Deployment`` turns a declarative :class:`~repro.api.spec.ScenarioSpec` into
the full live stack — environment, per-AP testbed simulators, calibrated
:class:`~repro.core.access_point.SecureAngleAP` instances, a
:class:`~repro.core.controller.SecureAngleController`, clients, and attackers
— and exposes one front door for driving traffic through it:

* :meth:`process` is the one documented contract (v1): it consumes an
  iterable of :class:`Packet` records (a frame plus per-AP captures) and
  yields one structured :class:`PacketEvent` per packet — the
  accept/drop/flag decision, every AP's bearing, the triangulated location,
  the fence verdict, and the processing latency — either streaming
  (``mode="stream"``, one analysis per packet) or batched (``mode="batch"``,
  one analysis per batch).  Either way, APs with the same array spec and
  estimator configuration share one stacked engine call.  Both modes share
  the per-packet policy code, so they cannot diverge.
* :meth:`run` and :meth:`run_batch` are the v0 spellings of the two modes,
  kept as thin shims over :meth:`process` so existing runners and examples
  stay bit-identical.

Randomness: the scenario seed drives one master generator; AP simulators
draw from it exactly as the hand-wired experiments used to (directly for a
lone AP, via numbered child streams otherwise), so a spec-built deployment
reproduces the legacy experiment wiring bit-for-bit.
"""

from __future__ import annotations

import copy
import time
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.aoa.estimator import AoAEstimate, EstimatorConfig
from repro.api.components import ENVIRONMENTS
from repro.api.events import EVENT_SCHEMA_VERSION, Packet, PacketEvent
from repro.api.spec import AccessPointSpec, ArraySpec, ScenarioSpec
from repro.attacks.attacker import Attacker
from repro.attacks.spoofing_attack import SpoofingAttack
from repro.core.access_point import AccessPointConfig, SecureAngleAP
from repro.core.controller import SecureAngleController
from repro.core.fence import FenceCheck, VirtualFence
from repro.core.localization import (
    BearingObservation,
    LocationEstimate,
    triangulate_bearings,
)
from repro.core.signature import AoASignature, signatures_from_pseudospectra
from repro.hardware.capture import Capture
from repro.mac.address import MacAddress
from repro.mac.frames import Dot11Frame
from repro.testbed.clients import SoekrisClient, make_clients
from repro.testbed.scenario import CaptureRequest, TestbedSimulator
from repro.utils.rng import RngLike, ensure_rng, spawn_rng

__all__ = ["EVENT_SCHEMA_VERSION", "Deployment", "Packet", "PacketEvent"]

#: Fixed MAC address deployments answer to ("SA" = SecureAngle).
DEPLOYMENT_AP_ADDRESS = MacAddress("02:53:41:00:00:01")


class Deployment:
    """A compiled scenario: the one front door for driving SecureAngle."""

    def __init__(self, spec: ScenarioSpec, rng: RngLike = None) -> None:
        self.spec = spec
        #: Master generator; AP simulators and attacker addresses derive from it.
        self._rng = ensure_rng(spec.seed if rng is None else rng)
        self.environment = ENVIRONMENTS.get(spec.environment)()
        self._ap_specs = spec.resolved_access_points()
        # A lone AP with no pinned stream/seed consumes the master generator
        # directly (the hand-wired single-AP experiment convention).  Attacker
        # addresses must then stay entirely off the master — draws come from a
        # snapshot of its state taken here, before the simulators consume any
        # of it — so the addresses still follow the caller's generator while
        # declaring or touching attackers can never perturb the capture
        # stream.  With per-AP streams the address draw uses the master
        # lazily instead, matching the legacy experiments' interleaved spawn
        # order.
        lone_spec = self._ap_specs[0]
        self._master_is_sim_rng = (len(self._ap_specs) == 1
                                   and lone_spec.seed is None
                                   and lone_spec.rng_stream is None)
        self._attacker_rng_base = (copy.deepcopy(self._rng)
                                   if self._master_is_sim_rng and spec.attackers
                                   else None)

        self.simulators: Dict[str, TestbedSimulator] = {}
        self.aps: Dict[str, SecureAngleAP] = {}
        ap_list: List[SecureAngleAP] = []
        for index, ap_spec in enumerate(self._ap_specs):
            ap = self._compile_ap(index, ap_spec)
            self.aps[ap.name] = ap
            ap_list.append(ap)

        # APs with the same array spec and estimator configuration share one
        # engine call per batch (see _analyze), led by the first of them; a
        # subspace-tracking AP leads its own, as its tracker state is per AP.
        leaders: Dict[Tuple[ArraySpec, EstimatorConfig], str] = {}
        self._engine_leader: Dict[str, str] = {}
        for ap_spec in self._ap_specs:
            config = self.aps[ap_spec.name].config.estimator
            self._engine_leader[ap_spec.name] = (
                ap_spec.name if config.subspace_tracking
                else leaders.setdefault((ap_spec.array, config), ap_spec.name))

        fence: Optional[VirtualFence] = None
        if spec.fence is not None:
            fence = VirtualFence(
                self.environment.building_boundary,
                margin_m=spec.fence.margin_m,
                max_residual_m=spec.fence.max_residual_m,
                fail_open=spec.fence.fail_open,
            )
        self.controller = SecureAngleController(ap_list, fence=fence)
        #: Address clients transmit to (and attackers spoof towards).
        self.ap_address = DEPLOYMENT_AP_ADDRESS
        self._clients: Optional[Dict[int, SoekrisClient]] = None
        self._attackers: Optional[Dict[str, Attacker]] = None

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, rng: RngLike = None) -> "Deployment":
        """Compile a scenario spec (alias of the constructor)."""
        return cls(spec, rng=rng)

    @classmethod
    def from_json(cls, text: str, rng: RngLike = None) -> "Deployment":
        """Compile a deployment straight from a JSON scenario document."""
        return cls(ScenarioSpec.from_json(text), rng=rng)

    # -------------------------------------------------------------- compilation
    def _compile_ap(self, index: int, ap_spec: AccessPointSpec) -> SecureAngleAP:
        array = ap_spec.array.build()
        position = ap_spec.resolve_position(self.environment)
        if ap_spec.seed is not None:
            sim_rng = ensure_rng(ap_spec.seed)
        elif ap_spec.rng_stream is not None:
            sim_rng = spawn_rng(self._rng, ap_spec.rng_stream)
        elif len(self._ap_specs) == 1:
            # A lone AP consumes the master generator directly — exactly the
            # stream the hand-wired single-AP experiments used.
            sim_rng = self._rng
        else:
            sim_rng = spawn_rng(self._rng, index)
        simulator = TestbedSimulator(
            self.environment, array,
            ap_position=position,
            orientation_deg=ap_spec.orientation_deg,
            config=self.spec.simulator,
            rng=sim_rng,
        )
        policy = self.spec.policy
        ap = SecureAngleAP(
            name=ap_spec.name,
            position=position,
            array=array,
            orientation_deg=ap_spec.orientation_deg,
            config=AccessPointConfig(
                estimator=ap_spec.estimator or self.spec.estimator,
                spoofing=policy.spoofing,
                tracker=policy.tracker,
                bearing_sigma_deg=policy.bearing_sigma_deg,
                training_packets=policy.training_packets,
            ),
        )
        ap.set_calibration(simulator.calibration_table())
        self.simulators[ap_spec.name] = simulator
        return ap

    # -------------------------------------------------------------- accessors
    @property
    def fence(self) -> Optional[VirtualFence]:
        """The compiled virtual fence, if the spec configured one."""
        return self.controller.fence

    @property
    def primary_ap_name(self) -> str:
        """The first (primary) access point's name."""
        return self._ap_specs[0].name

    def ap(self, name: Optional[str] = None) -> SecureAngleAP:
        """An access point by name (the primary AP when unnamed)."""
        if name is None:
            name = self.primary_ap_name
        try:
            return self.aps[name]
        except KeyError:
            raise KeyError(f"unknown access point {name!r}; "
                           f"known: {sorted(self.aps)}") from None

    def simulator(self, name: Optional[str] = None) -> TestbedSimulator:
        """An AP's testbed simulator (the primary AP's when unnamed)."""
        if name is None:
            name = self.primary_ap_name
        try:
            return self.simulators[name]
        except KeyError:
            raise KeyError(f"unknown access point {name!r}; "
                           f"known: {sorted(self.simulators)}") from None

    @property
    def clients(self) -> Dict[int, SoekrisClient]:
        """The testbed clients (built lazily; addresses from their own seed)."""
        if self._clients is None:
            clients = make_clients(self.environment,
                                   rng=self.spec.client_address_seed)
            if self.spec.clients:
                unknown = [cid for cid in self.spec.clients if cid not in clients]
                if unknown:
                    raise KeyError(f"unknown client ids in spec: {unknown}")
                clients = {cid: clients[cid] for cid in self.spec.clients}
            self._clients = clients
        return self._clients

    @property
    def attackers(self) -> Dict[str, Attacker]:
        """The spec's attackers (built lazily).

        Addresses not pinned by the spec are drawn from the master generator's
        attacker stream — via a construction-time snapshot of its state when a
        lone AP owns the master, so captures stay unperturbed.
        """
        if self._attackers is None:
            attackers: Dict[str, Attacker] = {}
            if self.spec.attackers:
                ap_positions = {ap.name: ap.position for ap in self.aps.values()}
                if self._attacker_rng_base is not None:
                    # The lone AP's simulator owns the master generator;
                    # draw from the construction-time snapshot of its state
                    # instead, keeping captures invariant to attacker
                    # declarations and access order while the addresses
                    # still track the caller's generator.
                    address_rng = spawn_rng(self._attacker_rng_base,
                                            self.spec.attacker_address_stream)
                else:
                    address_rng = spawn_rng(self._rng,
                                            self.spec.attacker_address_stream)
                for attacker_spec in self.spec.attackers:
                    # Name collisions were rejected by ScenarioSpec validation.
                    attacker = attacker_spec.build(self.environment, ap_positions,
                                                   rng=address_rng)
                    attackers[attacker.name] = attacker
            self._attackers = attackers
        return self._attackers

    def expected_bearing(self, client_id: int,
                         ap_name: Optional[str] = None) -> float:
        """The bearing an AP's estimator should report for a client."""
        return self.simulator(ap_name).expected_client_bearing(client_id)

    # ---------------------------------------------------------------- traffic
    def client_packets(self, client_id: int, num_packets: int = 1,
                       inter_packet_gap_s: float = 0.5, start_s: float = 0.0,
                       payload: bytes = b"uplink",
                       source: Optional[MacAddress] = None) -> Iterator[Packet]:
        """Generate uplink packets from a client, captured by every AP.

        ``source`` overrides the claimed source address of the frames —
        transmitting a client's traffic under a trained (victim) address is
        the central spoofing-evaluation use case.
        """
        if num_packets < 1:
            raise ValueError("num_packets must be at least 1")
        client = self.clients[client_id]
        for index in range(num_packets):
            timestamp = start_s + index * inter_packet_gap_s
            if source is None:
                frame = client.make_frame(self.ap_address, payload=payload)
            else:
                frame = Dot11Frame(source=source, destination=self.ap_address,
                                   sequence_number=index, payload=payload)
            captures = {
                name: simulator.capture_from_client(
                    client_id, frame=frame, tx_power_dbm=client.tx_power_dbm,
                    elapsed_s=timestamp, timestamp_s=timestamp)
                for name, simulator in self.simulators.items()
            }
            yield Packet(frame=frame, captures=captures, timestamp_s=timestamp,
                         metadata={"client_id": client_id})

    def attacker_packets(self, attacker_name: str, victim_address: MacAddress,
                         num_packets: int = 1, inter_packet_gap_s: float = 0.5,
                         start_s: float = 0.0) -> Iterator[Packet]:
        """Generate spoofed packets from a named attacker of the spec."""
        attacker = self.attackers[attacker_name]
        attack = SpoofingAttack(attacker=attacker, victim_address=victim_address,
                                ap_address=self.ap_address, num_frames=num_packets)
        for index, frame in enumerate(attack.iter_frames()):
            timestamp = start_s + index * inter_packet_gap_s
            captures = {
                name: simulator.capture_from_position(
                    attacker.transmit_position(index), frame=frame,
                    elapsed_s=timestamp, timestamp_s=timestamp,
                    attacker=attacker, tx_power_dbm=attacker.tx_power_dbm)
                for name, simulator in self.simulators.items()
            }
            yield Packet(frame=frame, captures=captures, timestamp_s=timestamp,
                         metadata={"attacker": attacker.name})

    def traffic(self, client_id: Optional[int] = None, *,
                attacker: Optional[str] = None,
                victim_address: Optional[MacAddress] = None,
                num_packets: int = 1, inter_packet_gap_s: float = 0.5,
                start_s: float = 0.0, payload: bytes = b"uplink",
                source: Optional[MacAddress] = None) -> List[Packet]:
        """Synthesize a whole burst of packets through the batched engine.

        The batched counterpart of :meth:`client_packets` /
        :meth:`attacker_packets`: every AP's captures for the burst are
        generated in one :meth:`TestbedSimulator.capture_batch` call (cached
        ray tracing, stacked channel/receiver arithmetic) instead of one
        Python round trip per packet.  The per-packet rng substreams are
        spawned in the scalar loop's order, so the returned packets are
        bit-identical to draining the matching generator.

        Pass ``client_id`` for legitimate uplink traffic, or ``attacker``
        (the spec attacker's name) plus ``victim_address`` for a spoofed
        burst.  Feed the result straight to :meth:`run_batch` for an
        end-to-end batch-fast pass.
        """
        if (client_id is None) == (attacker is None):
            raise ValueError("provide exactly one of client_id or attacker")
        if num_packets < 1:
            raise ValueError("num_packets must be at least 1")
        timestamps = [start_s + index * inter_packet_gap_s
                      for index in range(num_packets)]
        if client_id is not None:
            requests = self.client_requests(client_id, timestamps,
                                            payload=payload, source=source)
        else:
            if victim_address is None:
                raise ValueError("attacker traffic needs a victim_address")
            requests = self.attacker_requests(attacker, victim_address, timestamps)
        return self.synthesize(requests)

    def client_requests(self, client_id: int, timestamps: Sequence[float], *,
                        payload: bytes = b"uplink",
                        source: Optional[MacAddress] = None) -> List[CaptureRequest]:
        """One capture request per timestamp for a client's uplink packets.

        Mints the client's frames in order (``source`` overrides their
        claimed address, numbering them from 0); feed the requests to
        :meth:`synthesize`.
        """
        client = self.clients[client_id]
        position = self.environment.client_position(client_id)
        requests: List[CaptureRequest] = []
        for index, timestamp in enumerate(timestamps):
            if source is None:
                frame = client.make_frame(self.ap_address, payload=payload)
            else:
                frame = Dot11Frame(source=source, destination=self.ap_address,
                                   sequence_number=index, payload=payload)
            requests.append(CaptureRequest(
                position=position, frame=frame, tx_power_dbm=client.tx_power_dbm,
                elapsed_s=timestamp, timestamp_s=timestamp,
                metadata={"client_id": client_id}))
        return requests

    def attacker_requests(self, attacker: str, victim_address: MacAddress,
                          timestamps: Sequence[float]) -> List[CaptureRequest]:
        """One capture request per timestamp for a spec attacker's spoofed packets."""
        attacker_obj = self.attackers[attacker]
        attack = SpoofingAttack(attacker=attacker_obj, victim_address=victim_address,
                                ap_address=self.ap_address,
                                num_frames=len(timestamps))
        return [
            CaptureRequest(position=attacker_obj.transmit_position(index),
                           frame=frame, tx_power_dbm=attacker_obj.tx_power_dbm,
                           elapsed_s=timestamp, timestamp_s=timestamp,
                           attacker=attacker_obj)
            for index, (frame, timestamp)
            in enumerate(zip(attack.iter_frames(), timestamps))
        ]

    def synthesize(self, requests: Sequence[CaptureRequest]) -> List[Packet]:
        """Capture a batch of requests at every AP: one ``capture_batch`` each.

        Requests may mix clients and attackers; each simulator spawns its
        per-packet rng substreams in request order, so the packets are
        bit-identical to generating them one by one in that order.
        """
        captures_by_ap = {
            name: simulator.capture_batch(requests)
            for name, simulator in self.simulators.items()
        }
        return [
            Packet(
                frame=request.frame,
                captures={name: captures[index]
                          for name, captures in captures_by_ap.items()},
                timestamp_s=request.timestamp_s,
                metadata=({"attacker": request.attacker.name}
                          if request.attacker is not None
                          else dict(request.metadata or {})),
            )
            for index, request in enumerate(requests)
        ]

    def train(self, address: MacAddress, client_id: int,
              num_packets: Optional[int] = None, inter_packet_gap_s: float = 0.5,
              start_s: float = 0.0, ap_name: Optional[str] = None) -> AoASignature:
        """Train an AP's certified signature for ``address`` from client packets."""
        ap = self.ap(ap_name)
        simulator = self.simulator(ap_name)
        if num_packets is None:
            num_packets = ap.config.training_packets
        captures = [
            simulator.capture_from_client(
                client_id, elapsed_s=start_s + index * inter_packet_gap_s,
                timestamp_s=start_s + index * inter_packet_gap_s)
            for index in range(num_packets)
        ]
        return ap.train_client(address, captures)

    # ------------------------------------------------------------------ running
    def process(self, packets: Iterable[Packet], *, mode: str = "stream",
                primary_ap: Optional[str] = None,
                update_signatures: bool = True) -> Iterator[PacketEvent]:
        """The one documented packet-processing contract (event schema v1).

        Consumes :class:`Packet` records and yields one v1
        :class:`PacketEvent` per packet, in arrival order.  The primary AP
        (``primary_ap``, default: the first AP holding a capture of each
        packet) runs the ACL and spoofing checks and, when
        ``update_signatures`` is on, tracks matching signatures;
        localisation and the fence use every capture.

        ``mode`` selects the execution strategy — never the outcome:

        * ``"stream"`` — one analysis per packet, yielded lazily as packets
          arrive; each event's :attr:`~PacketEvent.packet_latency_s` is that
          packet's own measured analysis time
          (:attr:`~PacketEvent.batch_latency_s` is ``None``).
        * ``"batch"`` — the whole iterable is drained first and analysed
          together; each event's :attr:`~PacketEvent.batch_latency_s` is the
          batch mean (total wall-clock over the batch divided by its size;
          :attr:`~PacketEvent.packet_latency_s` is ``None``).

        In both modes the APs with the same array spec and estimator
        configuration (and no subspace tracking) share one ``analyze_batch``
        call per analysis, each capture corrected by its own AP's table.

        Per-packet policy runs in arrival order in both modes, and the
        scalar and batched AoA paths share their kernels, so decisions,
        bearings, locations, and fence verdicts are bit-identical between
        modes (and across any batch partitioning) — only the latency fields
        and laziness differ.

        :meth:`run` and :meth:`run_batch` are the v0 spellings of the two
        modes, kept as shims over this contract.
        """
        if mode == "stream":
            return self._process_stream(packets, primary_ap, update_signatures)
        if mode == "batch":
            return iter(self._process_batch(packets, primary_ap,
                                            update_signatures))
        raise ValueError(f"unknown processing mode {mode!r}; "
                         "expected 'stream' or 'batch'")

    def run(self, packets: Iterable[Packet], primary_ap: Optional[str] = None,
            update_signatures: bool = True) -> Iterator[PacketEvent]:
        """Stream packets, yielding one event each (v0 spelling).

        Shim over :meth:`process` with ``mode="stream"`` — see there for the
        full contract.
        """
        return self.process(packets, mode="stream", primary_ap=primary_ap,
                            update_signatures=update_signatures)

    def run_batch(self, packets: Iterable[Packet],
                  primary_ap: Optional[str] = None,
                  update_signatures: bool = True) -> List[PacketEvent]:
        """Process a whole batch through the batched AoA engine (v0 spelling).

        Shim over :meth:`process` with ``mode="batch"`` — see there for the
        full contract — returning the events as a list.
        """
        return self._process_batch(packets, primary_ap, update_signatures)

    def _process_stream(self, packets: Iterable[Packet],
                        primary_ap: Optional[str],
                        update_signatures: bool) -> Iterator[PacketEvent]:
        for index, packet in enumerate(packets):
            start = time.perf_counter()
            estimates = self._analyze([packet])[0]
            primary = self._primary_name(packet, primary_ap)
            observation = signatures_from_pseudospectra(
                [estimates[primary].pseudospectrum],
                captured_at_s=[packet.captures[primary].timestamp_s])[0]
            event = self._event(index, packet, primary, estimates, observation,
                                update_signatures)
            yield replace(event,
                          packet_latency_s=time.perf_counter() - start)

    def _process_batch(self, packets: Iterable[Packet],
                       primary_ap: Optional[str],
                       update_signatures: bool) -> List[PacketEvent]:
        packets = list(packets)
        if not packets:
            return []
        start = time.perf_counter()
        estimates = self._analyze(packets)
        primaries = [self._primary_name(packet, primary_ap) for packet in packets]
        observations = signatures_from_pseudospectra(
            [estimates[index][primary].pseudospectrum
             for index, primary in enumerate(primaries)],
            captured_at_s=[packet.captures[primary].timestamp_s
                           for packet, primary in zip(packets, primaries)])
        events = [
            self._event(index, packet, primary, estimates[index], observation,
                        update_signatures)
            for index, (packet, primary, observation)
            in enumerate(zip(packets, primaries, observations))
        ]
        latency = (time.perf_counter() - start) / len(packets)
        return [replace(event, batch_latency_s=latency) for event in events]

    # ---------------------------------------------------------------- internals
    def _analyze(self, packets: Sequence[Packet]) -> List[Dict[str, AoAEstimate]]:
        """Every capture's AoA estimate: one engine call per engine group.

        Captures of all packets and APs that share an engine (same array
        spec and estimator configuration) are stacked into one batch, each
        corrected by its own AP's calibration table.  The engine computes
        every item independently, so the estimates do not depend on the
        grouping; each packet's dict keeps its captures' order.
        """
        groups: Dict[str, List[Tuple[int, str, Capture]]] = {}
        for index, packet in enumerate(packets):
            for name, capture in packet.captures.items():
                self.ap(name)  # validate the name early
                groups.setdefault(self._engine_leader[name], []).append(
                    (index, name, capture))
        results: Dict[Tuple[int, str], AoAEstimate] = {}
        for leader, entries in groups.items():
            estimates = self.aps[leader].analyze_batch(
                [capture for _, _, capture in entries],
                calibrations=[self.aps[name].calibration for _, name, _ in entries])
            for (index, name, _), estimate in zip(entries, estimates):
                results[index, name] = estimate
        return [{name: results[index, name] for name in packet.captures}
                for index, packet in enumerate(packets)]

    def _primary_name(self, packet: Packet, primary_ap: Optional[str]) -> str:
        if primary_ap is not None:
            if primary_ap not in packet.captures:
                raise ValueError(
                    f"no capture supplied for primary AP {primary_ap!r}")
            return primary_ap
        return next(iter(packet.captures))

    def _event(self, index: int, packet: Packet, primary: str,
               estimates: Mapping[str, AoAEstimate], observation: AoASignature,
               update_signatures: bool) -> PacketEvent:
        ap = self.ap(primary)
        source = packet.frame.source
        check = ap.check_packet(source, observation,
                                packet.captures[primary].timestamp_s,
                                update_signature=update_signatures)

        bearings: Dict[str, float] = {}
        triangulation: List[BearingObservation] = []
        for name, estimate in estimates.items():
            observer = self.aps[name]
            if observer.array.ambiguous:
                # Linear arrays report broadside angles and cannot contribute
                # an unambiguous global bearing (footnote 1 of the paper).
                # Unlike SecureAngleAP.bearing_observations — which raises —
                # the session reports the local bearing and simply leaves the
                # AP out of triangulation, so mixed-array deployments stream.
                bearings[name] = estimate.bearing_deg
                continue
            bearing = (estimate.bearing_deg + observer.orientation_deg) % 360.0
            bearings[name] = bearing
            triangulation.append(BearingObservation(
                ap_position=observer.position, bearing_deg=bearing,
                sigma_deg=observer.config.bearing_sigma_deg))

        location: Optional[LocationEstimate] = None
        fence_check: Optional[FenceCheck] = None
        if len(triangulation) >= 2:
            if self.fence is not None:
                fence_check = self.fence.check_bearings(triangulation)
                location = fence_check.location
            else:
                try:
                    location = triangulate_bearings(triangulation)
                except ValueError:
                    location = None

        # The evidence combination itself lives in SecureAngleAP.decide,
        # shared with the AP and controller packet paths.
        decision = ap.decide(source, observation, check,
                             fence=self.fence, fence_check=fence_check)
        return PacketEvent(
            index=index,
            timestamp_s=packet.timestamp_s,
            source=source,
            decision=decision,
            bearings_deg=bearings,
            location=location,
            fence=fence_check,
            metadata=dict(packet.metadata),
        )

    def __repr__(self) -> str:
        return (f"Deployment({self.spec.name!r}, {len(self.aps)} AP(s), "
                f"environment={self.environment.name!r}, "
                f"fence={'on' if self.fence is not None else 'off'})")
