"""The address-spoofing-detection evaluation (Sections 2.3.2 and 3.2).

A legitimate client trains its certified signature at the access point; an
attacker elsewhere in (or outside) the building then injects frames carrying
the client's MAC address.  The evaluation measures, over many packets:

* the **detection rate** — how often the attacker's spoofed frames are flagged,
  for each attacker type of the threat model (omnidirectional, directional
  antenna aimed at the AP, antenna array), and
* the **false-alarm rate** — how often the legitimate client's own subsequent
  frames are wrongly flagged (the environment keeps evolving between packets,
  so this exercises signature tracking too), and
* the same two numbers for the RSS-signalprint baseline, which the paper
  argues is coarser and subvertible with directional antennas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.aoa.estimator import EstimatorConfig
from repro.api import Deployment, spoofing_scenario
from repro.attacks.attacker import Attacker
from repro.attacks.spoofing_attack import SpoofingAttack
from repro.baselines.rss_signalprint import RssSignalprint, RssSpoofingDetector
from repro.campaign.spec import CampaignSpec, ShardSpec, estimator_from_params
from repro.core.spoofing import SpoofingVerdict
from repro.experiments.reporting import format_table
from repro.geometry.point import Point
from repro.mac.address import MacAddress
from repro.utils.rng import RngLike, ensure_rng, spawn_rng
from repro.utils.serde import JsonSerializable


#: Defaults shared by the serial runner and the campaign adapter.
DEFAULT_VICTIM_CLIENT = 5
DEFAULT_TRAINING_PACKETS = 10
DEFAULT_TEST_PACKETS = 20


@dataclass(frozen=True)
class AttackerOutcome(JsonSerializable):
    """Detection statistics for one attacker configuration."""

    attacker_name: str
    attacker_position: Point
    detection_rate: float
    rss_detection_rate: float
    mean_similarity: float


@dataclass(frozen=True)
class SpoofingEvaluation(JsonSerializable):
    """Results of the spoofing-detection evaluation."""

    victim_client_id: int
    false_alarm_rate: float
    rss_false_alarm_rate: float
    attackers: List[AttackerOutcome]

    @property
    def mean_detection_rate(self) -> float:
        """Mean detection rate across all attacker configurations."""
        return float(np.mean([outcome.detection_rate for outcome in self.attackers]))

    def as_table(self) -> str:
        """Text rendering of the per-attacker outcomes."""
        rows = [("legitimate client (false alarms)", "-", self.false_alarm_rate,
                 self.rss_false_alarm_rate, "-")]
        rows.extend(
            (outcome.attacker_name,
             f"({outcome.attacker_position.x:.1f}, {outcome.attacker_position.y:.1f})",
             outcome.detection_rate, outcome.rss_detection_rate, outcome.mean_similarity)
            for outcome in self.attackers
        )
        return format_table(
            ["transmitter", "position", "SecureAngle flag rate", "RSS flag rate",
             "mean similarity"],
            rows,
        )


def run_spoofing_evaluation(victim_client_id: int = DEFAULT_VICTIM_CLIENT,
                            num_training_packets: int = DEFAULT_TRAINING_PACKETS,
                            num_test_packets: int = DEFAULT_TEST_PACKETS,
                            estimator_config: Optional[EstimatorConfig] = None,
                            rng: RngLike = 42) -> SpoofingEvaluation:
    """Run the spoofing-detection evaluation on the simulated testbed."""
    if num_training_packets < 1 or num_test_packets < 1:
        raise ValueError("training and test packet counts must be positive")
    generator = ensure_rng(rng)
    # The spoofing scenario carries the paper's four attacker configurations;
    # the deployment compiles the AP (stream 1 of the master generator, like
    # the original wiring) and lazily draws attacker addresses from stream 4.
    deployment = Deployment(spoofing_scenario(estimator=estimator_config),
                            rng=generator)

    ap_address = MacAddress.random(spawn_rng(generator, 2))
    victim_address = MacAddress.random(spawn_rng(generator, 3))

    false_alarms, rss_false_alarms, rss_detector = _train_and_track(
        deployment, victim_address, victim_client_id,
        num_training_packets, num_test_packets)

    # ------------------------------------------------------------ the attackers
    # Declared in the scenario spec; building them here (after the address
    # draws above) consumes the same master-generator streams as the original
    # hand-wired attacker list.
    attackers = list(deployment.attackers.values())

    outcomes: List[AttackerOutcome] = []
    for attacker in attackers:
        outcomes.append(_attacker_outcome(
            deployment, attacker, victim_address, ap_address,
            num_test_packets, rss_detector))

    return SpoofingEvaluation(
        victim_client_id=victim_client_id,
        false_alarm_rate=false_alarms / num_test_packets,
        rss_false_alarm_rate=rss_false_alarms / num_test_packets,
        attackers=outcomes,
    )


def _train_and_track(deployment: Deployment, victim_address: MacAddress,
                     victim_client_id: int, num_training_packets: int,
                     num_test_packets: int):
    """Train the certified signature, then stream the victim's later packets.

    Returns ``(false_alarms, rss_false_alarms, rss_detector)``.  Mutates the
    AP's detector/tracker state exactly as the serial evaluation does — the
    attacker loops depend on that state, so campaign shards replay this
    before measuring their attacker.
    """
    simulator = deployment.simulator()
    ap = deployment.ap()
    rss_detector = RssSpoofingDetector(match_threshold_db=6.0)

    # ----------------------------------------------------------------- training
    training_captures = [
        simulator.capture_from_client(victim_client_id, elapsed_s=index * 0.5,
                                      timestamp_s=index * 0.5)
        for index in range(num_training_packets)
    ]
    ap.train_client(victim_address, training_captures)
    rss_detector.train(victim_address, RssSignalprint.from_capture_power(
        [np.mean([c.power_dbm() for c in training_captures])]))

    # ----------------------------------------------- legitimate client, later on
    false_alarms = 0
    rss_false_alarms = 0
    probe_captures = [
        simulator.capture_from_client(victim_client_id, elapsed_s=60.0 + index * 5.0,
                                      timestamp_s=60.0 + index * 5.0)
        for index in range(num_test_packets)
    ]
    probe_observations = ap.signatures_from_captures(probe_captures)
    for capture, observation in zip(probe_captures, probe_observations):
        check = ap.check_packet(victim_address, observation, capture.timestamp_s)
        if check.verdict is SpoofingVerdict.SPOOFED:
            false_alarms += 1
        if not rss_detector.matches(victim_address,
                                    RssSignalprint.from_capture_power([capture.power_dbm()])):
            rss_false_alarms += 1
    return false_alarms, rss_false_alarms, rss_detector


def _attacker_outcome(deployment: Deployment, attacker: Attacker,
                      victim_address: MacAddress, ap_address: MacAddress,
                      num_test_packets: int,
                      rss_detector: RssSpoofingDetector) -> AttackerOutcome:
    """Measure one attacker (consumes its captures; resets the detector)."""
    simulator = deployment.simulator()
    ap = deployment.ap()
    attack = SpoofingAttack(attacker=attacker, victim_address=victim_address,
                            ap_address=ap_address, num_frames=num_test_packets)
    detections = 0
    rss_detections = 0
    similarities: List[float] = []
    attack_captures = [
        simulator.capture_from_position(
            attacker.position, elapsed_s=200.0 + index * 5.0,
            timestamp_s=200.0 + index * 5.0,
            attacker=attacker, tx_power_dbm=attacker.tx_power_dbm)
        for index, _frame in enumerate(attack.iter_frames())
    ]
    attack_observations = ap.signatures_from_captures(attack_captures)
    for capture, observation in zip(attack_captures, attack_observations):
        check = ap.detector.check(victim_address, observation)
        similarities.append(check.similarity)
        if check.verdict is SpoofingVerdict.SPOOFED:
            detections += 1
        if not rss_detector.matches(
                victim_address, RssSignalprint.from_capture_power([capture.power_dbm()])):
            rss_detections += 1
    ap.detector.reset(victim_address)
    return AttackerOutcome(
        attacker_name=attacker.name,
        attacker_position=attacker.position,
        detection_rate=detections / num_test_packets,
        rss_detection_rate=rss_detections / num_test_packets,
        mean_similarity=float(np.mean(similarities)),
    )


# ------------------------------------------------------------------- campaign
@dataclass(frozen=True)
class SpoofingEvalShard(JsonSerializable):
    """One spoofing-evaluation shard.

    The ``legitimate`` shard carries the false-alarm counts; each
    ``attacker`` shard carries its attacker's outcome.
    """

    role: str
    false_alarm_rate: Optional[float] = None
    rss_false_alarm_rate: Optional[float] = None
    outcome: Optional[AttackerOutcome] = None

    def __post_init__(self) -> None:
        if self.role not in ("legitimate", "attacker"):
            raise ValueError(f"unknown spoofing-shard role {self.role!r}")


def spoofing_eval_campaign(victim_client_id: int = DEFAULT_VICTIM_CLIENT,
                           num_training_packets: int = DEFAULT_TRAINING_PACKETS,
                           num_test_packets: int = DEFAULT_TEST_PACKETS,
                           seed: int = 42,
                           name: str = "spoofing-eval") -> CampaignSpec:
    """The spoofing evaluation as a campaign: one shard per transmitter.

    Point 0 measures the legitimate client's false alarms; the following
    points measure the scenario's attackers in declaration order — the
    serial evaluation's capture order, so each shard fast-forwards to its
    own slice after replaying the training and tracking prefix.
    """
    scenario = spoofing_scenario()
    populations = [{"role": "legitimate"}]
    populations.extend(
        {"role": "attacker", "attacker_index": index,
         "attacker": attacker_spec.effective_name()}
        for index, attacker_spec in enumerate(scenario.attackers))
    return CampaignSpec(
        name=name,
        experiment="spoofing_eval",
        seeds=(int(seed),),
        base={"victim_client_id": int(victim_client_id),
              "num_training_packets": int(num_training_packets),
              "num_test_packets": int(num_test_packets)},
        axes={"population": tuple(populations)},
    )


def run_spoofing_eval_shard(spec: CampaignSpec,
                            shard: ShardSpec) -> SpoofingEvalShard:
    """One spoofing-evaluation shard (legitimate client or one attacker)."""
    num_training = int(spec.param("num_training_packets", DEFAULT_TRAINING_PACKETS))
    num_test = int(spec.param("num_test_packets", DEFAULT_TEST_PACKETS))
    victim_client = int(spec.param("victim_client_id", DEFAULT_VICTIM_CLIENT))
    generator = ensure_rng(shard.seed)
    deployment = Deployment(
        spoofing_scenario(estimator=estimator_from_params(spec.base)),
        rng=generator)
    ap_address = MacAddress.random(spawn_rng(generator, 2))
    victim_address = MacAddress.random(spawn_rng(generator, 3))

    false_alarms, rss_false_alarms, rss_detector = _train_and_track(
        deployment, victim_address, victim_client, num_training, num_test)
    population = shard.params["population"]
    if population["role"] == "legitimate":
        return SpoofingEvalShard(
            role="legitimate",
            false_alarm_rate=false_alarms / num_test,
            rss_false_alarm_rate=rss_false_alarms / num_test,
        )

    attackers = list(deployment.attackers.values())
    attacker_index = int(population["attacker_index"])
    if shard.point > 1:
        # The serial loop resets the victim's mismatch streak after each
        # attacker, so every attacker but the first starts from a clean one.
        deployment.ap().detector.reset(victim_address)
    deployment.simulator().skip_captures((shard.point - 1) * num_test)
    outcome = _attacker_outcome(deployment, attackers[attacker_index],
                                victim_address, ap_address, num_test,
                                rss_detector)
    return SpoofingEvalShard(role="attacker", outcome=outcome)


def merge_spoofing_eval(spec: CampaignSpec,
                        records: Sequence[SpoofingEvalShard]) -> SpoofingEvaluation:
    """Reduce the per-transmitter shards into the serial evaluation."""
    legitimate = [record for record in records if record.role == "legitimate"]
    if len(legitimate) != 1:
        raise ValueError("a spoofing campaign needs exactly one legitimate shard")
    return SpoofingEvaluation(
        victim_client_id=int(spec.param("victim_client_id", DEFAULT_VICTIM_CLIENT)),
        false_alarm_rate=legitimate[0].false_alarm_rate,
        rss_false_alarm_rate=legitimate[0].rss_false_alarm_rate,
        attackers=[record.outcome for record in records
                   if record.role == "attacker"],
    )
