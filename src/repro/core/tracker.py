"""Signature tracking.

"Since S_cl changes when the client or nearby obstacles move, the AP needs to
track and update S_cl.  We can accomplish this using uplink traffic that the
clients send to the AP." (Section 2.3.2.)

The tracker implements that update rule: every uplink packet whose signature
*matches* the stored one (i.e. is judged to come from the legitimate client)
is blended into the stored signature with an exponential-moving-average
weight, so the certified signature follows slow environmental change.
Packets that do *not* match are never blended in — otherwise an attacker could
walk the signature towards their own location — they are only counted as
anomalies by the detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.database import SignatureDatabase
from repro.core.metrics import signature_similarity
from repro.core.signature import AoASignature
from repro.mac.address import MacAddress


@dataclass(frozen=True)
class TrackerConfig:
    """Parameters of the signature update rule."""

    #: EMA weight given to each new matching observation.
    update_weight: float = 0.2
    #: Minimum similarity for an observation to be blended into the stored
    #: signature.  Set at or above the spoofing detector's threshold so that
    #: suspicious packets never influence the certified signature.
    min_similarity_to_update: float = 0.6
    #: Maximum age (seconds) before a stored signature is considered stale and
    #: should be re-trained rather than incrementally updated.
    max_signature_age_s: float = 3600.0

    def __post_init__(self) -> None:
        if not 0.0 < self.update_weight <= 1.0:
            raise ValueError("update_weight must be in (0, 1]")
        if not 0.0 <= self.min_similarity_to_update <= 1.0:
            raise ValueError("min_similarity_to_update must be in [0, 1]")
        if self.max_signature_age_s <= 0:
            raise ValueError("max_signature_age_s must be positive")


class SignatureTracker:
    """Keep per-client signatures fresh from matching uplink traffic."""

    def __init__(self, database: SignatureDatabase,
                 config: Optional[TrackerConfig] = None):
        self.database = database
        self.config = config if config is not None else TrackerConfig()

    def observe(self, address: MacAddress, observation: AoASignature,
                timestamp_s: float, similarity: Optional[float] = None) -> bool:
        """Offer a new observation for ``address``.

        Returns ``True`` when the observation was blended into the stored
        signature (it matched well enough), ``False`` otherwise.  Unknown
        addresses are never updated here — training is an explicit step.
        ``similarity`` is the observation's :func:`signature_similarity` to
        the stored signature, when the caller has already computed it (the
        spoofing detector's check).
        """
        record = self.database.lookup(address)
        if record is None:
            return False
        if similarity is None:
            similarity = signature_similarity(record.signature, observation)
        if similarity < self.config.min_similarity_to_update:
            return False
        blended = record.signature.merged_with(observation, weight=self.config.update_weight)
        self.database.update(address, blended, timestamp_s)
        return True

    def is_stale(self, address: MacAddress, now_s: float) -> bool:
        """True when the stored signature is older than the configured maximum age."""
        record = self.database.lookup(address)
        if record is None:
            return True
        return (now_s - record.updated_at_s) > self.config.max_signature_age_s
