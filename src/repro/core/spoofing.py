"""Link-layer address-spoofing detection.

For every incoming packet claiming MAC address M, SecureAngle compares the
packet's AoA signature against the certified signature stored for M.  "The
experimental hypothesis [is] that there is a significant difference between
S_cl and an attacker's signature, so that they can be discriminated from each
other" (Section 2.3.2).  The detector thresholds the combined similarity
metric; it can also require several consecutive mismatches before raising an
alarm, which trades detection delay against false alarms from occasional bad
pseudospectra.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.database import SignatureDatabase, SignatureRecord
from repro.core.metrics import direct_path_distance_deg, reference_db, signature_similarity
from repro.core.signature import AoASignature
from repro.mac.address import MacAddress


class SpoofingVerdict(enum.Enum):
    """Outcome of checking one packet's signature."""

    #: Signature matches the certified one: accept.
    MATCH = "match"
    #: Signature differs: flag as a suspected spoofed/injected packet.
    SPOOFED = "spoofed"
    #: No certified signature exists for this address yet.
    UNKNOWN_ADDRESS = "unknown-address"


@dataclass(frozen=True)
class SpoofingDetectorConfig:
    """Detector thresholds."""

    #: Similarity at or above which a packet is considered to match.
    similarity_threshold: float = 0.55
    #: Direct-path disagreement (degrees) above which a packet is flagged even
    #: if the overall spectral shapes correlate.
    max_direct_path_error_deg: float = 15.0
    #: Number of consecutive mismatches required before declaring spoofing.
    consecutive_mismatches: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in [0, 1]")
        if self.max_direct_path_error_deg <= 0:
            raise ValueError("max_direct_path_error_deg must be positive")
        if self.consecutive_mismatches < 1:
            raise ValueError("consecutive_mismatches must be at least 1")


@dataclass(frozen=True)
class SpoofingCheck:
    """Detailed result of one packet check."""

    verdict: SpoofingVerdict
    similarity: float
    direct_path_error_deg: float


class SpoofingDetector:
    """Compare per-packet signatures against the certified database."""

    def __init__(self, database: SignatureDatabase,
                 config: Optional[SpoofingDetectorConfig] = None):
        self.database = database
        self.config = config if config is not None else SpoofingDetectorConfig()
        self._mismatch_streaks: Dict[MacAddress, int] = {}
        #: Per address: the stored signature the curve was computed for,
        #: and its reference_db curve.
        self._references: Dict[MacAddress, Tuple[AoASignature, np.ndarray]] = {}

    def check(self, address: MacAddress, observation: AoASignature) -> SpoofingCheck:
        """Check one packet's signature against the stored one for ``address``."""
        record = self.database.lookup(address)
        if record is None:
            return SpoofingCheck(SpoofingVerdict.UNKNOWN_ADDRESS, 0.0, 180.0)
        similarity = signature_similarity(record.signature, observation,
                                          a_db=self._reference_db(record))
        direct_error = direct_path_distance_deg(record.signature, observation)
        matches = (similarity >= self.config.similarity_threshold
                   and direct_error <= self.config.max_direct_path_error_deg)
        if matches:
            self._mismatch_streaks[address] = 0
            return SpoofingCheck(SpoofingVerdict.MATCH, similarity, direct_error)
        streak = self._mismatch_streaks.get(address, 0) + 1
        self._mismatch_streaks[address] = streak
        if streak >= self.config.consecutive_mismatches:
            record.record_anomaly()
            return SpoofingCheck(SpoofingVerdict.SPOOFED, similarity, direct_error)
        # Not enough consecutive evidence yet: treat as a (suspicious) match so
        # that an isolated bad pseudospectrum does not disrupt a legitimate client.
        return SpoofingCheck(SpoofingVerdict.MATCH, similarity, direct_error)

    def _reference_db(self, record: SignatureRecord) -> np.ndarray:
        """The stored signature's reference curve, computed once per stored
        signature.

        The curve is refreshed in place in one buffer per address: a new
        long-lived array per tracking update, between the large short-lived
        arrays of each batch, raised peak RSS on bursty traffic.
        """
        cached = self._references.get(record.address)
        if cached is not None and cached[0] is record.signature:
            return cached[1]
        curve = reference_db(record.signature)
        if cached is not None and cached[1].shape == curve.shape:
            cached[1][...] = curve
            curve = cached[1]
        self._references[record.address] = (record.signature, curve)
        return curve

    def reset(self, address: Optional[MacAddress] = None) -> None:
        """Clear mismatch streaks (for one address or for all)."""
        if address is None:
            self._mismatch_streaks.clear()
        else:
            self._mismatch_streaks.pop(address, None)
