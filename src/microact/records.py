"""Core record types shared across the pipeline stages.

Coordinates are pixels of the source video; frame indices are 0-based.
Nothing here touches images: boxes, embeddings and tip candidates are
ingested from upstream detector output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

BBox = tuple[float, float, float, float]  # x, y, w, h (top-left origin)


class InstrumentClass(str, enum.Enum):
    SCISSORS_C = "scissors_c"
    SCISSORS_S = "scissors_s"
    NEEDLE_DRIVER_C = "needle_driver_c"
    NEEDLE_DRIVER_S = "needle_driver_s"
    NEEDLE = "needle"

    def __str__(self) -> str:
        return self.value


class ActionClass(str, enum.Enum):
    CUTTING = "Cutting"
    NEEDLE_DRIVING = "NeedleDriving"
    KNOT_TYING = "KnotTying"
    NO_ACTION = "NoAction"

    def __str__(self) -> str:
        return self.value


# the action types that receive expert scores; skill training and
# prediction are restricted to segments of these classes
RATED_ACTIONS = (ActionClass.NEEDLE_DRIVING, ActionClass.KNOT_TYING)


class SkillLevel(enum.IntEnum):
    """Ordinal grade; lower is worse."""

    POOR = 0
    MODERATE = 1
    GOOD = 2

    def __str__(self) -> str:
        return self.name.capitalize()

    @classmethod
    def from_name(cls, name: str) -> "SkillLevel":
        return cls[name.upper()]


class Provenance(str, enum.Enum):
    DETECTED = "detected"    # box and class taken from the detector
    RECOVERED = "recovered"  # detector missed; box supplied by the tracker
    CORRECTED = "corrected"  # detector class overruled by track history

    def __str__(self) -> str:
        return self.value


@dataclass
class Detection:
    """One detector observation in one frame.

    ``appearance`` is an optional externally computed embedding; when
    present it must be unit L2 norm (checked by the loader).
    """

    frame: int
    class_id: InstrumentClass
    bbox: BBox
    confidence: float
    appearance: Optional[np.ndarray] = None


@dataclass
class TrackObservation:
    """Per-frame tracker output row, before identity repair.

    ``det_index`` links back to the matched detection in that frame's
    detection list; ``None`` marks a coasted (prediction-only) row.
    """

    frame: int
    object_id: int
    class_id: InstrumentClass
    bbox: BBox
    det_index: Optional[int] = None


@dataclass
class RefinedTrack:
    """Identity-stable track after repair: one class per object."""

    object_id: int
    class_id: InstrumentClass
    boxes: dict[int, BBox] = field(default_factory=dict)
    provenance: dict[int, Provenance] = field(default_factory=dict)

    def frames(self) -> list[int]:
        return sorted(self.boxes)


@dataclass
class TipTrajectory:
    """Tip position per frame for one instrument slot.

    ``points[t]`` is ``None`` for frames where the instrument is absent.
    The frame rate is meta.json's, the slot's class in tips_classes.json.
    """

    instrument_id: int
    points: list[Optional[tuple[float, float]]]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(eq=False)
class TipCandidateTable:
    """Every tip candidate set of a procedure, in columns.

    Set ``i`` is ``set_keys[i]`` = (frame, object_id) with crop box
    ``boxes[i]``; its candidates are rows ``offsets[i]:offsets[i + 1]`` of
    ``points`` (crop-local x, y) and ``descriptors``.  ``io`` reads and
    writes a table only when every set has a finite crop box of positive
    width and height, at least one candidate and no descriptor of zero
    or infinite norm.
    """

    set_keys: np.ndarray     # (n, 2) int64
    boxes: np.ndarray        # (n, 4) float64
    offsets: np.ndarray      # (n + 1,) int64
    points: np.ndarray       # (m, 2) float64
    descriptors: np.ndarray  # (m, d) float64


@dataclass
class TruthInstance:
    """Ground-truth instrument state for one frame, used to score tracking."""

    frame: int
    object_id: int
    class_id: InstrumentClass
    bbox: BBox


@dataclass
class SkillScore:
    """Expert rating of one action type within one procedure."""

    procedure_id: str
    action_type: ActionClass
    score: float
