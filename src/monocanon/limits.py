"""Resource limits shared by the poset and homology engines."""

import math
import time

# Largest bounding box [0, g], in cells, that the poset and homology engines build.
DEFAULT_BOX_CAP = 10**8


class ResourceError(RuntimeError):
    """A configured limit was hit; the answer is unknown rather than negative."""


class BoxCapError(ResourceError):
    """The bounding box has more cells than the configured cap."""


class SearchBudgetError(ResourceError):
    """The partition search ran out of its node budget."""


class TimeLimitError(ResourceError):
    """The wall-clock deadline passed mid-computation."""


def box_volume(g, box_cap: int | None = None, what: str = "box") -> int:
    """Number of cells of the box [0, g]; BoxCapError if it exceeds box_cap."""
    volume = 1
    for e in g:
        volume *= e + 1
    if box_cap is not None and volume > box_cap:
        try:
            cells = str(volume)
        except ValueError:  # more digits than Python converts to a string
            cells = f"at least 2^{volume.bit_length() - 1}"
        raise BoxCapError(f"{what} has {cells} cells, over the cap of {box_cap}")
    return volume


def deadline_from_timeout(seconds):
    """Absolute monotonic deadline for a timeout in seconds (None passes
    through); ValueError unless seconds is a positive finite number."""
    if seconds is None:
        return None
    if not 0 < seconds < math.inf:
        raise ValueError(f"timeout must be a positive number of seconds, got {seconds}")
    return time.monotonic() + seconds


def check_deadline(deadline):
    if deadline is not None and time.monotonic() >= deadline:
        raise TimeLimitError("wall-clock deadline exceeded")
