"""The Gemini client library (Section 2, Algorithms 1 and 2).

The client holds the newest configuration it has seen, routes keys to
fragments, and runs one retry loop for read and write sessions, with the
mode-dependent attempts of Algorithms 1 and 2, including dirty-list
consultation and working-set transfer during recovery mode.
"""

from repro.client.client import GeminiClient
from repro.client.working_set import WstTracker

__all__ = ["GeminiClient", "WstTracker"]
