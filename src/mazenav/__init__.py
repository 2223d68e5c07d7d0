"""Text-maze navigation benchmark harness.

Generate seeded maze corpora, serialize them into the canonical textual
description, prompt chat models in zero/one/few-shot scenarios, verify the
returned first-person instructions with a pose simulator, and report
Complete/Partial Path Accuracy.
"""

__version__ = "0.1.0"
