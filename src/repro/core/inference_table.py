"""The Inference Table: per-neuron labels with saturating confidence.

Paper §3.3–3.4: each excitatory output neuron owns one or two
label/confidence slots.  A label is the next-delta a firing neuron
predicts; its confidence is a 3-bit saturating counter incremented on
correct predictions and decremented on wrong ones.  When confidence
reaches zero the label is erased, re-opening the slot so the prefetcher
adapts as the program changes phase.

The slots live in flat arrays shared with the compiled PATHFINDER loop
(:mod:`repro.snn.ckernel`): neuron ``n`` holds ``slot_count[n]`` live
slots, in assignment order, in row ``n`` of ``slot_label`` and
``slot_confidence``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigError

#: ``pending`` value of a neuron with no delta awaiting confirmation.
NO_PENDING = int(np.iinfo(np.int64).min)


class InferenceTable:
    """Label/confidence slots for every SNN output neuron.

    Args:
        n_neurons: Number of output neurons.
        labels_per_neuron: Slots per neuron (paper: 1 or 2).
        confidence_max: Counter saturation value (3-bit → 7).
        confidence_init: Confidence a fresh label starts with.
        require_confirmation: Assign a label only after the same
            (neuron, next-delta) pair has been observed twice.  This is
            the paper's §3.3 protocol — "upon encountering the same
            input and output pattern in subsequent instances, the
            Inference Table captures the next delta" — and is what
            makes PATHFINDER selective on noise.
    """

    def __init__(self, n_neurons: int, labels_per_neuron: int = 2,
                 confidence_max: int = 7, confidence_init: int = 1,
                 require_confirmation: bool = True):
        if n_neurons < 1:
            raise ConfigError("n_neurons must be >= 1")
        if labels_per_neuron < 1:
            raise ConfigError("labels_per_neuron must be >= 1")
        if not 1 <= confidence_init <= confidence_max:
            raise ConfigError("confidence_init outside counter range")
        self.n_neurons = n_neurons
        self.labels_per_neuron = labels_per_neuron
        self.confidence_max = confidence_max
        self.confidence_init = confidence_init
        self.require_confirmation = require_confirmation
        shape = (n_neurons, labels_per_neuron)
        self.slot_label = np.zeros(shape, dtype=np.int64)
        self.slot_confidence = np.zeros(shape, dtype=np.int64)
        self.slot_count = np.zeros(n_neurons, dtype=np.int64)
        self.pending = np.full(n_neurons, NO_PENDING, dtype=np.int64)
        # Statistics for diagnostics.
        self.labels_assigned = 0
        self.labels_erased = 0
        self.correct_observations = 0
        self.wrong_observations = 0

    def _check_neuron(self, neuron: int) -> None:
        if not 0 <= neuron < self.n_neurons:
            raise ConfigError(f"neuron index {neuron} out of range")

    def slots(self, neuron: int) -> List[Tuple[int, int]]:
        """``neuron``'s (label, confidence) slots in assignment order."""
        count = int(self.slot_count[neuron])
        return list(zip(self.slot_label[neuron, :count].tolist(),
                        self.slot_confidence[neuron, :count].tolist()))

    def labels(self, neuron: int, min_confidence: int = 1) -> List[int]:
        """Labels of ``neuron`` at or above ``min_confidence``,
        highest-confidence first (ties keep slot order)."""
        self._check_neuron(neuron)
        ranked = sorted(self.slots(neuron), key=lambda slot: -slot[1])
        return [label for label, confidence in ranked
                if confidence >= min_confidence]

    def observe(self, neuron: int, actual_delta: int) -> None:
        """Reconcile a neuron's labels with the observed next delta.

        - A matching label gains confidence (saturating).
        - Non-matching labels lose confidence; at zero they are erased.
        - If no label matches and a slot is free, the observed delta is
          assigned as a new label with the initial confidence — this is
          the "learning labels on the fly" step of §3.3.
        """
        self._check_neuron(neuron)
        labels = self.slot_label[neuron]
        confidences = self.slot_confidence[neuron]
        count = int(self.slot_count[neuron])
        matched = False
        kept = 0
        for k in range(count):
            label = int(labels[k])
            confidence = int(confidences[k])
            if label == actual_delta:
                confidence = min(self.confidence_max, confidence + 1)
                matched = True
                self.correct_observations += 1
            else:
                confidence -= 1
                self.wrong_observations += 1
            if confidence > 0:
                labels[kept] = label
                confidences[kept] = confidence
                kept += 1
        self.labels_erased += count - kept
        self.slot_count[neuron] = kept
        if not matched and kept < self.labels_per_neuron:
            if (not self.require_confirmation
                    or self.pending[neuron] == actual_delta):
                labels[kept] = actual_delta
                confidences[kept] = self.confidence_init
                self.slot_count[neuron] = kept + 1
                self.labels_assigned += 1
                self.pending[neuron] = NO_PENDING
            else:
                self.pending[neuron] = actual_delta

    def predict(self, neuron: int, min_confidence: int = 1,
                max_labels: Optional[int] = None) -> List[int]:
        """Deltas this neuron predicts, best first, up to ``max_labels``."""
        labels = self.labels(neuron, min_confidence)
        return labels if max_labels is None else labels[:max_labels]

    def occupancy(self) -> int:
        """Total labels currently assigned across all neurons."""
        return int(self.slot_count.sum())

    def reset_neuron(self, neuron: int) -> None:
        """Erase one neuron's labels and pending confirmation.

        Called when the SNN detects non-finite weights and reinitialises
        that neuron: its labels describe a model that no longer exists,
        so keeping them would poison future predictions.
        """
        self._check_neuron(neuron)
        self.labels_erased += int(self.slot_count[neuron])
        self.slot_count[neuron] = 0
        self.pending[neuron] = NO_PENDING
