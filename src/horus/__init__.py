"""Heterogeneity-oblivious robust federated learning on low-rank adapters.

The package splits into spectral primitives (:mod:`horus.spectral`), the
adapter data model (:mod:`horus.lora`), poisoning detection
(:mod:`horus.detection`), server aggregation rules (:mod:`horus.aggregation`),
attack implementations (:mod:`horus.attacks`), the synthetic federation
(:mod:`horus.sim`), and a CLI (:mod:`horus.cli`).
"""

__version__ = "0.1.0"
