"""Multi-agent object search with belief sharing on graph worlds.

Agents hold categorical beliefs over their own location and a hidden
object's location, update them by summing log-space messages, plan by
expected free energy, and can exchange either full posteriors or only
observation-derived likelihood messages. The simulation layer reproduces
the runaway-consensus and evidence-override failure modes of posterior
sharing and the likelihood-sharing remedy.
"""

__version__ = "0.1.0"
