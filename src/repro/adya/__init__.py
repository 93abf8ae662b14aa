"""Adya-style histories, serialization graphs, and anomaly detection.

Appendix A of the paper defines HAT semantics with Adya's formalism:
histories of transactions over multi-versioned objects, a Direct
Serialization Graph (DSG) of write/read/anti-dependencies, and isolation
levels specified as sets of prohibited phenomena; session guarantees are
checked over each session's commit order.  This package implements that
machinery so that:

* hand-written example histories (the paper's Figures 7-18) can be checked
  against each phenomenon definition, and
* histories *recorded from the simulated protocols* can be verified — e.g.
  MAV runs never exhibit OTV, Read Committed runs never exhibit G1, and
  eventual/RU runs may exhibit IMP but never G0.
"""
