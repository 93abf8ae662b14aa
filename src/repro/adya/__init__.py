"""Adya-style histories, serialization graphs, and anomaly detection.

Appendix A of the paper defines HAT semantics with Adya's formalism:
histories of transactions over multi-versioned objects, a Direct
Serialization Graph (DSG) of write/read/anti-dependencies plus session
dependencies, and isolation levels specified as sets of prohibited
phenomena.  This package implements that machinery so that:

* hand-written example histories (the paper's Figures 7-18) can be checked
  against each phenomenon definition, and
* histories *recorded from the simulated protocols* can be verified — e.g.
  MAV runs never exhibit OTV, Read Committed runs never exhibit G1, and
  eventual/RU runs may exhibit IMP but never G0.
"""
