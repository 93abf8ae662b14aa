"""Simulated wide-area network substrate.

The paper's evaluation (Section 2.2 and Section 6.3) runs on Amazon EC2
across seven regions and several availability zones.  This package replaces
the physical network with a calibrated model:

* :mod:`repro.net.topology` — sites, availability zones, and regions,
  including the seven EC2 regions the paper measures.
* :mod:`repro.net.latency` — latency distributions calibrated to the paper's
  Table 1 round-trip-time matrix.
* :mod:`repro.net.network` — the message bus used by servers and clients,
  including partition injection.
* :mod:`repro.net.measurement` — the ping measurement study reproducing
  Table 1 and Figure 1.
"""
