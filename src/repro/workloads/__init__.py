"""Workload generators: YCSB-style key-value workloads and TPC-C.

* :mod:`repro.workloads.base` — the pluggable :class:`Workload` /
  :class:`WorkloadFactory` interface the benchmark runner drives,
* :mod:`repro.workloads.distributions` — uniform and zipfian key choosers,
* :mod:`repro.workloads.ycsb` — the YCSB-like transactional workload the
  paper drives its prototype with (Section 6.3),
* :mod:`repro.workloads.tpcc` — the TPC-C schema: scale and mix, key
  names, initial load and the five program names,
* :mod:`repro.workloads.tpcc_driver` — the one TPC-C generator: the five
  programs as derived read-modify-writes run through the simulated
  cluster, with a commit-fed application mirror,
* :mod:`repro.workloads.tpcc_audit` — the one TPC-C checker: the Section
  6.2 anomaly auditor over recorded histories (duplicate/gapped order ids,
  double deliveries),
* :mod:`repro.workloads.tpcc_analysis` — the Section 6.2 HAT-compliance
  profile of each TPC-C program (the ``tpcc`` artifact's table).
"""
