"""Workload generators: YCSB-style key-value workloads and TPC-C.

* :mod:`repro.workloads.base` — the pluggable :class:`Workload` /
  :class:`WorkloadFactory` interface the benchmark runner drives,
* :mod:`repro.workloads.distributions` — uniform and zipfian key choosers,
* :mod:`repro.workloads.ycsb` — the YCSB-like transactional workload the
  paper drives its prototype with (Section 6.3),
* :mod:`repro.workloads.tpcc` — the TPC-C schema and the five transaction
  programs, used for the Section 6.2 requirements analysis,
* :mod:`repro.workloads.tpcc_analysis` — the HAT-compliance analysis of each
  TPC-C transaction and the TPC-C consistency-condition checkers,
* :mod:`repro.workloads.tpcc_driver` — TPC-C executed live through the
  simulated cluster, with derived read-modify-writes and a commit-fed
  application mirror,
* :mod:`repro.workloads.tpcc_audit` — the Section 6.2 anomaly auditor over
  recorded histories (duplicate/gapped order ids, double deliveries).
"""
