"""hatbench: the repo's host-speed benchmark (see README.md in this directory).

Six fixed-size workloads over the simulator, nine end-to-end metrics, a
per-layer ledger, and one traced run per workload.  Every number says which
clock it is on: *host* (CPU-seconds of this machine) or *sim* (the simulated
clock, which repeats exactly for a fixed seed).
"""
