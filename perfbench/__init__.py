"""Benchmark for dosekit: pinned workloads, an exact gap oracle and an outside-in tracer.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>``; see README.md in this directory for the metrics.
"""
