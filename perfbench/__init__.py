"""Repository benchmark: end-to-end and per-layer timing of the NAS search.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (see ``workloads.py``) in fresh child
processes and prints the result as the last line of standard output.
"""
