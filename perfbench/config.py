"""Fixed settings of the repo benchmark.

Every workload shape, rate and latency limit lives here so that two
commits measured with the same benchmark code use identical inputs.
"""

import os

#: Worker processes for the pooled workloads: at most the CPU count, and
#: at most 2 so that records from larger machines stay comparable.
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: Whether each quarter of a ``--trace 1`` run is traced.  The order
#: untraced, traced, traced, untraced cancels a steady drift of the
#: host's speed out of ``obs.trace_overhead_pct``.
TRACE_ORDER = (False, True, True, False)

#: Set-ups per run; ``setup_s`` reports the median import time plus the
#: median set-up time.
SETUP_REPEATS = 5

#: Per-workload latency limit behind ``slo_met_ratio``, in milliseconds.
#: Each sits at about 3x the p90 measured on a 2-vCPU VM, so that the
#: ratio moves on a real slowdown or a failure, not on noise.
LATENCY_LIMIT_MS = {
    "fault_sweep": 600.0,
    "served_mix": 250.0,
}

#: Ideal MLP inference at the BENCH_mvm shape, the model of both workloads.
MLP_SPEC = {"engine": "analog_mvm", "workload": "mlp_inference",
            "size": 32, "items": 16}

# -- fault_sweep --------------------------------------------------------------

FAULT_SWEEP_BATCH = 4
#: One sweep operation: one fresh model seed times this nonideality grid.
FAULT_SWEEP_AXES = {
    "fault_rate": [0.0, 0.01, 0.05, 0.1, 0.25],
    "variability_sigma": [0.0, 0.05],
}

# -- served_mix ---------------------------------------------------------------

#: Arrival rate of the open loop, requests per second.  A run of S
#: seconds sends round(rate * S) requests at uniformly random instants
#: (a Poisson process conditioned on its count, so runs_per_s does not
#: vary with a seed's count).
#: At 20 requests per second the two workers and the generator shared two
#: vCPUs so closely that queueing turned the host's own swings of speed
#: into p90 swings of 2.5x between runs; at 10 the latency stays close to
#: the service time.
SERVED_RATE = 10.0
#: The request mix, dealt from shuffled blocks so every run carries the
#: same shares: 15% exact repeats of an earlier request's spec (served
#: by dedup or the cache tier), 45% ideal MLP inference, 20% batched-MVP
#: database, 20% automata-processor dna.
SERVED_BLOCK = ("repeat",) * 3 + ("mlp",) * 9 + ("mvp",) * 4 + ("ap",) * 4
#: MLP requests draw their model from this many seeds and a batch width
#: from SERVED_MLP_BATCHES, without replacement, so that coalesce lanes
#: and warm fabrics have work to share while every fresh spec is new.
SERVED_MLP_SEEDS = 8
SERVED_MLP_BATCHES = range(2, 22)
#: Batch width of the MLP requests with a fresh seed, once every
#: seed-and-width pair has been sent.
SERVED_MLP_FRESH_BATCH = 8
SERVED_MVP = {"engine": "mvp_batched", "workload": "database",
              "size": 512, "items": 4, "batch": 8}
SERVED_AP = {"engine": "rram_ap", "workload": "dna",
             "size": 1000, "items": 8, "batch": 4}
#: The generator counts as behind, and the run as invalid, when its
#: 90th-percentile send delay exceeds this (milliseconds)...
LOADGEN_LATE_LIMIT_MS = 25.0
#: ...or when the mean backlog of the last third of the sends exceeds
#: that of the first third by more than this many requests.
LOADGEN_BACKLOG_GROWTH_LIMIT = 5.0

# -- model statistics ---------------------------------------------------------

#: Operations (from the start of each workload's seeded stream) whose
#: serial results feed the ``model.*`` counts and the digest.
DIGEST_OPS = {
    "fault_sweep": 3,
    "served_mix": 40,
}
