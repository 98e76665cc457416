"""Print the reference values that the output checks compare against.

    python3 perfbench/record_reference.py > perfbench/reference.json

* ``serve_canary``: per-domain NDCG@16 of the fixed-seed serve models on
  the canary sessions, and their interleaving credits (checked within 1e-9
  and exactly);
* ``protocol_canary_ndcg``: mean test NDCG@16 of the full-size protocol job
  on the canary seed (a quality floor: 0.02 below it fails).
"""

import json
import statistics

from run import OUT, import_mdrank

import_mdrank()
import workloads  # noqa: E402

protocol = workloads.Protocol(workloads.CANARY_SEED, workloads.FULL, OUT)
protocol.setup()
report = protocol.job()
print(json.dumps({
    "serve_canary": workloads.serve_outputs(
        workloads.serve_models(), workloads.CANARY_SEED, workloads.CANARY_SESSIONS, 1000),
    "protocol_canary_ndcg": statistics.fmean(r.overall for r in report.runs),
}, indent=2))
