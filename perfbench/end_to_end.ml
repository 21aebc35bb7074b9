(* The end-to-end metrics every untraced run reports, on every workload. *)

let names =
  [
    ("setup_s", "s"); ("sim_ns_per_access", "ns"); ("sim_cycles_per_s", "1/s");
    ("req_per_s", "1/s"); ("req_ms_p50", "ms"); ("req_ms_p99", "ms"); ("peak_rss_mb", "MB");
  ]
