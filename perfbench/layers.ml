(* The per-layer metrics of a traced run. Every traced run reports every
   name below; a layer the workload does not exercise reads 0 with 0
   samples. *)

let kernel_metric k = "job_ns_per_access." ^ k

let names =
  [
    ("frontend.parse_ms", "ms"); ("sema.analyse_ms", "ms");
    ("transform.pipeline_ms", "ms"); ("transform.routines", "count");
    ("linker.objfile_ms", "ms"); ("linker.prelink_ms", "ms");
    ("linker.recompilations", "count"); ("linker.image_save_ms", "ms");
    ("linker.image_load_ms", "ms"); ("linker.image_bytes", "bytes");
    ("runtime.make_rt_ms", "ms"); ("runtime.elaborate_ms", "ms");
    ("exec.engine_self_ns_per_access", "ns"); ("exec.heapq_ns.d8", "ns");
    ("exec.heapq_ns.d128", "ns"); ("exec.accesses", "count");
    ("machine.access_ns", "ns");
  ]
  @ List.map (fun c -> ("machine.access_ns." ^ c, "ns")) (Array.to_list Split.class_names)
  @ List.map (fun c -> ("machine.count." ^ c, "count")) (Array.to_list Split.class_names)
  @ [
      ("machine.replay_exact_frac", "ratio"); ("report.profile_ns_per_access", "ns");
      ("sanitize.ns_per_access", "ns"); ("service.sim_hit_ratio", "ratio");
      ("service.compile_hit_ratio", "ratio"); ("service.requests_per_round", "count");
      ("service.overhead_ms_p50", "ms"); ("service.cold_ms_p50", "ms");
      ("service.resim_ms_p50", "ms"); ("service.hit_ms_p50", "ms");
      ("service.budget_ms_p50", "ms"); ("util.jobs_map_us", "us");
      ("gc.minor_words_per_access", "words"); ("gc.major_collections", "count");
    ]
  @ List.map (fun k -> (kernel_metric k, "ns")) Kernels.names
  @ [ ("trace.overhead_frac", "ratio"); ("trace.unresolved_frac", "ratio") ]

let unit_of name = List.assoc name names

let add ?samples name value = Report.add ?samples name (unit_of name) value

(* Compile-layer metrics from the spans [Compile.traced] recorded. *)
let add_compile () =
  let ms = Spans.total_ms in
  let n = Spans.calls "linker.prelink" in
  add ~samples:n "frontend.parse_ms" (ms "frontend.parse");
  add ~samples:n "sema.analyse_ms" (ms "sema.analyse");
  add ~samples:n "transform.pipeline_ms" (ms "transform.pipeline");
  add ~samples:n "transform.routines" (float !Compile.routines);
  add ~samples:n "linker.objfile_ms"
    (ms "linker.objfile" -. ms "sema.analyse" -. ms "transform.pipeline");
  add ~samples:n "linker.prelink_ms" (ms "linker.prelink");
  add ~samples:n "linker.recompilations" (float !Compile.recompilations);
  add ~samples:n "linker.image_save_ms" (ms "linker.image_save");
  add ~samples:n "linker.image_load_ms" (ms "linker.image_load");
  add ~samples:n "linker.image_bytes" (float !Compile.image_bytes)

let add_micro () =
  add ~samples:5 "exec.heapq_ns.d8" (Micro.heapq_ns ~depth:8);
  add ~samples:5 "exec.heapq_ns.d128" (Micro.heapq_ns ~depth:128);
  add ~samples:201 "util.jobs_map_us" (Micro.jobs_map_us ())

(* Job splits: runtime, engine-self and machine time. [jobs] holds, per
   job, its kernel, its make_rt and unobserved run ns, and its split.
   [wall] is what each job cost as the workload ran it. *)
type job = {
  kernel : string;
  label : string;
  make_rt_ns : int;
  run_ns : int;  (** unobserved run *)
  wall_ns : int;  (** as the workload runs it *)
  split : Split.t;
}

let add_split ?(table = true) jobs =
  let sum f l = List.fold_left (fun s j -> s + f j) 0 l in
  let fsum f l = List.fold_left (fun s j -> s +. f j) 0. l in
  let exact = List.filter (fun j -> j.split.Split.exact) jobs in
  let acc l = sum (fun j -> j.split.Split.accesses) l in
  let n = List.length jobs and ne = List.length exact in
  add ~samples:n "runtime.make_rt_ms" (float (sum (fun j -> j.make_rt_ns) jobs) /. 1e6);
  add ~samples:n "runtime.elaborate_ms"
    (float (sum (fun j -> j.split.Split.elaborate_ns) jobs) /. 1e6);
  let engine_self j = j.run_ns - j.split.Split.elaborate_ns - j.split.Split.replay_ns in
  add ~samples:ne "exec.engine_self_ns_per_access" (Report.ratio (sum engine_self exact) (acc exact));
  add ~samples:n "exec.accesses" (float (acc jobs));
  add ~samples:ne "machine.access_ns"
    (Report.ratio (sum (fun j -> j.split.Split.replay_ns) exact) (acc exact));
  Array.iteri
    (fun c name ->
      let cnt l = sum (fun j -> j.split.Split.class_count.(c)) l in
      add ~samples:(cnt exact) ("machine.access_ns." ^ name)
        (Report.fratio (fsum (fun j -> j.split.Split.class_ns.(c)) exact) (float (cnt exact)));
      add ~samples:n ("machine.count." ^ name) (float (cnt jobs)))
    Split.class_names;
  add ~samples:n "machine.replay_exact_frac" (Report.ratio ne n);
  let job_cost j = j.make_rt_ns + j.run_ns in
  add ~samples:n "trace.unresolved_frac"
    (Report.ratio
       (sum job_cost (List.filter (fun j -> not j.split.Split.exact) jobs))
       (sum job_cost jobs));
  List.iter
    (fun k ->
      let mine = List.filter (fun j -> j.kernel = k) jobs in
      if mine <> [] then
        add ~samples:(List.length mine) (kernel_metric k)
          (Report.ratio (sum (fun j -> j.wall_ns) mine) (acc mine)))
    Kernels.names;
  (* the split table: for a replay-exact job the three parts add up to
     its runtime creation plus run time by construction; the jobs that do
     not replay are the unresolved remainder *)
  if table then begin
    Report.info "%-24s %9s %9s %9s %9s %9s  %s" "job" "cost_ms" "runtime" "engine" "machine"
      "accesses" "replay";
    List.iter
      (fun j ->
        let ms ns = float ns /. 1e6 in
        if j.split.Split.exact then
          Report.info "%-24s %9.2f %9.2f %9.2f %9.2f %9d  exact" j.label (ms (job_cost j))
            (ms (j.make_rt_ns + j.split.Split.elaborate_ns))
            (ms (engine_self j)) (ms j.split.Split.replay_ns) j.split.Split.accesses
        else
          Report.info "%-24s %9.2f %9s %9s %9s %9d  unresolved (not credited)" j.label
            (ms (job_cost j)) "-" "-" "-" j.split.Split.accesses)
      jobs
  end;
  let exact_cost = sum job_cost exact and total = sum job_cost jobs in
  Report.info "replay-exact jobs: %d of %d, %.1f ms of %.1f ms; unresolved remainder %.1f ms"
    ne n (float exact_cost /. 1e6) (float total /. 1e6)
    (float (total - exact_cost) /. 1e6)

(* Fill every per-layer name the run has not reported with 0. *)
let complete () =
  List.iter
    (fun (name, u) ->
      if not (List.exists (fun m -> m.Report.name = name) !Report.metrics) then
        Report.add ~samples:0 name u 0.)
    names
