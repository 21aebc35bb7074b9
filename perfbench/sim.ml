(* The simulation workloads: the six kernels run in-process on the
   sequential engine, [sim-large] at 64 and 128 simulated processors under
   first-touch and round-robin placement with no observers,
   [sim-observed] at 8 and 16 under first-touch with a profiler and a
   sanitizer attached to every run. Compilation is set-up; a pass runs
   every job once. *)

module Ddsm = Ddsm_core.Ddsm
module Pagetable = Ddsm_machine.Pagetable
module Memsys = Ddsm_machine.Memsys
module Config = Ddsm_machine.Config
module Rt = Ddsm_runtime.Rt
module Profile = Ddsm_report.Profile
module Sanitize = Ddsm_sanitize.Sanitize

type job = { kernel : string; nprocs : int; policy : Pagetable.policy }

let key j =
  Printf.sprintf "%s/p%d/%s" j.kernel j.nprocs
    (match j.policy with Pagetable.First_touch -> "ft" | Pagetable.Round_robin -> "rr")

let jobs ~procs ~policies =
  List.concat_map
    (fun kernel ->
      List.concat_map
        (fun nprocs -> List.map (fun policy -> { kernel; nprocs; policy }) policies)
        procs)
    Kernels.names

(* sim-observed keeps to first-touch: with both observers a pass is twice
   as slow, and a run needs several passes *)
let workload_jobs = function
  | `Large -> jobs ~procs:[ 64; 128 ] ~policies:[ Pagetable.First_touch; Pagetable.Round_robin ]
  | `Observed -> jobs ~procs:[ 8; 16 ] ~policies:[ Pagetable.First_touch ]

(* The seed orders the jobs: every pass of a run draws a new order from
   it. A job's time depends on the one before it, which leaves garbage
   for it to collect: with one order per run, spmv at 16 procs under
   both observers took a median 20.5 ms after transpose and 9.5 ms after
   graph. Over many orders a job's median does not hang on one. *)
let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l |> List.sort compare |> List.map snd

let make_rt j () = Ddsm.make_rt ~policy:j.policy ~nprocs:j.nprocs ()

type observers = { profile : Profile.t option; sanitize : Sanitize.t option }

let no_observers = { profile = None; sanitize = None }

let observers ?(profile = true) ?(sanitize = true) j rt =
  let cfg = Memsys.config rt.Rt.mem in
  {
    profile = (if profile then Some (Profile.create ()) else None);
    sanitize =
      (if sanitize then
         Some
           (Sanitize.create ~nprocs:j.nprocs
              ~line_bytes:cfg.Config.l2.Config.line_bytes
              ~page_bytes:cfg.Config.page_bytes ())
       else None);
  }

let run_with prog ~rt obs =
  Ddsm.run prog ~rt ?profile:obs.profile ?sanitize:obs.sanitize ()

(* One job as the workload runs it, timed from runtime creation to the
   end of the run. *)
let timed_job ~observed prog j =
  let t0 = Clock.now_ns () in
  let rt = make_rt j () in
  let obs = if observed then observers j rt else no_observers in
  let r = run_with prog ~rt obs in
  (Clock.now_ns () - t0, r, obs)

(* ---- checks ------------------------------------------------------ *)

type refs = {
  pinned : (string * Refs.result) list;
  interp : (string * string list) list;  (** kernel -> reference prints *)
}

(* Check one job's outcome; returns its accesses and cycles. *)
let check_job refs j (r, obs) =
  match r with
  | Error d ->
      Report.check false "%s: %s" (key j) (Ddsm.Diag.to_string d);
      (0, 0)
  | Ok (o : Ddsm.Engine.outcome) ->
      let false_sharing =
        Option.map (fun s -> List.length (Sanitize.false_sharing s)) obs.sanitize
      in
      let res = Refs.of_outcome ?false_sharing o in
      let problems =
        List.filter_map Fun.id
          [
            (match List.assoc_opt (key j) refs.pinned with
            | None -> Some "no pinned result"
            | Some pinned -> Refs.diff ~pinned res);
            (if List.assoc_opt j.kernel refs.interp = Some o.Ddsm.Engine.prints then None
             else Some "prints differ from the reference interpreter");
            (match obs.profile with
            | Some p when Profile.total_stall p <> Profile.attributed_stall p ->
                Some
                  (Printf.sprintf "%d unattributed cycles"
                     (Profile.total_stall p - Profile.attributed_stall p))
            | _ -> None);
            (match obs.sanitize with
            | Some s when not (Sanitize.is_clean s) ->
                Some (Printf.sprintf "%d data races" (List.length (Sanitize.races s)))
            | _ -> None);
          ]
      in
      Report.check (problems = []) "%s: %s" (key j) (String.concat "; " problems);
      (res.Refs.accesses, res.Refs.cycles)

let load_refs ~root kernels =
  {
    pinned = Refs.load_pinned ~root;
    interp =
      List.map
        (fun (k, src) ->
          match Refs.interp_prints ~fname:(k ^ ".pf") src with
          | Ok p -> (k, p)
          | Error e -> failwith (k ^ ".pf: " ^ e))
        kernels;
  }

(* ---- set-up ------------------------------------------------------ *)

let compile_all ~compile kernels =
  List.map
    (fun (k, src) ->
      match compile ~fname:(k ^ ".pf") src with
      | Ok linked -> (k, Ddsm.prog_of_linked linked)
      | Error e -> failwith (k ^ ".pf: " ^ e))
    kernels

(* ---- untraced passes --------------------------------------------- *)

type pass = {
  accesses : int;
  cycles : int;
  job_ns : (string * (int * float)) list;
      (** per job key: its time, and the mean of the probe samples taken
          just before and just after it *)
}

let pass ~observed ~refs progs jobs =
  let first = Probe.sample () in
  let results, _ =
    List.fold_left
      (fun (acc, before) j ->
        let ns, r, obs = timed_job ~observed (List.assoc j.kernel progs) j in
        let after = Probe.sample () in
        let a, c = check_job refs j (r, obs) in
        ((j, (ns, (before +. after) /. 2.), a, c) :: acc, after))
      ([], first) jobs
  in
  let results = List.rev results in
  {
    accesses = List.fold_left (fun s (_, _, a, _) -> s + a) 0 results;
    cycles = List.fold_left (fun s (_, _, _, c) -> s + c) 0 results;
    job_ns = List.map (fun (j, t, _, _) -> (key j, t)) results;
  }

let wall_ns p = List.fold_left (fun s (_, (ns, _)) -> s + ns) 0 p.job_ns

let peak_rss_mb () = Host.vm_hwm_mb "/proc/self/status"

(* Each job's time is its median over the passes, scaled to the
   reference host speed ({!Probe}). Every scaled metric carries its
   unscaled figure, and stdout lists each job's raw and scaled medians. *)
let untraced ~root ~seed ~seconds workload =
  let observed = workload = `Observed in
  let kernels = Kernels.load ~root in
  let refs = load_refs ~root kernels in
  let jobs = workload_jobs workload in
  let rng = Random.State.make [| seed |] in
  let start = Clock.now_ns () in
  let rec loop acc =
    let pass_start = Clock.now_ns () in
    let probe = Probe.sample () in
    let progs, setup_ns = Clock.time (fun () -> compile_all ~compile:Compile.plain kernels) in
    let p = pass ~observed ~refs progs (shuffle rng jobs) in
    Report.info "pass: %.1f ms set-up, %.1f host ns per access unscaled, probe %.2f ms"
      (float setup_ns /. 1e6)
      (Report.ratio (wall_ns p) p.accesses)
      (Stats.median (List.map (fun (_, (_, w)) -> w /. 1e6) p.job_ns));
    let acc = ((setup_ns, probe), p) :: acc in
    if Clock.another_pass ~start ~pass_start ~seconds then loop acc else List.rev acc
  in
  let passes = loop [] in
  let n = List.length passes in
  let _, first = List.hd passes in
  (* per job: median raw ns, median scaled ns, median probe ns *)
  let per_job =
    List.map
      (fun j ->
        let runs = List.map (fun (_, p) -> List.assoc (key j) p.job_ns) passes in
        ( j,
          Stats.median (List.map (fun (ns, _) -> float ns) runs),
          Stats.median (List.map (fun (ns, probe) -> Probe.scaled ns ~sample:probe) runs),
          Stats.median (List.map snd runs) ))
      jobs
  in
  List.iter
    (fun (j, raw, scaled, probe) ->
      Printf.printf "job %-22s %10.3f ms unscaled %10.3f ms scaled  probe %.3f ms\n" (key j)
        (raw /. 1e6) (scaled /. 1e6) (probe /. 1e6))
    per_job;
  let total sel = List.fold_left (fun t x -> t +. sel x) 0. per_job /. 1e9 in
  let raw_s = total (fun (_, r, _, _) -> r) and total_s = total (fun (_, _, s, _) -> s) in
  let setup sel = Stats.median (List.map (fun ((ns, probe), _) -> sel ns probe) passes) /. 1e9 in
  Report.add ~samples:n "setup_s" "s"
    ~raw:(setup (fun ns _ -> float ns))
    (setup (fun ns probe -> Probe.scaled ns ~sample:probe));
  let accesses = float first.accesses and cycles = float first.cycles in
  Report.add ~samples:n "sim_ns_per_access" "ns" ~raw:(raw_s *. 1e9 /. accesses)
    (total_s *. 1e9 /. accesses);
  Report.add ~samples:n "sim_cycles_per_s" "1/s" ~raw:(cycles /. raw_s) (cycles /. total_s);
  let njobs = float (List.length jobs) in
  Report.add ~samples:n "req_per_s" "1/s" ~raw:(njobs /. raw_s) (njobs /. total_s);
  let ms sel = List.map (fun x -> sel x /. 1e6) per_job in
  let raw_ms = ms (fun (_, r, _, _) -> r) and job_ms = ms (fun (_, _, s, _) -> s) in
  let nj = List.length jobs in
  Report.add ~samples:nj "req_ms_p50" "ms" ~raw:(Stats.percentile 50 raw_ms)
    (Stats.percentile 50 job_ms);
  Report.add ~samples:nj "req_ms_p99" "ms" ~raw:(Stats.percentile 99 raw_ms)
    (Stats.percentile 99 job_ms);
  Report.add "peak_rss_mb" "MB" (peak_rss_mb ());
  let pass_s scale =
    List.map
      (fun (_, p) -> List.fold_left (fun t (_, (ns, probe)) -> t +. scale ns probe) 0. p.job_ns)
      passes
  in
  let spread scale = if n < 2 then 0. else 100. *. Stats.rel_iqr (pass_s scale) in
  Report.info "%d passes of %d jobs; pass-to-pass spread %.1f%% scaled, %.1f%% unscaled" n nj
    (spread (fun ns probe -> Probe.scaled ns ~sample:probe))
    (spread (fun ns _ -> float ns))

(* ---- traced run -------------------------------------------------- *)

(* One pass as the workload runs it, with spans around runtime creation
   and the run; then, per job, the host-time split of its unobserved run
   and (sim-observed) the cost of each observer on its own. *)
let traced ~root ~seed ~scratch workload =
  let observed = workload = `Observed in
  let kernels = Kernels.load ~root in
  let refs = load_refs ~root kernels in
  let jobs = shuffle (Random.State.make [| seed |]) (workload_jobs workload) in
  let progs = compile_all ~compile:(Compile.traced ~scratch) kernels in
  Layers.add_compile ();
  let untraced = pass ~observed ~refs progs jobs in
  let g0 = Gc.quick_stat () in
  let spanned =
    List.map
      (fun j ->
        let prog = List.assoc j.kernel progs in
        let rt, mk = Clock.time (fun () -> make_rt j ()) in
        let obs = if observed then observers j rt else no_observers in
        let r, run = Clock.time (fun () -> run_with prog ~rt obs) in
        ignore (check_job refs j (r, obs));
        (j, mk, run))
      jobs
  in
  let g1 = Gc.quick_stat () in
  let traced_ns = List.fold_left (fun s (_, mk, run) -> s + mk + run) 0 spanned in
  let time_run j prog obs_of =
    let rt = make_rt j () in
    let obs = obs_of rt in
    let r, ns = Clock.time (fun () -> run_with prog ~rt obs) in
    ignore (check_job refs j (r, obs));
    ns
  in
  let observer_ns = ref (0, 0) in
  let split_jobs =
    List.filter_map
      (fun (j, mk, run) ->
        let prog = List.assoc j.kernel progs in
        let plain = if observed then time_run j prog (fun _ -> no_observers) else run in
        if observed then begin
          let p = time_run j prog (observers ~sanitize:false j) in
          let s = time_run j prog (observers ~profile:false j) in
          let dp, ds = !observer_ns in
          observer_ns := (dp + p - plain, ds + s - plain)
        end;
        match Split.job ~make_rt:(make_rt j) prog with
        | Error e ->
            Report.check false "%s: recording run: %s" (key j) e;
            None
        | Ok split ->
            Some
              {
                Layers.kernel = j.kernel;
                label = key j;
                make_rt_ns = mk;
                run_ns = plain;
                wall_ns = mk + run;
                split;
              })
      spanned
  in
  Layers.add_split split_jobs;
  let accesses = untraced.accesses in
  if observed then begin
    let dp, ds = !observer_ns in
    Layers.add ~samples:(List.length jobs) "report.profile_ns_per_access"
      (Report.ratio dp accesses);
    Layers.add ~samples:(List.length jobs) "sanitize.ns_per_access" (Report.ratio ds accesses)
  end;
  Layers.add "gc.minor_words_per_access"
    (Report.fratio (g1.Gc.minor_words -. g0.Gc.minor_words) (float accesses));
  Layers.add "gc.major_collections" (float (g1.Gc.major_collections - g0.Gc.major_collections));
  Layers.add ~samples:2 "trace.overhead_frac"
    ((float traced_ns /. float (wall_ns untraced)) -. 1.);
  Layers.add_micro ()
