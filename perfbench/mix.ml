(* The pfld-mix workload: the built pfld daemon as a child process with
   two workers and a private cache directory, driven closed-loop by two
   connections with one request outstanding each, over the seeded
   {!Stream}. A pass starts a fresh daemon on a fresh cache directory,
   sends the whole stream, reads the daemon's counters and peak RSS, and
   stops it with the shutdown op. Every pass sends the same stream, so
   passes repeat the same work. *)

module Ddsm = Ddsm_core.Ddsm
module Json = Ddsm_report.Json
module Client = Ddsm_service.Client
module Proto = Ddsm_service.Proto
module Service = Ddsm_service.Service
module Counters = Ddsm_machine.Counters

(* The daemon's configuration; the direct references simulate under the
   same one. Socket and cache directory are per pass. *)
let server =
  {
    Service.sock_path = "";
    workers = 2;
    cache_dir = None;
    budget = Service.default_budget;
    verbose = false;
    handle_signals = true;
  }

let requests_per_pass = 500

(* host-speed samples per CPU taken between passes *)
let probes_per_cpu = 6
let min_passes = 2

(* No request of the stream takes a second, so a daemon silent this long
   is stuck. *)
let reply_timeout_s = 30.

(* ---- direct references ------------------------------------------- *)

type expect = Ok_ of { cycles : int; prints : string list; accesses : int } | Err of string

type direct = { expect : expect; make_rt_ns : int; run_ns : int }

(* The runtime the daemon builds for request [r] ({!Service.simulate}). *)
let make_rt (r : Proto.run_req) () =
  Ddsm.make_rt
    ~machine:(Service.machine_of_string r.Proto.machine)
    ~policy:(Service.policy_of_string r.Proto.policy)
    ~heap_words:r.Proto.heap_words ~nprocs:r.Proto.nprocs ()

type references = {
  directs : direct option array;  (** by request; [None] for hits *)
  compile_ns : int array;  (** by source, compile + link *)
  gc_minor_words : float;  (** of the simulations *)
  gc_major_collections : int;
}

(* Compile every source and simulate every request that is not a hit,
   in-process and configured exactly as the daemon configures it, one
   source at a time so that only one image is live. [on_job i ~make_rt
   prog] sees each successful simulation while its program is at hand
   (the traced split). *)
let references (st : Stream.t) ~on_job =
  let n = Array.length st.Stream.reqs in
  let directs = Array.make n None in
  let compile_ns = Array.make (Array.length st.Stream.sources) 0 in
  let by_src = Array.make (Array.length st.Stream.sources) [] in
  Array.iteri
    (fun i (r : Stream.req) ->
      if r.Stream.cls <> Stream.Hit then by_src.(r.Stream.src) <- i :: by_src.(r.Stream.src))
    st.Stream.reqs;
  let minor = ref 0. and major = ref 0 in
  Array.iteri
    (fun s idxs ->
      let src = st.Stream.sources.(s) in
      let compiled, ns =
        Clock.time (fun () -> Compile.plain ~fname:src.Stream.fname src.Stream.text)
      in
      compile_ns.(s) <- ns;
      match compiled with
      | Error e ->
          List.iter
            (fun i -> directs.(i) <- Some { expect = Err ("compile: " ^ e); make_rt_ns = 0; run_ns = 0 })
            idxs
      | Ok linked ->
          let prog = Ddsm.prog_of_linked linked in
          List.iter
            (fun i ->
              let r = Stream.run_req st i in
              let max_cycles = Service.effective_budget server r in
              let g0 = Gc.quick_stat () in
              let rt, make_rt_ns = Clock.time (make_rt r) in
              let res, run_ns = Clock.time (fun () -> Ddsm.run prog ~rt ?max_cycles ()) in
              let g1 = Gc.quick_stat () in
              minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
              major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
              let expect =
                match res with
                | Ok o ->
                    Ok_
                      {
                        cycles = o.Ddsm.Engine.cycles;
                        prints = o.Ddsm.Engine.prints;
                        accesses = Counters.accesses o.Ddsm.Engine.counters;
                      }
                | Error d -> Err (Ddsm.Diag.code d)
              in
              directs.(i) <- Some { expect; make_rt_ns; run_ns };
              match expect with Ok_ _ -> on_job i ~make_rt:(make_rt r) prog | Err _ -> ())
            (List.rev idxs))
    by_src;
  { directs; compile_ns; gc_minor_words = !minor; gc_major_collections = !major }

(* ---- the daemon -------------------------------------------------- *)

type daemon = {
  pid : int;
  sock : string;
  cache : string;
  conns : Client.t array;
  mutable reaped : bool;
}

let op name = Json.Obj [ ("op", Json.Str name); ("id", Json.Int 0) ]

let rpc_ok c j =
  match Client.rpc c j with Ok reply -> reply | Error e -> failwith ("pfld: " ^ e)

let start ~pfld ~dir =
  let sock = Filename.concat dir "pfld.sock" and cache = Filename.concat dir "cache" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process pfld
          [|
            pfld; "-s"; sock; "--workers"; string_of_int server.Service.workers; "--cache-dir";
            cache; "--budget"; string_of_int server.Service.budget;
          |]
          devnull devnull Unix.stderr)
  in
  (* ready once the socket accepts: poll finely, the start takes ms *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec conn () =
    match Client.connect ~sock with
    | Ok c -> c
    | Error e when Unix.gettimeofday () > deadline -> failwith e
    | Error _ ->
        ignore (Unix.select [] [] [] 0.0002);
        conn ()
  in
  let conns = Array.init 2 (fun _ -> conn ()) in
  Array.iter (fun c -> ignore (rpc_ok c (op "ping"))) conns;
  { pid; sock; cache; conns; reaped = false }

let int_field j k = match Refs.field j k with Some (Json.Int i) -> i | _ -> 0

(* Stop with the shutdown op: the daemon must acknowledge, exit 0 and
   remove its socket, and must have left in its cache directory exactly
   one image per source it compiled ([images], file names) and nothing
   else, no torn temporary file. A daemon that does not exit in time is
   killed, and the run fails. The benchmark then removes the directory. *)
let stop d ~images =
  let ack = Client.rpc d.conns.(0) (op "shutdown") in
  Array.iter Client.close d.conns;
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.005);
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        snd (Unix.waitpid [] d.pid)
    | _, st -> st
  in
  let status = wait () in
  d.reaped <- true;
  Report.check (Result.is_ok ack && status = Unix.WEXITED 0) "pfld shutdown: acked and exit 0";
  Report.check (not (Sys.file_exists d.sock)) "pfld removed its socket";
  let left = if Sys.file_exists d.cache then List.sort compare (Array.to_list (Sys.readdir d.cache)) else [] in
  Report.check (left = images) "pfld cache directory holds exactly the %d images of its sources (%d entries)"
    (List.length images) (List.length left);
  Files.remove_tree d.cache

(* ---- one pass ---------------------------------------------------- *)

type pass = {
  setup_ns : int;
  wall_ns : int;
  latency_ns : int array;
  replies : string array;
  stats : Json.t;
  rss_mb : float;
}

(* Send the stream closed-loop over the two connections. *)
let drive d wire =
  let n = Array.length wire in
  let latency = Array.make n 0 and replies = Array.make n "" in
  let next = ref 0 in
  let inflight = Array.make 2 (-1, 0) in
  let send k =
    if !next < n then begin
      let i = !next in
      incr next;
      let t0 = Clock.now_ns () in
      Client.send d.conns.(k) wire.(i);
      inflight.(k) <- (i, t0)
    end
    else inflight.(k) <- (-1, 0)
  in
  let fd k = d.conns.(k).Client.fd in
  let t0 = Clock.now_ns () in
  send 0;
  send 1;
  while fst inflight.(0) >= 0 || fst inflight.(1) >= 0 do
    let live = List.filter (fun k -> fst inflight.(k) >= 0) [ 0; 1 ] in
    match Unix.select (List.map fd live) [] [] reply_timeout_s with
    | [], _, _ -> failwith "pfld: no reply within the timeout"
    | ready, _, _ ->
        List.iter
          (fun k ->
            if List.mem (fd k) ready then
              match Client.recv_line d.conns.(k) with
              | Error e -> failwith e
              | Ok line ->
                  let i, ts = inflight.(k) in
                  latency.(i) <- Clock.now_ns () - ts;
                  replies.(i) <- line;
                  send k)
          live
  done;
  (Clock.now_ns () - t0, latency, replies)

let pass ~pfld ~scratch ~index ~images wire =
  let dir = Filename.concat scratch (Printf.sprintf "pass%d" index) in
  Unix.mkdir dir 0o755;
  let d, setup_ns = Clock.time (fun () -> start ~pfld ~dir) in
  Fun.protect
    ~finally:(fun () ->
      if not d.reaped then begin
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
      end;
      Files.remove_tree dir)
    (fun () ->
      let wall_ns, latency_ns, replies = drive d wire in
      let stats = rpc_ok d.conns.(0) (op "stats") in
      let rss_mb = Host.vm_hwm_mb (Printf.sprintf "/proc/%d/status" d.pid) in
      stop d ~images;
      { setup_ns; wall_ns; latency_ns; replies; stats; rss_mb })

(* ---- checks ------------------------------------------------------ *)

let body line =
  match Json.of_string line with
  | Ok (Json.Obj (("id", _) :: fs)) -> Some fs
  | _ -> None

let check_pass (st : Stream.t) expect p ~first =
  let n = Array.length st.Stream.reqs in
  for i = 0 to n - 1 do
    let r = st.Stream.reqs.(i) in
    let b = body p.replies.(i) in
    let get k = Option.bind b (List.assoc_opt k) in
    let ok =
      match (r.Stream.cls, expect.(i), get "status") with
      | Stream.Hit, _, _ ->
          let orig = Option.get r.Stream.repeats in
          b <> None && b = body p.replies.(orig)
      | Stream.Budget, Err "cycle-budget", Some (Json.Str "error") ->
          get "code" = Some (Json.Str "cycle-budget")
      | (Stream.Cold | Stream.Resim), Ok_ e, Some (Json.Str "ok") ->
          let prints = List.map (fun p -> Json.Str p) e.prints in
          get "cycles" = Some (Json.Int e.cycles)
          && get "prints" = Some (Json.List prints)
          && e.prints = st.Stream.sources.(r.Stream.src).Stream.prints
      | _ -> false
    in
    let same = first.replies.(i) = p.replies.(i) in
    Report.check (ok && same) "request %d (%s %s p%d %s): %s" i
      (Stream.cls_name r.Stream.cls) st.Stream.sources.(r.Stream.src).Stream.fname
      r.Stream.nprocs r.Stream.policy
      (if ok then "reply differs from the first pass" else p.replies.(i))
  done;
  (* the daemon's own counters agree with the stream's classes *)
  let hits = Array.fold_left (fun s r -> if r.Stream.cls = Stream.Hit then s + 1 else s) 0 st.Stream.reqs in
  Report.check
    (int_field p.stats "sim_hits" = hits
    && int_field p.stats "sim_misses" = n - hits
    && int_field p.stats "compile_misses" = Array.length st.Stream.sources)
    "daemon counters: %s" (Json.to_string p.stats)

(* ---- the workload ------------------------------------------------ *)

(* Rates are medians over the passes, and latency percentiles pool every
   request of every pass. The work runs in the daemon on every CPU, so
   the times are scaled by one host speed for the whole run: the median
   of the probe samples taken on each CPU before the first pass and after
   every pass. Scaling each pass by the samples beside it spread the
   scaled figures more than the raw ones (16% against 5% over ten runs):
   the samples move over seconds in ways the daemon's work does not. *)
let run ~root ~scratch ~pfld ~seed ~seconds ~trace =
  let kernels = Kernels.load ~root in
  let compile = if trace then Compile.traced ~scratch else Compile.plain in
  let st, gen_ns = Clock.time (fun () -> Stream.generate ~compile ~kernels ~seed ~n:requests_per_pass) in
  Report.info "%s; generated in %.2f s" (Stream.summary st) (float gen_ns /. 1e9);
  let n = Array.length st.Stream.reqs in
  let splits = ref [] in
  let on_job i ~make_rt prog =
    if trace then
      match Split.job ~make_rt prog with
      | Error e -> Report.check false "request %d: recording run: %s" i e
      | Ok split -> splits := (i, split) :: !splits
  in
  let refs, refs_ns = Clock.time (fun () -> references st ~on_job) in
  Report.info "direct references in %.2f s" (float refs_ns /. 1e9);
  let rec expect i =
    match refs.directs.(i) with
    | Some d -> d.expect
    | None -> expect (Option.get st.Stream.reqs.(i).Stream.repeats)
  in
  let expect = Array.init n expect in
  let wire = Array.init n (fun i -> Stream.to_wire st i) in
  let images =
    List.sort_uniq compare
      (List.init n (fun i -> Proto.compile_key (Stream.run_req st i) ^ ".pfi"))
  in
  let simulated_accesses, simulated_cycles =
    Array.fold_left
      (fun (a, c) d ->
        match d with
        | Some { expect = Ok_ e; _ } -> (a + e.accesses, c + e.cycles)
        | _ -> (a, c))
      (0, 0) refs.directs
  in
  let probes = ref [] in
  let probe () =
    let ns = Probe.samples_on_cpus ~per_cpu:probes_per_cpu in
    probes := ns @ !probes;
    Stats.median ns /. 1e6
  in
  let start = Clock.now_ns () in
  ignore (probe ());
  let rec loop ~first acc k =
    let pass_start = Clock.now_ns () in
    let p = pass ~pfld ~scratch ~index:k ~images wire in
    let ms = Array.to_list (Array.map (fun ns -> float ns /. 1e6) p.latency_ns) in
    Report.info
      "pass: %.2f ms set-up, %.2f s, p50 %.2f ms, p99 %.2f ms unscaled; daemon peak RSS %.1f MB; \
       probe after %.2f ms"
      (float p.setup_ns /. 1e6) (float p.wall_ns /. 1e9) (Stats.percentile 50 ms)
      (Stats.percentile 99 ms) p.rss_mb (probe ());
    let first = Option.value first ~default:p in
    check_pass st expect p ~first;
    let acc = p :: acc in
    let more =
      k < min_passes - 1 || ((not trace) && Clock.another_pass ~start ~pass_start ~seconds)
    in
    if more then loop ~first:(Some first) acc (k + 1) else List.rev acc
  in
  let passes = loop ~first:None [] 0 in
  let probe = Stats.median !probes in
  let np = List.length passes in
  let med f = Stats.median (List.map f passes) in
  let secs p = float p.wall_ns /. 1e9 in
  (* every request's latency in every pass *)
  let lat_of sel =
    List.concat_map
      (fun p ->
        List.filteri (fun i _ -> sel i) (Array.to_list (Array.map (fun ns -> float ns /. 1e6) p.latency_ns)))
      passes
  in
  let lat = lat_of (fun _ -> true) in
  let nlat = List.length lat in
  if not trace then begin
    (* every time figure, with each pass's times read through [t] *)
    let figures t =
      let secs p = t p p.wall_ns /. 1e9 in
      let lat =
        List.concat_map (fun p -> Array.to_list (Array.map (fun ns -> t p ns /. 1e6) p.latency_ns)) passes
      in
      [
        ("setup_s", np, med (fun p -> t p p.setup_ns /. 1e9));
        ("sim_ns_per_access", np, med (fun p -> secs p *. 1e9 /. float simulated_accesses));
        ("sim_cycles_per_s", np, med (fun p -> float simulated_cycles /. secs p));
        ("req_per_s", np, med (fun p -> float n /. secs p));
        ("req_ms_p50", nlat, Stats.percentile 50 lat);
        ("req_ms_p99", nlat, Stats.percentile 99 lat);
      ]
    in
    List.iter2
      (fun (name, samples, raw) (_, _, v) ->
        Report.add ~samples ~raw name (List.assoc name End_to_end.names) v)
      (figures (fun _ ns -> float ns))
      (figures (fun _ ns -> Probe.scaled ns ~sample:probe));
    Report.add ~samples:np "peak_rss_mb" "MB" (med (fun p -> p.rss_mb))
  end
  else begin
    Layers.add_compile ();
    let last = List.nth passes (np - 1) in
    let stat k = int_field last.stats k in
    let compile_hits = stat "compile_hits" + stat "compile_disk_hits" in
    Layers.add "service.sim_hit_ratio"
      (Report.ratio (stat "sim_hits") (stat "sim_hits" + stat "sim_misses"));
    Layers.add "service.compile_hit_ratio"
      (Report.ratio compile_hits (compile_hits + stat "compile_misses"));
    Layers.add "service.requests_per_round" (Report.ratio (stat "requests") (stat "rounds"));
    (* per-layer figures are unscaled host times *)
    let raw_lat sel =
      List.concat_map
        (fun p ->
          List.filteri (fun i _ -> sel i) (Array.to_list (Array.map (fun ns -> float ns /. 1e6) p.latency_ns)))
        passes
    in
    let of_class c = raw_lat (fun i -> st.Stream.reqs.(i).Stream.cls = c) in
    List.iter
      (fun c ->
        let ms = of_class c in
        Layers.add ~samples:(List.length ms)
          (Printf.sprintf "service.%s_ms_p50" (Stream.cls_name c))
          (Stats.median ms))
      Stream.classes;
    (* client latency minus the compile and simulate time the same request
       costs when called directly *)
    let direct_ns i =
      let r = st.Stream.reqs.(i) in
      (match refs.directs.(i) with Some d -> d.make_rt_ns + d.run_ns | None -> 0)
      + if r.Stream.cls = Stream.Cold then refs.compile_ns.(r.Stream.src) else 0
    in
    let overhead =
      List.concat_map
        (fun p -> List.init n (fun i -> float (p.latency_ns.(i) - direct_ns i) /. 1e6))
        passes
    in
    Layers.add ~samples:nlat "service.overhead_ms_p50" (Stats.median overhead);
    (* the traced compile (layer by layer, with an image round trip)
       against the plain one, over the same sources *)
    let traced_ms =
      List.fold_left (fun s k -> s +. Spans.total_ms k) 0.
        [ "frontend.parse"; "sema.analyse"; "transform.pipeline"; "linker.objfile"; "linker.prelink";
          "linker.image_save"; "linker.image_load" ]
    in
    let plain_ms = float (Array.fold_left ( + ) 0 refs.compile_ns) /. 1e6 in
    Layers.add ~samples:(Array.length st.Stream.sources) "trace.overhead_frac"
      ((traced_ms /. plain_ms) -. 1.);
    let kernel_of fname =
      match List.find_opt (fun k -> String.starts_with ~prefix:(k ^ "-n") fname) Kernels.names with
      | Some k -> k
      | None -> "generated"
    in
    Layers.add_split ~table:false
      (List.rev_map
         (fun (i, split) ->
           let r = st.Stream.reqs.(i) and d = Option.get refs.directs.(i) in
           {
             Layers.kernel = kernel_of st.Stream.sources.(r.Stream.src).Stream.fname;
             label = Printf.sprintf "request %d" i;
             make_rt_ns = d.make_rt_ns;
             run_ns = d.run_ns;
             wall_ns = d.make_rt_ns + d.run_ns;
             split;
           })
         !splits);
    Layers.add "gc.minor_words_per_access" (Report.fratio refs.gc_minor_words (float simulated_accesses));
    Layers.add "gc.major_collections" (float refs.gc_major_collections);
    Layers.add_micro ()
  end;
  Report.info
    "%d passes, pass-to-pass spread %.1f%%; median probe %.3f ms; %d distinct simulations, %d \
     accesses, %d cycles"
    np
    (100. *. Stats.rel_iqr (List.map secs passes))
    (probe /. 1e6)
    (Array.fold_left (fun s d -> if d = None then s else s + 1) 0 refs.directs)
    simulated_accesses simulated_cycles
