(* Self-benchmark of the simulator: simulated-cycles-per-host-second on the
   transpose and LU kernels. This measures the tool, not the modelled
   machine — the cycle counts per run are deterministic, so cycles/sec is
   host wall-clock throughput of [Memsys.access] and the engine around it.

   Two families:
   - the original 1/8-proc hot-path kernels;
   - a scaling family at 16/32/64/128 simulated procs, showing how host
     cost per simulated cycle grows with the machine.

   Writes BENCH_simperf.json {kernel -> host seconds/run, sim cycles/run,
   cycles/sec} to seed the perf trajectory; compare the file across
   revisions of the simulator to see hot-path regressions. *)

module W = Workloads
module H = Harness
module Json = Harness.Json

let ppf = Format.std_formatter

type kernel = {
  name : string;
  prog : Ddsm_exec.Prog.t;
  setup : H.setup;
  nprocs : int;
  version : W.version;
}

let kernels ~quick =
  let t_n = if quick then 48 else 96 in
  let lu_n = if quick then 8 else 12 in
  [
    {
      name = Printf.sprintf "transpose(%d) reshaped, 8 procs" t_n;
      prog = H.compile (W.transpose ~n:t_n ~iters:2 W.Reshaped);
      setup = H.mk_setup ~machine_procs:8 ~factor:64 ~heap_words:(1 lsl 21) ();
      nprocs = 8;
      version = W.Reshaped;
    };
    {
      name = Printf.sprintf "transpose(%d) first-touch, 1 proc" t_n;
      prog = H.compile (W.transpose ~n:t_n ~iters:2 W.First_touch);
      setup = H.mk_setup ~machine_procs:8 ~factor:64 ~heap_words:(1 lsl 21) ();
      nprocs = 1;
      version = W.First_touch;
    };
    {
      name = Printf.sprintf "lu(%d) reshaped, 8 procs" lu_n;
      prog = H.compile (W.lu ~n:lu_n ~iters:2 W.Reshaped);
      setup = H.mk_setup ~machine_procs:8 ~factor:64 ~heap_words:(1 lsl 21) ();
      nprocs = 8;
      version = W.Reshaped;
    };
  ]

(* The large-machine family: the paper's Table 2 / Figs 4-7 machine sizes.
   Problem sizes grow with the machine so every processor owns work. *)
let scaling_kernels ~quick =
  let procs = if quick then [ 16; 128 ] else [ 16; 32; 64; 128 ] in
  let iters = if quick then 1 else 2 in
  List.concat_map
    (fun nprocs ->
      let t_n = max 64 nprocs in
      let lu_n = if quick then 8 else 12 in
      [
        {
          name = Printf.sprintf "transpose(%d) reshaped, %d procs" t_n nprocs;
          prog = H.compile (W.transpose ~n:t_n ~iters W.Reshaped);
          setup =
            H.mk_setup ~machine_procs:nprocs ~factor:64
              ~heap_words:(1 lsl 21) ();
          nprocs;
          version = W.Reshaped;
        };
        {
          name = Printf.sprintf "lu(%d) reshaped, %d procs" lu_n nprocs;
          prog = H.compile (W.lu ~n:lu_n ~iters W.Reshaped);
          setup =
            H.mk_setup ~machine_procs:nprocs ~factor:64
              ~heap_words:(1 lsl 21) ();
          nprocs;
          version = W.Reshaped;
        };
      ])
    procs

(* ns/run by bechamel's OLS estimator over the monotonic clock *)
let ns_per_run ~quota k =
  let open Bechamel in
  let open Toolkit in
  let test =
    Test.make ~name:k.name
      (Staged.stage (fun () ->
           ignore
             (H.run_prog ~setup:k.setup ~version:k.version ~nprocs:k.nprocs
                k.prog)))
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:100 ~quota:(Time.second quota) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"" [ test ]) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let est = ref nan in
  Hashtbl.iter
    (fun _ r ->
      match Analyze.OLS.estimates r with
      | Some [ e ] -> est := e
      | _ -> ())
    results;
  !est

(* one timed row: deterministic cycle/access counts, then host time *)
let measure ~quota k =
  let o = H.run_prog ~setup:k.setup ~version:k.version ~nprocs:k.nprocs k.prog in
  let cycles = o.Ddsm_core.Ddsm.Engine.cycles in
  let accesses =
    Ddsm_machine.Counters.accesses o.Ddsm_core.Ddsm.Engine.counters
  in
  let secs = ns_per_run ~quota k *. 1e-9 in
  let cps = float_of_int cycles /. secs in
  Format.fprintf ppf
    "  %-36s %10.4f s/run  %12d cycles  %11.3e cycles/s  %9.3e accesses/s@."
    k.name secs cycles cps
    (float_of_int accesses /. secs);
  Json.Obj
    [
      ("kernel", Json.Str k.name);
      ("nprocs", Json.Int k.nprocs);
      ("host_seconds_per_run", Json.Float secs);
      ("sim_cycles_per_run", Json.Int cycles);
      ("accesses_per_run", Json.Int accesses);
      ("cycles_per_host_second", Json.Float cps);
    ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let quota = if quick then 0.4 else 1.5 in
  Format.fprintf ppf "==== selfperf: simulated cycles per host second ====@.@.";
  let rows = List.map (measure ~quota) (kernels ~quick) in
  Format.fprintf ppf "@.==== scaling: 16..128 procs ====@.@.";
  let scaling_rows = List.map (measure ~quota) (scaling_kernels ~quick) in
  let open Json in
  H.write_json ppf ~path:"BENCH_simperf.json"
    (Obj
       [
         ("experiment", Str "simperf");
         ("quick", Bool quick);
         ("host_cores", Int (Domain.recommended_domain_count ()));
         ("kernels", List rows);
         ("scaling", List scaling_rows);
       ])
