(* Service throughput benchmark: the pfld daemon against a 50-request
   batch (10 distinct programs x 5 processor counts) at 1/2/4 workers
   (the worker count sets only the round width: up to 4N requests).

   Each worker count gets a fresh in-process daemon (Domain.spawn of
   Service.serve, signals left to the harness). The batch is replayed
   twice over one connection:

     cold — every simulate key misses: 10 compiles + 50 simulations;
     warm — the same 50 requests again: pure cache lookups.

   Gates ([ok]/[MISS] lines, nonzero exit on a miss):
     - warm hit rate > 0.9 on the repeated batch (it should be 1.0);
     - warm replay finishes in < half the cold time (cached request
       latency << cold compile+simulate);
     - warm replies byte-identical to the cold ones;
     - a daemon restarted on the same cache directory compiles nothing
       (the persisted-image warm start).

   Snapshot: BENCH_service.json. *)

module H = Harness
module Service = Ddsm_service.Service
module Client = Ddsm_service.Client
module Proto = Ddsm_service.Proto
module Json = Ddsm_report.Json

let ppf = Format.std_formatter
let section title = Format.fprintf ppf "@.==== %s ====@.@." title

(* ------------------------------------------------------------------ *)
(* The batch: 10 distinct reduction kernels, each at 5 processor counts *)

let mk_src i =
  Printf.sprintf
    "      program p%d\n\
    \      integer n, i\n\
    \      parameter (n = %d)\n\
    \      real*8 a(n), s\n\
     c$distribute a(block)\n\
     c$doacross local(i) affinity(i) = data(a(i))\n\
    \      do i = 1, n\n\
    \        a(i) = i + %d\n\
    \      enddo\n\
    \      s = 0.0\n\
    \      do i = 1, n\n\
    \        s = s + a(i)\n\
    \      enddo\n\
    \      print *, 'sum =', s\n\
    \      end\n"
    i
    (48 + (8 * i))
    i

let nprocs_sweep = [ 1; 2; 4; 8; 16 ]

let batch =
  List.concat
    (List.init 10 (fun i ->
         List.map
           (fun nprocs ->
             {
               Proto.id = 0 (* stamped below *);
               source = mk_src i;
               fname = Printf.sprintf "p%d.pf" i;
               nprocs;
               policy = "first-touch";
               machine = "scaled:64";
               heap_words = 1 lsl 20;
               max_cycles = None;
               flags_off = [];
             })
           nprocs_sweep))
  |> List.mapi (fun k r -> { r with Proto.id = k + 1 })

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle (in-process, like the unit tests) *)

let svc_ctr = ref 0

let with_service ?cache_dir ~workers f =
  incr svc_ctr;
  let sock = Printf.sprintf "bsvc-%d-%d.sock" (Unix.getpid ()) !svc_ctr in
  let cfg =
    {
      Service.sock_path = sock; workers; cache_dir; budget = 0;
      verbose = false; handle_signals = false;
    }
  in
  let d = Domain.spawn (fun () -> Service.serve cfg) in
  let rec conn tries =
    match Client.connect ~sock with
    | Ok c -> c
    | Error e ->
        if tries = 0 then failwith e
        else (
          Unix.sleepf 0.01;
          conn (tries - 1))
  in
  let c = conn 500 in
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Client.rpc c
           (Json.Obj [ ("op", Json.Str "shutdown"); ("id", Json.Int 0) ]));
      Client.close c;
      Domain.join d)
    (fun () -> f c)

let stat j k =
  match Proto.int_field j k with
  | Some v -> v
  | None -> failwith ("stats reply missing " ^ k)

let stats c =
  match
    Client.rpc c (Json.Obj [ ("op", Json.Str "stats"); ("id", Json.Int 0) ])
  with
  | Ok j -> j
  | Error e -> failwith e

(* send the whole batch, then collect one reply line per request *)
let replay c =
  let t0 = Unix.gettimeofday () in
  List.iter (fun r -> Client.send c (Proto.run_to_json r)) batch;
  let lines =
    List.map
      (fun _ ->
        match Client.recv_line c with Ok l -> l | Error e -> failwith e)
      batch
  in
  (Unix.gettimeofday () -. t0, lines)

type leg = {
  workers : int;
  cold_s : float;
  warm_s : float;
  warm_hit_rate : float;
  identical : bool;
  compile_misses : int;
  sim_misses : int;
}

let run_leg ~workers =
  with_service ~workers (fun c ->
      let cold_s, cold = replay c in
      let s1 = stats c in
      let warm_s, warm = replay c in
      let s2 = stats c in
      let nreq = List.length batch in
      let warm_hits = stat s2 "sim_hits" - stat s1 "sim_hits" in
      let leg =
        {
          workers;
          cold_s;
          warm_s;
          warm_hit_rate = float_of_int warm_hits /. float_of_int nreq;
          identical = cold = warm;
          compile_misses = stat s2 "compile_misses";
          sim_misses = stat s2 "sim_misses";
        }
      in
      Format.fprintf ppf
        "  %d worker(s): cold %5.2fs (%6.1f req/s)  warm %5.2fs (%6.1f \
         req/s)  hit rate %.2f@."
        workers cold_s
        (float_of_int nreq /. cold_s)
        warm_s
        (float_of_int nreq /. warm_s)
        leg.warm_hit_rate;
      leg)

(* restart on a shared cache directory: the second life must compile
   nothing — its compile cache warm-starts from the persisted images *)
let run_restart_leg () =
  let dir = Printf.sprintf "bsvc-cache-%d" (Unix.getpid ()) in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  cleanup ();
  Fun.protect ~finally:cleanup (fun () ->
      let life () =
        with_service ~cache_dir:dir ~workers:1 (fun c ->
            let _, lines = replay c in
            (lines, stats c))
      in
      let first, s1 = life () in
      let second, s2 = life () in
      ( first = second,
        stat s1 "compile_misses",
        stat s2 "compile_misses",
        stat s2 "compile_disk_hits" ))

let () =
  section "pfld: requests/s and cache hit rate, cold vs. warm batch";
  let legs = List.map (fun workers -> run_leg ~workers) [ 1; 2; 4 ] in
  let identical_restart, cold_compiles, warm_compiles, disk_hits =
    run_restart_leg ()
  in
  Format.fprintf ppf
    "  restart: %d compile(s) cold, %d warm (%d image(s) from disk)@.@."
    cold_compiles warm_compiles disk_hits;
  let ok =
    List.concat_map
      (fun l ->
        let hit =
          H.check ppf
            (Printf.sprintf "%d worker(s): warm hit rate > 0.9 (got %.2f)"
               l.workers l.warm_hit_rate)
            (l.warm_hit_rate > 0.9)
        in
        let fast =
          H.check ppf
            (Printf.sprintf
               "%d worker(s): warm replay < half the cold time (%.2fs vs %.2fs)"
               l.workers l.warm_s l.cold_s)
            (l.warm_s < l.cold_s /. 2.0)
        in
        let same =
          H.check ppf
            (Printf.sprintf "%d worker(s): warm replies byte-identical"
               l.workers)
            l.identical
        in
        [ hit; fast; same ])
      legs
  in
  let restart_ok =
    H.check ppf "restart on the cache dir compiles nothing"
      (warm_compiles = 0 && disk_hits > 0)
  in
  let restart_same = H.check ppf "restart replies byte-identical" identical_restart in
  let ok = ok @ [ restart_ok; restart_same ] in
  let open Json in
  H.write_json ppf ~path:"BENCH_service.json"
    (Obj
       [
         ("experiment", Str "service");
         ("batch_requests", Int (List.length batch));
         ("distinct_programs", Int 10);
         ( "legs",
           List
             (List.map
                (fun l ->
                  Obj
                    [
                      ("workers", Int l.workers);
                      ("cold_s", Float l.cold_s);
                      ("warm_s", Float l.warm_s);
                      ( "cold_rps",
                        Float (float_of_int (List.length batch) /. l.cold_s) );
                      ( "warm_rps",
                        Float (float_of_int (List.length batch) /. l.warm_s) );
                      ("warm_hit_rate", Float l.warm_hit_rate);
                      ("compile_misses", Int l.compile_misses);
                      ("sim_misses", Int l.sim_misses);
                    ])
                legs) );
         ( "restart",
           Obj
             [
               ("cold_compiles", Int cold_compiles);
               ("warm_compiles", Int warm_compiles);
               ("disk_hits", Int disk_hits);
             ] );
       ]);
  if not (List.for_all Fun.id ok) then exit 1
