(* pfld — the persistent compile-and-simulate daemon.

   One control thread owns the Unix-domain listen socket, every client
   connection, and both caches; worker domains (the Jobs pool) only run
   self-contained simulations, the same fan-out contract every sweep in
   this repo relies on. Scheduling is round-based:

     - the control thread drains readable sockets into per-client FIFO
       queues of parsed requests;
     - a round takes requests round-robin, one per client per sweep, so
       no client's batch can starve another's (a client that arrives
       while a round computes joins the very next round);
     - within a round, requests are deduplicated by simulate key: each
       distinct piece of work runs once on the Jobs pool, and every
       requester gets a byte-identical copy of the one reply;
     - every simulation runs under a cycle budget (the server cap,
       further lowered by the request's own max_cycles) enforced by the
       engine's watchdog/Diag machinery, so a hostile request ends in a
       structured "cycle-budget" error reply — the worker is not
       poisoned, because each job builds a fresh runtime.

   Failure replies carry the same Diag codes as the CLIs: [internal]
   false is the exit-2 class (user program errors, budget exhaustion),
   true the exit-3 class (simulator bugs). *)

module U = Unix
module Ddsm = Ddsm_core.Ddsm
module Diag = Ddsm_core.Ddsm.Diag
module Json = Ddsm_report.Json
module Jobs = Ddsm_util.Jobs
module Config = Ddsm_machine.Config
module Pagetable = Ddsm_machine.Pagetable

type config = {
  sock_path : string;
  workers : int;  (** Jobs-pool width for non-cached simulations *)
  cache_dir : string option;  (** persisted compile cache; None = memory *)
  budget : int;  (** per-request simulated-cycle cap; 0 = uncapped *)
  verbose : bool;
  handle_signals : bool;
      (** install SIGTERM/SIGINT handlers for clean shutdown — true in the
          pfld binary, false when embedded in tests/benches *)
}

let default_budget = 100_000_000

type client = {
  fd : U.file_descr;
  inbuf : Buffer.t;  (** bytes up to the last incomplete line *)
  mutable skipping : bool;
      (** the current line outgrew [Proto.max_line_bytes]: drop input up to
          its newline *)
  pending : Proto.run_req Queue.t;
  mutable alive : bool;
}

type t = {
  cfg : config;
  cache : Cache.t;
  lfd : U.file_descr;
  mutable clients : client list;  (** accept order — the round-robin order *)
  mutable stop : bool;
  mutable shutdown_ack : (client * int) option;
      (** acked only after the drain, so "ok" means "everything queued
          before the shutdown has been answered" *)
  mutable requests : int;
  mutable rounds : int;
}

(* ------------------------------------------------------------------ *)
(* Socket plumbing *)

let write_all c s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match U.write_substring c.fd s off (n - off) with
      | written -> go (off + written)
      | exception U.Unix_error ((U.EPIPE | U.ECONNRESET), _, _) ->
          c.alive <- false
  in
  if c.alive then go 0

let send c j = write_all c (Json.to_string j ^ "\n")

(* ------------------------------------------------------------------ *)
(* One simulation, self-contained (runs on a worker domain) *)

let config_of_machine ~machine ~nprocs =
  if machine = "origin" then Config.origin2000 ~nprocs
  else
    Scanf.sscanf machine "scaled:%d" (fun factor ->
        Config.scaled ~nprocs ~factor ())

let machine_of_string machine =
  if machine = "origin" then Ddsm.Origin2000
  else Scanf.sscanf machine "scaled:%d" (fun f -> Ddsm.Scaled f)

let policy_of_string = function
  | "round-robin" -> Pagetable.Round_robin
  | _ -> Pagetable.First_touch

let effective_budget cfg (r : Proto.run_req) =
  match (cfg.budget, r.max_cycles) with
  | 0, c -> c
  | b, None -> Some b
  | b, Some c -> Some (min b c)

let simulate cfg linked (r : Proto.run_req) =
  match Config.validate (config_of_machine ~machine:r.machine ~nprocs:r.nprocs) with
  | Error e -> Error (Diag.user ~phase:"config" e)
  | Ok () ->
      let prog = Ddsm.prog_of_linked linked in
      match
        Ddsm.make_rt
          ~machine:(machine_of_string r.machine)
          ~policy:(policy_of_string r.policy)
          ~heap_words:r.heap_words ~nprocs:r.nprocs ()
      with
      | exception Ddsm_runtime.Heap.Out_of_memory m ->
          Error (Diag.user ~phase:"config" m)
      | rt -> Ddsm.run prog ~rt ?max_cycles:(effective_budget cfg r) ()

let body_of_diag (d : Diag.t) =
  Proto.error_body ~code:(Diag.code d) ~phase:d.Diag.phase
    ~internal:(Diag.is_internal d) (Diag.to_string d)

(* ------------------------------------------------------------------ *)
(* Round scheduling *)

(* take up to [max_n] requests, one per client per sweep (round-robin) *)
let build_round t max_n =
  let round = ref [] in
  let count = ref 0 in
  let took = ref true in
  while !took && !count < max_n do
    took := false;
    List.iter
      (fun c ->
        if !count < max_n && c.alive && not (Queue.is_empty c.pending) then begin
          round := (c, Queue.pop c.pending) :: !round;
          took := true;
          incr count
        end)
      t.clients
  done;
  List.rev !round

let process_round t round =
  t.rounds <- t.rounds + 1;
  let cache = t.cache in
  (* resolve the sim cache; collect distinct uncached work in round order *)
  let work = ref [] (* (sim key, representative request), reversed *) in
  let entries =
    List.map
      (fun (c, (r : Proto.run_req)) ->
        let key = Proto.sim_key r in
        match Cache.find_sim cache ~key with
        | Some body ->
            cache.Cache.sim_hits <- cache.Cache.sim_hits + 1;
            (c, r, `Ready body)
        | None ->
            if List.mem_assoc key !work then
              (* a sibling in this round computes it: a hit, not a miss *)
              cache.Cache.sim_hits <- cache.Cache.sim_hits + 1
            else begin
              cache.Cache.sim_misses <- cache.Cache.sim_misses + 1;
              work := (key, r) :: !work
            end;
            (c, r, `Pending key))
      round
  in
  let work = List.rev !work in
  (* ensure every distinct compile key is compiled (control thread: the
     compiler pipeline is cheap next to simulation and not audited for
     domain-parallel use; simulations are where the Jobs pool pays off) *)
  let compiled = Hashtbl.create 8 in
  (* compile key -> (linked, diag-body) result *)
  List.iter
    (fun (_, (r : Proto.run_req)) ->
      let ckey = Proto.compile_key r in
      if not (Hashtbl.mem compiled ckey) then
        let outcome =
          match Cache.find_compiled cache ~key:ckey with
          | Some linked -> Ok linked
          | None -> (
              let flags = Proto.flags_of_off r.flags_off in
              match Ddsm.compile_source ~flags ~fname:r.fname r.source with
              | Error es ->
                  Error
                    (Proto.error_body ~code:"user" ~phase:"compile"
                       ~internal:false (String.concat "\n" es))
              | Ok obj -> (
                  match Ddsm.link [ obj ] with
                  | Error es ->
                      Error
                        (Proto.error_body ~code:"user" ~phase:"link"
                           ~internal:false (String.concat "\n" es))
                  | Ok (_, linked) ->
                      Cache.store_compiled cache ~key:ckey linked;
                      Ok linked))
        in
        Hashtbl.add compiled ckey outcome)
    work;
  (* fan the distinct simulations out over the Jobs pool; each job owns a
     fresh runtime, so results in work-list order are deterministic *)
  let results =
    Jobs.map ~jobs:t.cfg.workers
      (fun (_, (r : Proto.run_req)) ->
        match Hashtbl.find compiled (Proto.compile_key r) with
        | Error body -> body
        | Ok linked -> (
            match simulate t.cfg linked r with
            | Ok o ->
                Proto.ok_body ~cycles:o.Ddsm.Engine.cycles
                  ~prints:o.Ddsm.Engine.prints
            | Error d -> body_of_diag d))
      work
  in
  List.iter2
    (fun (key, _) body -> Cache.store_sim cache ~key body)
    work results;
  (* reply in round order — per client that is request order *)
  List.iter
    (fun (c, (r : Proto.run_req), res) ->
      let body =
        match res with
        | `Ready body -> body
        | `Pending key -> (
            match Cache.find_sim cache ~key with
            | Some body -> body
            | None -> assert false)
      in
      send c (Proto.reply ~id:r.Proto.id body))
    entries

(* ------------------------------------------------------------------ *)
(* Control loop *)

let stats_reply t ~id =
  Proto.reply ~id
    ([
       ("status", Json.Str "ok");
       ("requests", Json.Int t.requests);
       ("rounds", Json.Int t.rounds);
       ("workers", Json.Int t.cfg.workers);
     ]
    @ Cache.stats_fields t.cache)

let proto_error c msg =
  send c
    (Json.Obj
       (("id", Json.Null) :: Proto.error_body ~code:"user" ~phase:"proto" ~internal:false msg))

let handle_line t c line =
  let line = String.trim line in
  if line <> "" then
    match Proto.request_of_line line with
    | Error e -> proto_error c e
    | Ok (Proto.Run r) ->
        t.requests <- t.requests + 1;
        Queue.push r c.pending
    | Ok (Proto.Stats id) -> send c (stats_reply t ~id)
    | Ok (Proto.Ping id) ->
        send c (Proto.reply ~id [ ("status", Json.Str "ok") ])
    | Ok (Proto.Shutdown id) ->
        t.stop <- true;
        t.shutdown_ack <- Some (c, id)

let line_too_long c =
  proto_error c
    (Printf.sprintf "request line longer than %d bytes; discarded up to its newline"
       Proto.max_line_bytes);
  Buffer.reset c.inbuf

(* Only the newly read bytes are scanned for newlines, and a line is copied
   out once, when it completes: reading stays linear in the input. *)
let read_client t c =
  let bytes = Bytes.create 65536 in
  match U.read c.fd bytes 0 (Bytes.length bytes) with
  | 0 | (exception U.Unix_error (U.ECONNRESET, _, _)) ->
      c.alive <- false;
      (* a dead client's queued work is dropped: nobody can receive it *)
      Queue.clear c.pending;
      U.close c.fd
  | n ->
      let rec newline i = if i >= n || Bytes.get bytes i = '\n' then i else newline (i + 1) in
      let rec go start =
        let nl = newline start in
        let fits = Buffer.length c.inbuf + (nl - start) <= Proto.max_line_bytes in
        if nl < n then begin
          if c.skipping then c.skipping <- false
          else if not fits then line_too_long c
          else begin
            Buffer.add_subbytes c.inbuf bytes start (nl - start);
            let line = Buffer.contents c.inbuf in
            Buffer.clear c.inbuf;
            handle_line t c line
          end;
          go (nl + 1)
        end
        else if not c.skipping then
          if fits then Buffer.add_subbytes c.inbuf bytes start (nl - start)
          else begin
            line_too_long c;
            c.skipping <- true
          end
      in
      go 0

let log t fmt =
  Printf.ksprintf
    (fun m -> if t.cfg.verbose then Printf.eprintf "pfld: %s\n%!" m)
    fmt

let create cfg =
  if Sys.file_exists cfg.sock_path then Sys.remove cfg.sock_path;
  let lfd = U.socket U.PF_UNIX U.SOCK_STREAM 0 in
  U.bind lfd (U.ADDR_UNIX cfg.sock_path);
  U.listen lfd 64;
  {
    cfg;
    cache = Cache.create ?dir:cfg.cache_dir ();
    lfd;
    clients = [];
    stop = false;
    shutdown_ack = None;
    requests = 0;
    rounds = 0;
  }

let serve cfg =
  let t = create cfg in
  let restore = ref [] in
  let install signal behavior =
    match Sys.signal signal behavior with
    | old -> restore := (signal, old) :: !restore
    | exception (Invalid_argument _ | Sys_error _) -> ()
  in
  (* writes to a vanished client must surface as EPIPE, not kill us *)
  install Sys.sigpipe Sys.Signal_ignore;
  if cfg.handle_signals then begin
    let on_stop = Sys.Signal_handle (fun _ -> t.stop <- true) in
    install Sys.sigterm on_stop;
    install Sys.sigint on_stop
  end;
  log t "listening on %s (workers %d, budget %s, cache %s)" cfg.sock_path
    cfg.workers
    (if cfg.budget = 0 then "uncapped" else string_of_int cfg.budget)
    (match cfg.cache_dir with None -> "memory-only" | Some d -> d);
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> if c.alive then U.close c.fd) t.clients;
      U.close t.lfd;
      (try Sys.remove cfg.sock_path with Sys_error _ -> ());
      List.iter (fun (s, b) -> ignore (Sys.signal s b)) !restore;
      log t "served %d request(s) in %d round(s): %d sim hit(s), %d miss(es)"
        t.requests t.rounds t.cache.Cache.sim_hits t.cache.Cache.sim_misses)
    (fun () ->
      while not t.stop do
        let fds =
          t.lfd :: List.filter_map (fun c -> if c.alive then Some c.fd else None) t.clients
        in
        let backlog =
          List.exists (fun c -> not (Queue.is_empty c.pending)) t.clients
        in
        (* with a backlog, only poll for new arrivals between rounds *)
        (match U.select fds [] [] (if backlog then 0.0 else 0.2) with
        | exception U.Unix_error (U.EINTR, _, _) -> ()
        | ready, _, _ ->
            List.iter
              (fun fd ->
                if fd == t.lfd then begin
                  let cfd, _ = U.accept t.lfd in
                  t.clients <-
                    t.clients
                    @ [
                        {
                          fd = cfd;
                          inbuf = Buffer.create 256;
                          skipping = false;
                          pending = Queue.create ();
                          alive = true;
                        };
                      ];
                  log t "client connected (%d live)" (List.length t.clients)
                end
                else
                  match
                    List.find_opt (fun c -> c.fd == fd && c.alive) t.clients
                  with
                  | Some c -> read_client t c
                  | None -> ())
              ready);
        t.clients <- List.filter (fun c -> c.alive) t.clients;
        (* one fair round per wakeup keeps newly-arrived clients from
           waiting behind a long backlog *)
        let round = build_round t (max 1 (t.cfg.workers * 4)) in
        if round <> [] then process_round t round
      done;
      (* drain: a shutdown (op or signal) still answers everything already
         queued before the daemon goes away *)
      let rec drain () =
        match build_round t (max 1 (t.cfg.workers * 4)) with
        | [] -> ()
        | round ->
            process_round t round;
            drain ()
      in
      drain ();
      match t.shutdown_ack with
      | Some (c, id) -> send c (Proto.reply ~id [ ("status", Json.Str "ok") ])
      | None -> ())
