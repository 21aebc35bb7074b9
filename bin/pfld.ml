(* pfld — persistent compile-and-simulate daemon (ROADMAP item 4).

   Accepts line-framed JSON batches of {program source, machine config,
   placement policy, flags} requests on a Unix-domain socket, memoizes
   compilation and simulation behind content-addressed caches, and
   schedules non-cached work over the Jobs domain pool with fair
   round-robin queueing and per-request cycle budgets. See DESIGN.md §13.

   Exit codes match the other CLIs: 0 clean shutdown (SIGTERM/SIGINT or a
   shutdown request), 1 usage/IO (socket path unusable), 2 user error
   (malformed DDSM_JOBS, bad --workers), 3 internal failure. *)

open Cmdliner
module Service = Ddsm_service.Service
module Diag = Ddsm_core.Ddsm.Diag

let fail_user m =
  Printf.eprintf "runtime error: %s\n" (Diag.to_string (Diag.user ~phase:"env" m));
  exit 2

let run sock workers cache_dir no_cache budget verbose =
  let cfg =
    {
      Service.sock_path = sock;
      workers;
      cache_dir = (if no_cache then None else Some cache_dir);
      budget;
      verbose;
      handle_signals = true;
    }
  in
  match Service.serve cfg with
  | () -> ()
  | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "pfld: %s: %s (%s)\n" fn (Unix.error_message e) arg;
      exit 1
  | exception Sys_error m ->
      Printf.eprintf "pfld: %s\n" m;
      exit 1

let () =
  (* the Jobs-pool default comes from DDSM_JOBS: user input, so a
     malformed value is a diagnosed exit-2 error, never an exception *)
  let default_workers =
    match Ddsm_util.Jobs.default_jobs () with
    | Ok n -> n
    | Error e -> fail_user e
  in
  let sock =
    Arg.(
      value & opt string "pfld.sock"
      & info [ "s"; "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket path to listen on.")
  in
  let workers =
    Arg.(
      value & opt int default_workers
      & info [ "w"; "workers" ] ~docv:"N"
          ~doc:
            "Simulate up to N non-cached requests in parallel on the Jobs \
             domain pool (default from $(b,DDSM_JOBS), else 1).")
  in
  let cache_dir =
    Arg.(
      value & opt string ".pfld-cache"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for the persisted compile cache (content-addressed \
             hardened images, written atomically); created if missing. A \
             restarted daemon warm-starts from it.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache-dir" ] ~doc:"Keep the compile cache in memory only.")
  in
  let budget =
    Arg.(
      value & opt int Service.default_budget
      & info [ "budget" ] ~docv:"CYCLES"
          ~doc:
            "Per-request simulated-cycle budget (0 = uncapped). A request \
             may lower it with its own $(b,max_cycles); exceeding it yields \
             a structured cycle-budget error reply, and the worker survives.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log connections and shutdown stats.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "pfld" ~version:"1.0"
         ~doc:
           "Persistent compile-and-simulate service with content-addressed \
            caching. Speak the line-framed JSON protocol on the socket, or \
            use $(b,pflrun --connect).")
      Term.(const run $ sock $ workers $ cache_dir $ no_cache $ budget $ verbose)
  in
  (* cmdliner's CLI-error exit (124) becomes the documented usage exit 1 *)
  exit (match Cmd.eval cmd with c when c = Cmd.Exit.cli_error -> 1 | c -> c)
