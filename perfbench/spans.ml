(* Spans recorded around the benchmark's calls into each layer's public
   functions (traced runs only): per name, the summed host time and the
   number of calls, kept in memory until the run prints its metrics. *)

let table : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 32

let add name ns =
  match Hashtbl.find_opt table name with
  | Some (t, n) ->
      t := !t + ns;
      incr n
  | None -> Hashtbl.add table name (ref ns, ref 1)

let span name f =
  let t0 = Clock.now_ns () in
  Fun.protect ~finally:(fun () -> add name (Clock.now_ns () - t0)) f

let total_ns name =
  match Hashtbl.find_opt table name with Some (t, _) -> !t | None -> 0

let calls name =
  match Hashtbl.find_opt table name with Some (_, n) -> !n | None -> 0

let total_ms name = float (total_ns name) /. 1e6
