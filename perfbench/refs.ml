(* References every simulated result is checked against: the reference
   interpreter's prints, and the table of simulated cycles, counters and
   prints pinned in [pinned.json]. Simulated statistics are independent of
   the host, so a change that only makes the simulator faster leaves every
   pinned value identical. *)

module Ddsm = Ddsm_core.Ddsm
module Json = Ddsm_report.Json
module Counters = Ddsm_machine.Counters
module Interp = Ddsm_fuzz.Interp

(* The reference interpreter's prints for a single-file program, or the
   reason it cannot give them. *)
let interp_prints ~fname src =
  match Ddsm.parse ~fname src with
  | Error e -> Error ("parse: " ^ e)
  | Ok file -> (
      match Ddsm_sema.Sema.analyse_file file with
      | Error es -> Error ("sema: " ^ String.concat "; " es)
      | Ok envs -> (
          match Interp.run ~budget:20_000_000 [ (fname, envs) ] with
          | Ok img -> Ok img.Interp.prints
          | Error Interp.F_timeout -> Error "interpreter: step budget"
          | Error (Interp.F_user m) -> Error ("interpreter: " ^ m)
          | Error (Interp.F_unsupported m) -> Error ("interpreter: unsupported " ^ m)))

(* What a job's pinned entry records. *)
type result = {
  cycles : int;
  accesses : int;
  prints : string list;
  counters : (string * int) list;
  false_sharing : int option;  (** observed jobs only *)
}

let of_outcome ?false_sharing (o : Ddsm.Engine.outcome) =
  {
    cycles = o.Ddsm.Engine.cycles;
    accesses = Counters.accesses o.Ddsm.Engine.counters;
    prints = o.Ddsm.Engine.prints;
    counters = Counters.to_assoc o.Ddsm.Engine.counters;
    false_sharing;
  }

let to_json r =
  Json.Obj
    ([
       ("cycles", Json.Int r.cycles);
       ("accesses", Json.Int r.accesses);
       ("prints", Json.List (List.map (fun p -> Json.Str p) r.prints));
       ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters));
     ]
    @
    match r.false_sharing with
    | None -> []
    | Some n -> [ ("false_sharing", Json.Int n) ])

let field j k = match j with Json.Obj fs -> List.assoc_opt k fs | _ -> None

let of_json j =
  let int k = match field j k with Some (Json.Int i) -> i | _ -> failwith k in
  {
    cycles = int "cycles";
    accesses = int "accesses";
    prints =
      (match field j "prints" with
      | Some (Json.List ps) ->
          List.map (function Json.Str s -> s | _ -> failwith "prints") ps
      | _ -> failwith "prints");
    counters =
      (match field j "counters" with
      | Some (Json.Obj fs) ->
          List.map (function k, Json.Int v -> (k, v) | _ -> failwith "counters") fs
      | _ -> failwith "counters");
    false_sharing =
      (match field j "false_sharing" with Some (Json.Int n) -> Some n | _ -> None);
  }

let pinned_path ~root = Filename.concat root "perfbench/pinned.json"

(* job key -> pinned result *)
let load_pinned ~root =
  match Json.of_string (Kernels.read_file (pinned_path ~root)) with
  | Error e -> failwith ("pinned.json: " ^ e)
  | Ok (Json.Obj jobs) -> List.map (fun (k, j) -> (k, of_json j)) jobs
  | Ok _ -> failwith "pinned.json: expected an object"

(* The first difference between a result and its pinned entry, if any.
   [false_sharing] is compared only when the pinned entry records it and
   the result observed it. *)
let diff ~pinned r =
  if r.cycles <> pinned.cycles then
    Some (Printf.sprintf "cycles %d, pinned %d" r.cycles pinned.cycles)
  else if r.prints <> pinned.prints then Some "prints differ from pinned"
  else if r.counters <> pinned.counters then Some "counters differ from pinned"
  else if r.accesses <> pinned.accesses then Some "accesses differ from pinned"
  else
    match (r.false_sharing, pinned.false_sharing) with
    | Some a, Some b when a <> b ->
        Some (Printf.sprintf "%d false-sharing pairs, pinned %d" a b)
    | Some _, None -> Some "no pinned false-sharing count"
    | _ -> None
