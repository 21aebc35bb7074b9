(* The pfld wire protocol: one JSON object per line in each direction.

   Requests:
     {"op":"run","id":N,"source":"...",...}   compile + simulate
     {"op":"stats","id":N}                    cache/scheduling counters
     {"op":"ping","id":N}                     liveness probe
     {"op":"shutdown","id":N}                 drain and stop the daemon

   Run replies deliberately carry no cache/timing metadata — a cached
   reply is byte-identical to the reply computed cold, and both match the
   one-shot [pflrun] output for the same program and configuration. Hit
   rates are observable through the [stats] op instead.

   Cache keys are content-addressed digests: the compile key covers the
   program source and the optimization flags; the simulate key adds the
   machine configuration. The display name ([fname]) is deliberately NOT
   part of either key, so identical programs submitted under different
   names share one compilation. *)

module Json = Ddsm_report.Json
module Flags = Ddsm_transform.Flags

type run_req = {
  id : int;
  source : string;
  fname : string;  (** display name for compile diagnostics, not keyed *)
  nprocs : int;
  policy : string;  (** canonical: "first-touch" or "round-robin" *)
  machine : string;  (** canonical: "origin" or "scaled:<factor>" *)
  heap_words : int;
  max_cycles : int option;  (** request's own budget; the server caps it *)
  flags_off : string list;  (** canonical (sorted, deduped) disabled passes *)
}

type request = Run of run_req | Stats of int | Ping of int | Shutdown of int

(* ------------------------------------------------------------------ *)
(* Field accessors over a parsed JSON object *)

let field obj k =
  match obj with Json.Obj fs -> List.assoc_opt k fs | _ -> None

let str_field obj k =
  match field obj k with Some (Json.Str s) -> Some s | _ -> None

let int_field obj k =
  match field obj k with Some (Json.Int i) -> Some i | _ -> None

(* ------------------------------------------------------------------ *)
(* Validation: canonicalize the same spellings the pflrun CLI accepts *)

let canon_policy = function
  | "first-touch" | "ft" -> Ok "first-touch"
  | "round-robin" | "rr" -> Ok "round-robin"
  | s -> Error (Printf.sprintf "unknown policy %S (first-touch|round-robin)" s)

let canon_machine s =
  if s = "origin" then Ok "origin"
  else
    match Scanf.sscanf_opt s "scaled:%d%!" (fun f -> f) with
    | Some f when f >= 1 -> Ok (Printf.sprintf "scaled:%d" f)
    | _ -> Error (Printf.sprintf "unknown machine %S (origin|scaled:<factor>)" s)

let flag_names =
  [ "tile"; "peel"; "skew"; "hoist"; "cse"; "fp-divmod"; "interchange";
    "inspector" ]

let canon_flags_off off =
  match List.find_opt (fun f -> not (List.mem f flag_names)) off with
  | Some bad ->
      Error
        (Printf.sprintf "unknown optimization flag %S (%s)" bad
           (String.concat "|" flag_names))
  | None -> Ok (List.sort_uniq compare off)

let flags_of_off off =
  List.fold_left
    (fun f name ->
      match name with
      | "tile" -> { f with Flags.tile = false }
      | "peel" -> { f with Flags.peel = false }
      | "skew" -> { f with Flags.skew = false }
      | "hoist" -> { f with Flags.hoist = false }
      | "cse" -> { f with Flags.cse = false }
      | "fp-divmod" -> { f with Flags.fp_divmod = false }
      | "interchange" -> { f with Flags.interchange = false }
      | "inspector" -> { f with Flags.inspector = false }
      | _ -> f)
    Flags.all_on off

(* ------------------------------------------------------------------ *)
(* Parsing a request line *)

(* Longest request line the daemon buffers (16 MiB, newline excluded). A
   longer line is answered with one proto error and discarded up to its
   newline, so a client that never sends one cannot grow the daemon's
   input buffer without limit. *)
let max_line_bytes = 1 lsl 24

let run_of_json j =
  let ( let* ) = Result.bind in
  let* id =
    match int_field j "id" with
    | Some i -> Ok i
    | None -> Error "run request: missing integer \"id\""
  in
  let* source =
    match str_field j "source" with
    | Some s -> Ok s
    | None -> Error "run request: missing string \"source\""
  in
  let fname = Option.value (str_field j "fname") ~default:"<service>" in
  let* nprocs =
    match (field j "nprocs", int_field j "nprocs") with
    | None, _ -> Ok 8
    | Some _, Some n when n >= 1 -> Ok n
    | Some _, _ -> Error "run request: \"nprocs\" must be a positive integer"
  in
  let* policy =
    canon_policy (Option.value (str_field j "policy") ~default:"first-touch")
  in
  let* machine =
    canon_machine (Option.value (str_field j "machine") ~default:"scaled:64")
  in
  let* heap_words =
    match (field j "heap_words", int_field j "heap_words") with
    | None, _ -> Ok (1 lsl 24)
    | Some _, Some n when n >= 1 && n <= Ddsm_runtime.Heap.max_words -> Ok n
    | Some _, _ ->
        Error
          (Printf.sprintf
             "run request: \"heap_words\" must be an integer in [1, %d]"
             Ddsm_runtime.Heap.max_words)
  in
  let* max_cycles =
    match (field j "max_cycles", int_field j "max_cycles") with
    | None, _ -> Ok None
    | Some _, Some n when n >= 1 -> Ok (Some n)
    | Some _, _ ->
        Error "run request: \"max_cycles\" must be a positive integer"
  in
  let* flags_off =
    match field j "flags_off" with
    | None -> Ok []
    | Some (Json.List xs) ->
        let* names =
          List.fold_left
            (fun acc x ->
              let* acc = acc in
              match x with
              | Json.Str s -> Ok (s :: acc)
              | _ -> Error "run request: \"flags_off\" must be strings")
            (Ok []) xs
        in
        canon_flags_off (List.rev names)
    | Some _ -> Error "run request: \"flags_off\" must be a list of strings"
  in
  Ok
    (Run
       {
         id; source; fname; nprocs; policy; machine; heap_words; max_cycles;
         flags_off;
       })

let request_of_line line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok j -> (
      let id = Option.value (int_field j "id") ~default:0 in
      match str_field j "op" with
      | Some "run" -> run_of_json j
      | Some "stats" -> Ok (Stats id)
      | Some "ping" -> Ok (Ping id)
      | Some "shutdown" -> Ok (Shutdown id)
      | Some op -> Error (Printf.sprintf "unknown op %S" op)
      | None -> Error "missing string \"op\"")

let run_to_json r =
  let base =
    [
      ("op", Json.Str "run");
      ("id", Json.Int r.id);
      ("source", Json.Str r.source);
      ("fname", Json.Str r.fname);
      ("nprocs", Json.Int r.nprocs);
      ("policy", Json.Str r.policy);
      ("machine", Json.Str r.machine);
      ("heap_words", Json.Int r.heap_words);
    ]
  in
  let cycles =
    match r.max_cycles with
    | None -> []
    | Some c -> [ ("max_cycles", Json.Int c) ]
  in
  let flags =
    match r.flags_off with
    | [] -> []
    | off -> [ ("flags_off", Json.List (List.map (fun f -> Json.Str f) off)) ]
  in
  Json.Obj (base @ cycles @ flags)

(* ------------------------------------------------------------------ *)
(* Content-addressed cache keys *)

let digest_of parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let compile_key r = digest_of (("compile" :: r.source :: r.flags_off))

let sim_key r =
  digest_of
    [
      "sim"; compile_key r; string_of_int r.nprocs; r.policy; r.machine;
      string_of_int r.heap_words;
      (match r.max_cycles with None -> "-" | Some c -> string_of_int c);
    ]

(* ------------------------------------------------------------------ *)
(* Replies. Bodies are id-less field lists so the daemon can memoize one
   body and stamp each requester's id on the way out; field order is
   fixed, which keeps identical requests byte-identical on the wire. *)

let ok_body ~cycles ~prints =
  [
    ("status", Json.Str "ok");
    ("cycles", Json.Int cycles);
    ("prints", Json.List (List.map (fun p -> Json.Str p) prints));
  ]

let error_body ~code ~phase ~internal msg =
  [
    ("status", Json.Str "error");
    ("code", Json.Str code);
    ("phase", Json.Str phase);
    ("internal", Json.Bool internal);
    ("error", Json.Str msg);
  ]

let reply ~id body = Json.Obj (("id", Json.Int id) :: body)
