(* What a run reports: named metrics with unit and sample count, and the
   attempted/failed tally every correctness check feeds. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  raw : float option;  (** a host-speed-scaled value's unscaled figure *)
}

let metrics : metric list ref = ref []

let add ?(samples = 1) ?raw name unit_ value =
  metrics := { name; value; unit_; samples; raw } :: !metrics

let attempted = ref 0
let failed = ref 0

(* [check ok fmt ...] counts one attempted operation, and a failure with
   its reason on stderr when [ok] is false. *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr failed;
        Printf.eprintf "perfbench: FAILED: %s\n%!" msg
      end)
    fmt

let info fmt = Printf.ksprintf (fun m -> Printf.eprintf "perfbench: %s\n%!" m) fmt

let ratio a b = if b = 0 then 0. else float a /. float b
let fratio a b = if b = 0. then 0. else a /. b
