(* Host-time split of one simulation job, from outside the program:
   elaborate alone on a fresh runtime; run once with a Memsys probe that
   records every access (processor, address, kind, clock, latency,
   outcome); then replay the recorded stream through [Memsys.access] on a
   freshly elaborated runtime, once as a whole and once with every access
   bracketed by the clock to split it by outcome.

   The replay reproduces the run's machine time only when nothing but
   [access] changed the machine mid-run. Jobs that migrate pages or
   allocate gather scratch during the run do not reproduce; [exact] says
   which case holds, by comparing every replayed latency with the recorded
   one. *)

module Ddsm = Ddsm_core.Ddsm
module Memsys = Ddsm_machine.Memsys
module Engine = Ddsm_exec.Engine
module Rt = Ddsm_runtime.Rt

let class_names = [| "l1_hit"; "local_fill"; "remote_fill"; "coherence" |]

(* Outcome of one access, most expensive cause first; [l1_hit] is every
   access served by a cache (L1 or L2) without a fill. *)
let class_of (ev : Memsys.access_event) =
  if ev.Memsys.ev_coherence > 0 then 3
  else if ev.Memsys.ev_remote > 0 then 2
  else if ev.Memsys.ev_local > 0 then 1
  else 0

let latency (ev : Memsys.access_event) =
  ev.Memsys.ev_tlb + ev.Memsys.ev_hit + ev.Memsys.ev_local + ev.Memsys.ev_remote
  + ev.Memsys.ev_contention + ev.Memsys.ev_coherence

type t = {
  accesses : int;
  elaborate_ns : int;
  replay_ns : int;  (** the whole replay loop *)
  exact : bool;  (** every replayed latency equals the recorded one *)
  class_ns : float array;  (** per outcome, clock cost removed *)
  class_count : int array;
}

(* Growable record of 4 ints per access:
   [proc lsl 3 lor class lsl 1 lor write], address, clock, latency. *)
type stream = { mutable a : int array; mutable n : int }

let push s x =
  if s.n = Array.length s.a then begin
    let b = Array.make ((2 * s.n) + 4096) 0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

(* Cost of one bracketing pair of clock reads, taken as their mean. *)
let clock_overhead_ns =
  lazy
    (let n = 200_000 in
     let sum = ref 0 in
     for _ = 1 to n do
       let t0 = Clock.now_ns () in
       sum := !sum + (Clock.now_ns () - t0)
     done;
     float !sum /. float n)

let record prog ~rt =
  let s = { a = [||]; n = 0 } in
  let mem = rt.Rt.mem in
  Memsys.set_probe mem
    (Some
       (fun ev ->
         push s
           ((ev.Memsys.ev_proc lsl 3) lor (class_of ev lsl 1)
           lor if ev.Memsys.ev_write then 1 else 0);
         push s ev.Memsys.ev_addr;
         push s ev.Memsys.ev_now;
         push s (latency ev)));
  let r = Fun.protect ~finally:(fun () -> Memsys.set_probe mem None) (fun () -> Ddsm.run prog ~rt ()) in
  (r, s)

let fresh prog make_rt =
  let rt = make_rt () in
  Engine.elaborate prog ~rt;
  rt.Rt.mem

let job ~make_rt prog =
  let elaborate_ns = snd (Clock.time (fun () -> Engine.elaborate prog ~rt:(make_rt ()))) in
  match record prog ~rt:(make_rt ()) with
  | Error d, _ -> Error (Ddsm.Diag.to_string d)
  | Ok _, s ->
      let a = s.a and accesses = s.n / 4 in
      let mem = fresh prog make_rt in
      let mismatches = ref 0 in
      let t0 = Clock.now_ns () in
      for i = 0 to accesses - 1 do
        let p = a.(4 * i) in
        let lat =
          Memsys.access mem ~proc:(p lsr 3) ~addr:a.((4 * i) + 1)
            ~write:(p land 1 = 1) ~now:a.((4 * i) + 2)
        in
        if lat <> a.((4 * i) + 3) then incr mismatches
      done;
      let replay_ns = Clock.now_ns () - t0 in
      let mem = fresh prog make_rt in
      let class_sum = Array.make 4 0 and class_count = Array.make 4 0 in
      for i = 0 to accesses - 1 do
        let p = a.(4 * i) in
        let t0 = Clock.now_ns () in
        ignore
          (Memsys.access mem ~proc:(p lsr 3) ~addr:a.((4 * i) + 1)
             ~write:(p land 1 = 1) ~now:a.((4 * i) + 2));
        let dt = Clock.now_ns () - t0 in
        let c = (p lsr 1) land 3 in
        class_sum.(c) <- class_sum.(c) + dt;
        class_count.(c) <- class_count.(c) + 1
      done;
      let overhead = Lazy.force clock_overhead_ns in
      Ok
        {
          accesses;
          elaborate_ns;
          replay_ns;
          exact = !mismatches = 0;
          class_ns =
            Array.mapi (fun c sum -> float sum -. (float class_count.(c) *. overhead)) class_sum;
          class_count;
        }
