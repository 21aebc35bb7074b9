(* Host clocks. [now_ns] is CLOCK_MONOTONIC in nanoseconds, cheap enough
   (tens of ns, no allocation) to bracket single memory-system calls. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [time f] runs [f ()] and returns its result with the elapsed ns. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* A run repeats its pass while another one, as long as the last, still
   ends within [seconds] of [start]. *)
let another_pass ~start ~pass_start ~seconds =
  let now = now_ns () in
  float (now - start + (now - pass_start)) /. 1e9 <= seconds
