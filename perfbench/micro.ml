(* Layer microbenchmarks that need no workload input: the scheduler heap
   at a fixed depth, and a Jobs pool dispatch. Each figure is the median
   of several repetitions. *)

module Heapq = Ddsm_exec.Heapq
module Jobs = Ddsm_util.Jobs

(* ns per pop+push pair on a heap holding [depth] live entries, the
   scheduler's pattern: pop the earliest clock, push it back later. *)
let heapq_ns ~depth =
  let iters = 400_000 in
  let once () =
    let h = Heapq.create () in
    for i = 0 to depth - 1 do
      Heapq.push h ~key:(i * 7 mod 101) i
    done;
    let t0 = Clock.now_ns () in
    for i = 1 to iters do
      let k = Heapq.min_key h in
      let v = Heapq.pop_value h in
      Heapq.push h ~key:(k + 1 + (i * 13 land 63)) v
    done;
    float (Clock.now_ns () - t0) /. float iters
  in
  Stats.median (List.init 5 (fun _ -> once ()))

(* µs per [Jobs.map ~jobs:2] over two no-op jobs (one domain spawn). *)
let jobs_map_us () =
  let once () =
    let t0 = Clock.now_ns () in
    ignore (Jobs.map ~jobs:2 (fun () -> ()) [ (); () ]);
    float (Clock.now_ns () - t0) /. 1e3
  in
  Stats.median (List.init 201 (fun _ -> once ()))
