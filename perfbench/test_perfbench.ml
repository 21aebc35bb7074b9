(* Tests of the benchmark's own machinery: its order statistics agree with
   Python's [statistics] module, the pfld-mix request stream is a pure
   function of the seed with the stated class shares and reference
   discipline, and BENCHMARK.json names exactly the metrics the benchmark
   reports. Run with [dune test perfbench]. *)

open Perfbench_lib
module Json = Ddsm_report.Json

let failures = ref 0

let check ok what =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

let close a b = Float.abs (a -. b) < 1e-9

(* expected values computed with Python 3's statistics module *)
let test_stats () =
  let xs = [ 3.0; 1.0; 4.0; 1.5; 5.0; 9.0; 2.0; 6.0 ] in
  check (close (Stats.median xs) 3.5) "median of 8";
  check (close (Stats.median [ 2.; 9.; 4. ]) 4.) "median of 3";
  (match Stats.quantiles ~n:4 xs with
  | [ q1; q2; q3 ] -> check (close q1 1.625 && close q2 3.5 && close q3 5.75) "quartiles of 8"
  | _ -> check false "three quartiles");
  (match Stats.quantiles ~n:4 [ 1.0; 2.0 ] with
  | [ q1; q2; q3 ] -> check (close q1 0.75 && close q2 1.5 && close q3 2.25) "quartiles of 2"
  | _ -> check false "three quartiles of 2");
  let ys = List.init 39 (fun i -> float ((i + 1) * (i + 1) mod 17)) in
  check (close (Stats.percentile 50 ys) 8.0) "p50 of 39";
  check (close (Stats.percentile 99 ys) 16.0) "p99 of 39";
  check (close (Stats.percentile 1 ys) 0.0) "p1 of 39";
  let js = List.map float [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 10; 12; 11; 15; 13; 14; 16; 20; 18; 17; 19; 22; 21; 24; 23 ] in
  check (close (Stats.percentile 99 js) 23.77) "p99 of 24 stays below the largest";
  check (close (Stats.percentile 50 js) 12.5) "p50 of 24";
  check (close (Stats.percentile 99 [ 7. ]) 7.) "percentile of one sample";
  check (close (Stats.rel_iqr xs) ((5.75 -. 1.625) /. 3.5)) "relative IQR"

let kernels = Kernels.load ~root:".."

let stream seed = Stream.generate ~compile:Compile.plain ~kernels ~seed ~n:300

let wire st = Array.to_list (Array.init (Array.length st.Stream.reqs) (fun i -> Json.to_string (Stream.to_wire st i)))

let test_stream () =
  let a = stream 7 and b = stream 7 and c = stream 8 in
  check (wire a = wire b) "same seed, same request stream";
  check (wire a <> wire c) "another seed, another stream";
  let n = Array.length a.Stream.reqs in
  List.iter
    (fun cls ->
      let got =
        100. *. Report.ratio (Array.fold_left (fun s r -> if r.Stream.cls = cls then s + 1 else s) 0 a.Stream.reqs) n
      in
      check
        (Float.abs (got -. float (Stream.share cls)) <= 7.)
        (Printf.sprintf "%s share %.1f%%, stated %d%%" (Stream.cls_name cls) got (Stream.share cls)))
    Stream.classes;
  (* a request refers only to requests answered before it is sent *)
  let first_use = Hashtbl.create 64 in
  let keys = Hashtbl.create 256 in
  Array.iteri
    (fun i r ->
      let key = (r.Stream.src, r.Stream.nprocs, r.Stream.policy, r.Stream.max_cycles) in
      (match r.Stream.cls with
      | Stream.Cold -> check (not (Hashtbl.mem first_use r.Stream.src)) "cold request has a new source"
      | Stream.Hit ->
          let k = Option.get r.Stream.repeats in
          check (k <= i - 2) "hit repeats a request at least two places back";
          check (Hashtbl.find_opt keys key = Some k) "hit repeats its original exactly"
      | Stream.Resim | Stream.Budget ->
          check
            (match Hashtbl.find_opt first_use r.Stream.src with Some k -> k <= i - 2 | None -> false)
            "resim/budget source was compiled at least two places back";
          check (not (Hashtbl.mem keys key)) "resim/budget is a new simulate key");
      if not (Hashtbl.mem first_use r.Stream.src) then Hashtbl.add first_use r.Stream.src i;
      if not (Hashtbl.mem keys key) then Hashtbl.add keys key i)
    a.Stream.reqs

let test_benchmark_json () =
  let j =
    match Json.of_string (Kernels.read_file "../BENCHMARK.json") with
    | Ok j -> j
    | Error e -> failwith e
  in
  let names k =
    match Refs.field j k with
    | Some (Json.List ms) ->
        List.map
          (fun m ->
            match (Refs.field m "name", Refs.field m "unit") with
            | Some (Json.Str n), Some (Json.Str u) -> (n, u)
            | _ -> ("", ""))
          ms
    | _ -> []
  in
  check (List.sort compare (names "per_layer") = List.sort compare Layers.names)
    "BENCHMARK.json per_layer = the traced run's metrics";
  check (List.sort compare (names "end_to_end") = List.sort compare Perfbench_lib.End_to_end.names)
    "BENCHMARK.json end_to_end = the untraced run's metrics"

let () =
  test_stats ();
  test_stream ();
  test_benchmark_json ();
  if !failures > 0 then exit 1;
  print_endline "perfbench tests: ok"
