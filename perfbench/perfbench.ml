(* The repository benchmark. One run drives one workload for about
   [--seconds] seconds and prints, on stdout, a host block, one line per
   metric (name, value, unit, sample count), and as its last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}. [--trace 0]
   reports the end-to-end metrics, [--trace 1] the per-layer ones.

     perfbench run --workload sim-large|sim-observed|pfld-mix --seed N
                   --seconds S --trace 0|1 [--root DIR] [--pfld EXE]
     perfbench pin      print the pinned reference table (pinned.json)

   perfbench/run.py builds this and pfld from source and invokes it. *)

open Perfbench_lib
module Json = Ddsm_report.Json

let usage () =
  prerr_endline
    "usage: perfbench run --workload W --seed N --seconds S --trace 0|1 [--root DIR] \
     [--pfld EXE] [--commit ID]\n       perfbench pin [--root DIR]";
  exit 2

let workloads = [ "sim-large"; "sim-observed"; "pfld-mix" ]

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  root : string;
  pfld : string;
  commit : string;
}

let parse_args argv =
  let a =
    ref
      {
        workload = "";
        seed = 0;
        seconds = 10;
        trace = false;
        root = ".";
        pfld = "_build/default/bin/pfld.exe";
        commit = "unknown";
      }
  in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> a := { !a with workload = w }; go rest
    | "--seed" :: n :: rest -> a := { !a with seed = int_of n }; go rest
    | "--seconds" :: n :: rest -> a := { !a with seconds = int_of n }; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> a := { !a with trace = t = "1" }; go rest
    | "--root" :: d :: rest -> a := { !a with root = d }; go rest
    | "--pfld" :: p :: rest -> a := { !a with pfld = p }; go rest
    | "--commit" :: c :: rest -> a := { !a with commit = c }; go rest
    | _ -> usage ()
  in
  go argv;
  if not (List.mem !a.workload workloads) || !a.seconds < 1 then usage ();
  !a

(* A private scratch directory in the checkout, removed at exit. *)
let with_scratch ~root f =
  let base = Filename.concat root ".perfbench-tmp" in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat base (string_of_int (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Files.remove_tree dir;
      try Unix.rmdir base with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let print_result ~trace =
  let ms = List.rev !Report.metrics in
  let expected = if trace then Layers.names else End_to_end.names in
  Report.check
    (List.sort compare (List.map (fun m -> (m.Report.name, m.Report.unit_)) ms)
    = List.sort compare expected)
    "the run reports exactly its %d declared metrics" (List.length expected);
  List.iter
    (fun m ->
      Printf.printf "metric %-34s %16.6f %-6s (n=%d)%s\n" m.Report.name m.Report.value
        m.Report.unit_ m.Report.samples
        (match m.Report.raw with Some r -> Printf.sprintf " unscaled %.6f" r | None -> ""))
    ms;
  let correct = !Report.failed = 0 && !Report.attempted > 0 in
  Printf.printf "failed_frac %.6f (%d of %d)\n" (Report.ratio !Report.failed !Report.attempted)
    !Report.failed !Report.attempted;
  let metric m =
    (m.Report.name, Json.Obj [ ("value", Json.Float m.Report.value); ("unit", Json.Str m.Report.unit_) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 !Report.attempted));
            ("failed", Json.Int !Report.failed);
            ("metrics", Json.Obj (List.map metric ms));
          ]));
  if correct then 0 else 1

let run a =
  Printf.printf "host %s\n%!"
    (Json.to_string
       (Host.block ~root:a.root ~commit:a.commit ~workload:a.workload ~seed:a.seed
          ~seconds:a.seconds ~trace:a.trace));
  let seconds = float a.seconds in
  with_scratch ~root:a.root (fun scratch ->
      match (a.workload, a.trace) with
      | "sim-large", false -> Sim.untraced ~root:a.root ~seed:a.seed ~seconds `Large
      | "sim-observed", false -> Sim.untraced ~root:a.root ~seed:a.seed ~seconds `Observed
      | "sim-large", true -> Sim.traced ~root:a.root ~seed:a.seed ~scratch `Large
      | "sim-observed", true -> Sim.traced ~root:a.root ~seed:a.seed ~scratch `Observed
      | _, trace -> Mix.run ~root:a.root ~scratch ~pfld:a.pfld ~seed:a.seed ~seconds ~trace);
  if a.trace then Layers.complete ();
  print_result ~trace:a.trace

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> exit (run (parse_args rest))
  | [ _; "pin" ] -> Pin.print ~root:"."
  | [ _; "pin"; "--root"; root ] -> Pin.print ~root
  | _ -> usage ()
