(* The host block every result carries, so that numbers from different
   machines or trees are not read as a trend: the code measured, the
   cores, the compiler, and the time of a fixed calibration loop. *)

module Json = Ddsm_report.Json

let lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  |> String.split_on_char '\n'

(* VmHWM (peak resident set) from a /proc/<pid>/status file, in MB. *)
let vm_hwm_mb status =
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") (lines status) with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
  | None -> failwith "no VmHWM line"

(* A fixed integer loop; its time tracks the host's single-core speed. *)
let calibration_ms () =
  let once () =
    let x = ref 1 in
    let t0 = Clock.now_ns () in
    for i = 1 to 20_000_000 do
      x := (!x * 1103515245) + i land 0xffff
    done;
    let ns = Clock.now_ns () - t0 in
    ignore (Sys.opaque_identity !x);
    float ns /. 1e6
  in
  Stats.median (List.init 5 (fun _ -> once ()))

(* Digest of every source file under lib/ and bin/: names the code
   measured even where the checkout is not a git repository. *)
let source_digest ~root =
  let rec walk rel =
    let dir = Filename.concat root rel in
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let rel = Filename.concat rel name in
           if Sys.is_directory (Filename.concat root rel) then walk rel
           else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
                   || name = "dune"
           then [ rel ^ ":" ^ Digest.to_hex (Digest.file (Filename.concat root rel)) ]
           else [])
  in
  Digest.to_hex (Digest.string (String.concat "\n" (walk "lib" @ walk "bin")))

(* The host's CPUs, whatever this process may run on. *)
let nproc () =
  List.length (List.filter (String.starts_with ~prefix:"processor") (lines "/proc/cpuinfo"))

(* The CPUs this process may run on (run.py pins the sim workloads to
   one). *)
let cpus_allowed () =
  let prefix = "Cpus_allowed_list:" in
  match List.find_opt (String.starts_with ~prefix) (lines "/proc/self/status") with
  | Some l -> String.trim (String.sub l (String.length prefix) (String.length l - String.length prefix))
  | None -> "unknown"

let block ~root ~commit ~workload ~seed ~seconds ~trace =
  Json.Obj
    [
      ("commit", Json.Str commit);
      ("source_digest", Json.Str (source_digest ~root));
      ("nproc", Json.Int (nproc ()));
      ("cpus_allowed", Json.Str (cpus_allowed ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("calibration_ms", Json.Float (calibration_ms ()));
      ("probe_ms", Json.Float (Stats.median (List.init 5 (fun _ -> Probe.sample ())) /. 1e6));
      ("workload", Json.Str workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("trace", Json.Bool trace);
    ]
