(* Host-speed probe. On a shared host, other tenants' load slows the
   simulator by up to 2x for minutes at a time, which no number of passes
   inside one run averages away. The simulator's host time is mostly
   allocation and the garbage collector, and a loop that allocates small
   records, keeping one in sixteen alive for a while, slows down with it.
   A fixed ALU loop and random walks over 1-16 MB tracked it worse. Every
   end-to-end time is scaled by [reference_ns / sample]: on the sim
   workloads with the samples taken beside the job, on pfld-mix with one
   sample for the whole run ({!Mix.run}).

   The loop runs in a child process, [hostprobe.exe] (next to this
   program), so that the sample does not share the simulator's heap: GC
   work a job leaves behind is paid by whatever runs next in this
   process, never by the probe, and a change to the simulator's
   allocation or GC settings moves the raw and the scaled times alike. *)

(* The sample's time on the reference host when quiet. *)
let reference_ns = 2e6

let exe = lazy (Filename.concat (Filename.dirname Sys.executable_name) "hostprobe.exe")

let env =
  lazy
    (Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not
             (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv
             || String.starts_with ~prefix:"CAMLRUNPARAM=" kv))
    |> Array.of_list)

(* ns of one sample; pinned to the [cpu]-th CPU this process may run on,
   if given *)
let sample ?cpu () =
  let exe = Lazy.force exe in
  let args =
    match cpu with None -> [| exe |] | Some k -> [| exe; "--cpu-index"; string_of_int k |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () -> Unix.create_process_env exe args (Lazy.force env) Unix.stdin w Unix.stderr)
  in
  let ic = Unix.in_channel_of_descr r in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  match (snd (Unix.waitpid [] pid), float_of_string_opt (String.trim line)) with
  | Unix.WEXITED 0, Some ns when ns > 0. -> ns
  | _ -> failwith (exe ^ ": no probe sample")

(* [per_cpu] samples on each CPU this process may run on, one at a
   time. *)
let samples_on_cpus ~per_cpu =
  List.init (Domain.recommended_domain_count ()) Fun.id
  |> List.concat_map (fun cpu -> List.init per_cpu (fun _ -> sample ~cpu ()))

(* [scaled ns ~sample] is a time measured beside a probe [sample],
   expressed at the reference host speed. *)
let scaled ns ~sample = float ns *. reference_ns /. sample
