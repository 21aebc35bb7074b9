(* The host-speed probe, a program of its own. It links no library of the
   repository, and the benchmark starts it with OCAMLRUNPARAM removed from
   its environment, so no change to the simulator, its heap or its
   garbage-collector settings can change what it measures: it follows the
   host alone.

   A round allocates small records, keeping one in sixteen alive for a
   while. The probe runs one round to warm the fresh process's heap, then
   three, and prints the median of their ns, so that a round that lost
   the core for a moment does not count. *)

let records = 1_000_000

type cell = { id : int; twice : int }

let survivors = Array.make 4096 None

let round () =
  let t0 = Monotonic_clock.now () in
  for i = 1 to records do
    let c = Sys.opaque_identity { id = i; twice = 2 * i } in
    if i land 15 = 0 then survivors.(i land 4095) <- Some c
  done;
  Int64.sub (Monotonic_clock.now ()) t0

external pin : int -> bool = "hostprobe_pin"

(* [hostprobe.exe --cpu-index K] first pins itself to the K-th CPU it
   may run on. *)
let () =
  (match Sys.argv with
  | [| _; "--cpu-index"; k |] -> if not (pin (int_of_string k)) then exit 2
  | _ -> ());
  ignore (round ());
  let a = List.sort compare (List.init 3 (fun _ -> round ())) in
  Printf.printf "%Ld\n" (List.nth a 1)
