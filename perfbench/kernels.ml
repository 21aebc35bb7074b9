(* The six paper and irregular kernels of examples/programs, and their
   parameterised variants for the service mix. *)

let names = [ "transpose"; "lu"; "conv"; "redistribute"; "spmv"; "graph" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let path ~root name =
  Filename.concat root (Filename.concat "examples/programs" (name ^ ".pf"))

let load ~root = List.map (fun n -> (n, read_file (path ~root n))) names

(* [with_n src n] rewrites the kernel's leading [parameter (n = ...)]. *)
let with_n src n =
  let key = "parameter (n = " in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length src then invalid_arg "Kernels.with_n: no parameter n"
    else if String.sub src i kl = key then i + kl
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < String.length src && src.[!stop] >= '0' && src.[!stop] <= '9' do
    incr stop
  done;
  String.sub src 0 start ^ string_of_int n
  ^ String.sub src !stop (String.length src - !stop)

(* Problem sizes small enough that one simulation takes milliseconds:
   the service mix is about compile and dispatch cost, not one long run. *)
let sizes = function
  | "transpose" -> [ 8; 12; 16; 20; 24; 28; 32; 40 ]
  | "lu" -> [ 4; 5; 6; 7; 8 ]
  | "conv" -> [ 8; 12; 16; 20; 24; 32; 40; 48 ]
  | "redistribute" -> [ 64; 96; 128; 192; 256; 384; 512 ]
  | "spmv" -> [ 8; 12; 16; 24; 32; 40; 48 ]
  | "graph" -> [ 8; 12; 16; 20; 24; 32; 40 ]
  | k -> invalid_arg ("Kernels.sizes: " ^ k)

(* Every (kernel, n) variant, as (display name, source). *)
let variants kernels =
  List.concat_map
    (fun (k, src) ->
      List.map
        (fun n -> (Printf.sprintf "%s-n%d.pf" k n, with_n src n))
        (sizes k))
    kernels
