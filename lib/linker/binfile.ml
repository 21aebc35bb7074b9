(* Hardened, atomically-written container for Marshal-persisted artifacts.
   See binfile.mli for the contract. Encoded layout (in memory and on
   disk alike): one text header line

     DDSMBIN1 <kind> <format-version> <payload-bytes> <md5-hex>\n

   followed by the raw Marshal payload. Nothing reaches the unmarshaller
   until magic, kind, version, length and digest have all checked out, so
   truncated, stale or foreign bytes are plain [Error]s. *)

let magic = "DDSMBIN1"
let format_version = 2 (* v1 = the headerless bare-Marshal era *)

exception Crashed

let crash_plan = ref None
let inject_crash ~after_bytes = crash_plan := Some after_bytes
let clear_crash () = crash_plan := None

let encode ~kind v =
  if String.exists (fun c -> c = ' ' || c = '\n') kind then
    invalid_arg "Binfile.encode: kind must not contain spaces";
  let payload = Marshal.to_string v [] in
  Printf.sprintf "%s %s %d %d %s\n%s" magic kind format_version
    (String.length payload)
    (Digest.to_hex (Digest.string payload))
    payload

(* Every check but the unmarshalling; [Ok off] is where the verified
   payload starts in [s]. *)
let verify ~kind s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let header, off =
    match String.index_opt s '\n' with
    | Some i -> (String.sub s 0 i, i + 1)
    | None -> (s, String.length s)
  in
  match String.split_on_char ' ' header with
  | _ when s = "" -> err "not a DDSM %s file (empty file)" kind
  | [ m; k; ver; len; dig ] when m = magic -> (
      if k <> kind then err "is a DDSM %s file, expected a %s file" k kind
      else
        match (int_of_string_opt ver, int_of_string_opt len) with
        | Some v, _ when v <> format_version ->
            err
              "stale format version %d (this build reads version %d) — \
               rebuild the file"
              v format_version
        | _, None | None, _ -> err "corrupt header"
        | Some _, Some len ->
            let avail = String.length s - off in
            if len < 0 || avail < len then
              err "truncated (torn write or short copy)"
            else if avail > len then err "trailing garbage after payload"
            else if Digest.to_hex (Digest.substring s off len) <> dig then
              err "corrupt (payload digest mismatch)"
            else Ok off)
  | _ -> err "not a DDSM %s file (bad or missing magic)" kind

let decode ~kind s =
  Result.bind (verify ~kind s) (fun off ->
      (* digest verified: these are the exact bytes the writer marshalled,
         so unmarshalling is safe *)
      match Marshal.from_string s off with
      | v -> Ok v
      | exception Failure m -> Error ("corrupt payload: " ^ m))

let write ~path s =
  (* temp file in the target's own directory so the final rename never
     crosses a filesystem and is atomic *)
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ]
      ~temp_dir:(Filename.dirname path)
      ".ddsm-" ".tmp"
  in
  (try
     match !crash_plan with
     | Some n ->
         (* simulated kill mid-write: the header and [n] payload bytes
            reach the torn temp file, the target path is never touched *)
         crash_plan := None;
         let header =
           match String.index_opt s '\n' with
           | Some i -> i + 1
           | None -> 0
         in
         output_substring oc s 0 (min (header + n) (String.length s));
         flush oc;
         close_out_noerr oc;
         raise Crashed
     | None ->
         output_string oc s;
         close_out oc
   with e ->
     close_out_noerr oc;
     (if e <> Crashed then try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let save ~kind ~path v = write ~path (encode ~kind v)

(* read [path] whole, then [check] its bytes; errors are located *)
let read_with check ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e ->
      (* an open error names the path already, a read error does not *)
      Error (if String.starts_with ~prefix:path e then e else path ^ ": " ^ e)
  | s -> Result.map_error (fun m -> path ^ ": " ^ m) (check s)

let read ~kind ~path =
  read_with (fun s -> Result.map (fun _ -> s) (verify ~kind s)) ~path

let load ~kind ~path = read_with (decode ~kind) ~path
