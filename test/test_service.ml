(* Tests for the pfld service stack (ROADMAP item 4) and the hardened
   persistence / CLI error paths it depends on:

   - Jobs env parsing: a malformed DDSM_JOBS is a located user
     errors, never bare exceptions (table-driven; the CLI halves of the
     table live in the bin/dune smoke);
   - Json.of_string: the line-framed protocol's parser;
   - Binfile: magic/kind/version/length/digest validation, and the
     crash-injection proof that readers never observe a partial file;
   - Proto: request parsing, canonicalization, content-addressed keys;
   - Service: end-to-end over a real Unix-domain socket with the daemon
     on a spawned domain — byte-identical replies, exactly-one-compile
     under concurrent identical batches, round-robin fairness, cycle
     budgets that do not poison the worker, warm restarts from the disk
     cache, and corrupt cache entries degrading to clean misses. *)

module Service = Ddsm_service.Service
module Client = Ddsm_service.Client
module Proto = Ddsm_service.Proto
module Cache = Ddsm_service.Cache
module Json = Ddsm_report.Json
module Jobs = Ddsm_util.Jobs
module Binfile = Ddsm_linker.Binfile
module Objfile = Ddsm_linker.Objfile
module Ddsm = Ddsm_core.Ddsm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let check_error_mentions what sub = function
  | Ok _ -> Alcotest.failf "%s: expected an error mentioning %S" what sub
  | Error e ->
      check_bool
        (Printf.sprintf "%s: %S mentions %S" what e sub)
        true (contains e sub)

(* ------------------------------------------------------------------ *)
(* Jobs: env-derived counts are parsed, never exception-raising *)

let test_jobs_parse_table () =
  let cases =
    [
      ("4", Some 4);
      (" 8 ", Some 8);
      ("1", Some 1);
      ("0", None);
      ("-2", None);
      ("", None);
      ("abc", None);
      ("4.5", None);
      ("0x10", None);
    ]
  in
  List.iter
    (fun (s, expect) ->
      match (Jobs.parse_count ~env:"DDSM_JOBS" s, expect) with
      | Ok n, Some m -> check_int (Printf.sprintf "parse %S" s) m n
      | Error e, None ->
          check_bool
            (Printf.sprintf "error for %S names the variable: %s" s e)
            true
            (contains e "DDSM_JOBS" && contains e s)
      | Ok n, None ->
          Alcotest.failf "parse %S: expected an error, got Ok %d" s n
      | Error e, Some _ -> Alcotest.failf "parse %S: unexpected error %s" s e)
    cases

let with_env k v f =
  let old = Sys.getenv_opt k in
  Unix.putenv k v;
  Fun.protect
    ~finally:(fun () -> Unix.putenv k (Option.value old ~default:"1"))
    f

let test_jobs_env_defaults () =
  with_env "DDSM_JOBS" "3" (fun () ->
      check_bool "DDSM_JOBS=3" true (Jobs.default_jobs () = Ok 3));
  with_env "DDSM_JOBS" "bogus" (fun () ->
      check_error_mentions "DDSM_JOBS=bogus" "DDSM_JOBS" (Jobs.default_jobs ()))

(* ------------------------------------------------------------------ *)
(* Json.of_string *)

let test_json_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Float 2.5;
      Json.Str "";
      Json.Str "plain";
      Json.Str "esc \" \\ \n \t \x01 end";
      Json.List [];
      Json.List [ Json.Int 1; Json.Str "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("l", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      match Json.of_string s with
      | Ok v' -> check_str ("roundtrip " ^ s) s (Json.to_string v')
      | Error e -> Alcotest.failf "roundtrip %s: %s" s e)
    values

let test_json_parse_forms () =
  let ok s expect =
    match Json.of_string s with
    | Ok v -> check_str ("parse " ^ s) expect (Json.to_string v)
    | Error e -> Alcotest.failf "parse %s: %s" s e
  in
  ok "  true " "true";
  ok "3" "3";
  ok "-7" "-7";
  ok "3.5" "3.5";
  ok "1e3" "1000";
  ok {|"Aé"|} "\"A\xc3\xa9\"";
  (* surrogate pair: U+1F600 *)
  (match Json.of_string {|"😀"|} with
  | Ok (Json.Str s) -> check_str "surrogate pair" "\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "surrogate pair did not parse to a string");
  ok {| { "a" : [ 1 , 2 ] } |} {|{"a":[1,2]}|};
  (* Int/Float discrimination survives a round trip *)
  (match Json.of_string "9" with
  | Ok (Json.Int 9) -> ()
  | _ -> Alcotest.fail "9 should parse as Int");
  match Json.of_string "9.0" with
  | Ok (Json.Float _) -> ()
  | _ -> Alcotest.fail "9.0 should parse as Float"

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok v ->
          Alcotest.failf "parse %S: expected an error, got %s" s
            (Json.to_string v)
      | Error _ -> ())
    [
      ""; "   "; "tru"; "nul"; "{"; "["; "[1,"; "{\"a\":}"; "\"unterminated";
      "1 2"; "{} x"; "{\"a\" 1}"; "'single'"; "+1"; "\"bad \\q escape\"";
    ]

(* ------------------------------------------------------------------ *)
(* Binfile: the hardened Marshal container *)

let tmpfile =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    Printf.sprintf "tbin-%d-%d.bin" (Unix.getpid ()) !ctr

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_file path f =
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let sample = ([ "alpha"; "beta" ], 42)

let load_sample ~kind ~path : (string list * int, string) result =
  Binfile.load ~kind ~path

let test_binfile_roundtrip () =
  with_file (tmpfile ()) (fun path ->
      Binfile.save ~kind:"test" ~path sample;
      match load_sample ~kind:"test" ~path with
      | Ok v -> check_bool "roundtrip" true (v = sample)
      | Error e -> Alcotest.fail e)

let test_binfile_kind_mismatch () =
  with_file (tmpfile ()) (fun path ->
      Binfile.save ~kind:"object" ~path sample;
      check_error_mentions "kind mismatch" "expected a image file"
        (load_sample ~kind:"image" ~path))

let test_binfile_foreign_and_empty () =
  with_file (tmpfile ()) (fun path ->
      write_file path "#!/bin/sh\necho not an image\n";
      check_error_mentions "foreign file" "bad or missing magic"
        (load_sample ~kind:"test" ~path);
      write_file path "";
      check_error_mentions "empty file" "empty file"
        (load_sample ~kind:"test" ~path))

let test_binfile_stale_version () =
  with_file (tmpfile ()) (fun path ->
      let payload = Marshal.to_string sample [] in
      write_file path
        (Printf.sprintf "DDSMBIN1 test 1 %d %s\n%s" (String.length payload)
           (Digest.to_hex (Digest.string payload))
           payload);
      check_error_mentions "stale version" "stale format version 1"
        (load_sample ~kind:"test" ~path))

let test_binfile_truncated () =
  with_file (tmpfile ()) (fun path ->
      Binfile.save ~kind:"test" ~path sample;
      let all = read_file path in
      write_file path (String.sub all 0 (String.length all - 5));
      check_error_mentions "truncated" "truncated"
        (load_sample ~kind:"test" ~path))

let test_binfile_corrupt_payload () =
  with_file (tmpfile ()) (fun path ->
      Binfile.save ~kind:"test" ~path sample;
      let all = Bytes.of_string (read_file path) in
      (* flip a byte in the payload, well past the header line *)
      let i = Bytes.length all - 3 in
      Bytes.set all i (Char.chr (Char.code (Bytes.get all i) lxor 0xff));
      write_file path (Bytes.to_string all);
      check_error_mentions "digest mismatch" "digest mismatch"
        (load_sample ~kind:"test" ~path))

let test_binfile_trailing_garbage () =
  with_file (tmpfile ()) (fun path ->
      Binfile.save ~kind:"test" ~path sample;
      write_file path (read_file path ^ "extra");
      check_error_mentions "trailing garbage" "trailing garbage"
        (load_sample ~kind:"test" ~path))

(* the atomicity proof: a writer killed mid-write leaves either the old
   complete file or no file — a reader never observes a partial one *)
let test_binfile_crash_atomicity () =
  with_file (tmpfile ()) (fun path ->
      let v1 = ([ "old" ], 1) and v2 = ([ "new"; "bigger" ], 2) in
      Binfile.save ~kind:"test" ~path v1;
      Binfile.inject_crash ~after_bytes:4;
      (match Binfile.save ~kind:"test" ~path v2 with
      | () -> Alcotest.fail "injected crash did not fire"
      | exception Binfile.Crashed -> ());
      (* the old file is byte-for-byte intact *)
      (match load_sample ~kind:"test" ~path with
      | Ok v -> check_bool "old value survives the torn write" true (v = v1)
      | Error e -> Alcotest.failf "reader observed a partial file: %s" e);
      (* the torn temp file is visible on disk but never under [path] *)
      let dir = Filename.dirname path in
      let torn =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f ->
               String.length f >= 6 && String.sub f 0 6 = ".ddsm-")
      in
      check_bool "torn temp file left behind" true (torn <> []);
      List.iter (fun f -> Sys.remove (Filename.concat dir f)) torn;
      Binfile.clear_crash ();
      (* a crash with no pre-existing target leaves no target at all *)
      let fresh = tmpfile () in
      with_file fresh (fun fresh ->
          Binfile.inject_crash ~after_bytes:0;
          (try Binfile.save ~kind:"test" ~path:fresh v2
           with Binfile.Crashed -> ());
          check_bool "no partial target created" false (Sys.file_exists fresh);
          Binfile.clear_crash ();
          Array.iter
            (fun f ->
              if String.length f >= 6 && String.sub f 0 6 = ".ddsm-" then
                Sys.remove (Filename.concat dir f))
            (Sys.readdir dir));
      (* after the dust settles, a clean save works again *)
      Binfile.save ~kind:"test" ~path v2;
      match load_sample ~kind:"test" ~path with
      | Ok v -> check_bool "clean save after crash" true (v = v2)
      | Error e -> Alcotest.fail e)

let hello_src =
  "      program hello\n\
  \      integer n, i\n\
  \      parameter (n = 64)\n\
  \      real*8 a(n), s\n\
   c$distribute a(block)\n\
   c$doacross local(i) affinity(i) = data(a(i))\n\
  \      do i = 1, n\n\
  \        a(i) = i\n\
  \      enddo\n\
  \      s = 0.0\n\
  \      do i = 1, n\n\
  \        s = s + a(i)\n\
  \      enddo\n\
  \      print *, 'sum =', s\n\
  \      end\n"

let compile_hello () =
  match Ddsm.compile_source ~fname:"hello.pf" hello_src with
  | Ok o -> o
  | Error es -> Alcotest.failf "compile: %s" (String.concat "; " es)

let link_hello () =
  match Ddsm.link [ compile_hello () ] with
  | Ok (_, linked) -> linked
  | Error es -> Alcotest.failf "link: %s" (String.concat "; " es)

(* the CLIs' loaders sit on Binfile: corrupt inputs are Errors, and kinds
   do not cross (an object file is not an image) *)
let test_loaders_are_total () =
  with_file (tmpfile ()) (fun path ->
      write_file path "garbage, not an object file";
      (match Objfile.load ~path with
      | Ok _ -> Alcotest.fail "Objfile.load accepted garbage"
      | Error e ->
          check_bool "objfile error is located" true (contains e path));
      (match Ddsm.load_image ~path with
      | Ok _ -> Alcotest.fail "load_image accepted garbage"
      | Error e ->
          check_bool "image error is located" true (contains e path));
      Objfile.save (compile_hello ()) ~path;
      (match Ddsm.load_image ~path with
      | Ok _ -> Alcotest.fail "load_image accepted an object file"
      | Error e ->
          check_bool "kind confusion diagnosed" true
            (contains e "expected a image file"));
      Sys.remove (path ^ ".pfs");
      let linked = link_hello () in
      Ddsm.save_image linked ~path;
      match Ddsm.load_image ~path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "image roundtrip: %s" e)

(* ------------------------------------------------------------------ *)
(* Proto *)

let mk_req ?(id = 1) ?(fname = "t.pf") ?(nprocs = 4) ?(policy = "first-touch")
    ?(machine = "scaled:64") ?(heap_words = 1 lsl 20) ?max_cycles
    ?(flags_off = []) source =
  {
    Proto.id; source; fname; nprocs; policy; machine; heap_words; max_cycles;
    flags_off;
  }

let parse_run line =
  match Proto.request_of_line line with
  | Ok (Proto.Run r) -> r
  | Ok _ -> Alcotest.failf "parse %s: not a run request" line
  | Error e -> Alcotest.failf "parse %s: %s" line e

let test_proto_parse_defaults () =
  let r = parse_run {|{"op":"run","id":7,"source":"src"}|} in
  check_int "id" 7 r.Proto.id;
  check_str "source" "src" r.Proto.source;
  check_str "fname default" "<service>" r.Proto.fname;
  check_int "nprocs default" 8 r.Proto.nprocs;
  check_str "policy default" "first-touch" r.Proto.policy;
  check_str "machine default" "scaled:64" r.Proto.machine;
  check_int "heap default" (1 lsl 24) r.Proto.heap_words;
  check_bool "max_cycles default" true (r.Proto.max_cycles = None);
  check_bool "flags default" true (r.Proto.flags_off = [])

let test_proto_canonicalization () =
  let r =
    parse_run
      {|{"op":"run","id":1,"source":"s","policy":"rr","machine":"scaled:04","flags_off":["tile","peel","tile"]}|}
  in
  check_str "rr canon" "round-robin" r.Proto.policy;
  check_str "machine canon" "scaled:4" r.Proto.machine;
  check_bool "flags sorted+deduped" true (r.Proto.flags_off = [ "peel"; "tile" ]);
  check_bool "ops parse" true
    (Proto.request_of_line {|{"op":"ping","id":3}|} = Ok (Proto.Ping 3)
    && Proto.request_of_line {|{"op":"stats","id":4}|} = Ok (Proto.Stats 4)
    && Proto.request_of_line {|{"op":"shutdown"}|} = Ok (Proto.Shutdown 0))

let test_proto_errors () =
  let err line sub = check_error_mentions line sub (Proto.request_of_line line) in
  err "not json at all" "expected";
  err {|{"id":1}|} "op";
  err {|{"op":"frobnicate","id":1}|} "frobnicate";
  err {|{"op":"run"}|} "id";
  err {|{"op":"run","id":1}|} "source";
  err {|{"op":"run","id":1,"source":"s","nprocs":0}|} "nprocs";
  err {|{"op":"run","id":1,"source":"s","policy":"best"}|} "policy";
  err {|{"op":"run","id":1,"source":"s","machine":"cray"}|} "machine";
  err {|{"op":"run","id":1,"source":"s","max_cycles":-5}|} "max_cycles";
  err {|{"op":"run","id":1,"source":"s","heap_words":0}|} "heap_words";
  err {|{"op":"run","id":1,"source":"s","heap_words":134217729}|} "heap_words";
  err {|{"op":"run","id":1,"source":"s","heap_words":4611686018427387903}|}
    "heap_words";
  err {|{"op":"run","id":1,"source":"s","flags_off":["warp"]}|} "warp";
  err {|{"op":"run","id":1,"source":"s","flags_off":"tile"}|} "flags_off"

let test_proto_keys () =
  let base = mk_req "src" in
  (* display name and request id are NOT keyed *)
  let renamed = { base with Proto.fname = "other.pf"; id = 99 } in
  check_str "fname not in compile key" (Proto.compile_key base)
    (Proto.compile_key renamed);
  check_str "fname not in sim key" (Proto.sim_key base) (Proto.sim_key renamed);
  (* flags change the compile key *)
  let flagged = { base with Proto.flags_off = [ "tile" ] } in
  check_bool "flags keyed" false
    (Proto.compile_key base = Proto.compile_key flagged);
  (* machine shape changes the sim key but not the compile key *)
  let wider = { base with Proto.nprocs = 8 } in
  check_str "nprocs not in compile key" (Proto.compile_key base)
    (Proto.compile_key wider);
  check_bool "nprocs in sim key" false (Proto.sim_key base = Proto.sim_key wider);
  (* a request survives a wire roundtrip exactly *)
  let r = mk_req ~id:5 ~max_cycles:1000 ~flags_off:[ "cse"; "peel" ] "src" in
  match Proto.request_of_line (Json.to_string (Proto.run_to_json r)) with
  | Ok (Proto.Run r') -> check_bool "wire roundtrip" true (r = r')
  | Ok _ | Error _ -> Alcotest.fail "wire roundtrip failed"

(* ------------------------------------------------------------------ *)
(* Service: fairness of the round builder (deterministic, no sockets) *)

let test_round_robin_order () =
  let sock = Printf.sprintf "trr-%d.sock" (Unix.getpid ()) in
  let cfg =
    {
      Service.sock_path = sock; workers = 1; cache_dir = None; budget = 0;
      verbose = false; handle_signals = false;
    }
  in
  let t = Service.create cfg in
  Fun.protect
    ~finally:(fun () ->
      Unix.close t.Service.lfd;
      try Sys.remove sock with Sys_error _ -> ())
    (fun () ->
      let mk ids =
        let c =
          {
            Service.fd = Unix.stdin; inbuf = Buffer.create 0; skipping = false;
            pending = Queue.create (); alive = true;
          }
        in
        List.iter (fun id -> Queue.push (mk_req ~id "s") c.Service.pending) ids;
        c
      in
      let a = mk [ 1; 2; 3 ] and b = mk [ 10 ] and c = mk [ 20; 21 ] in
      t.Service.clients <- [ a; b; c ];
      let ids round =
        List.map (fun (_, r) -> r.Proto.id) round
      in
      (* one per client per sweep: B's single request is never stuck
         behind A's batch *)
      check_bool "round-robin interleave" true
        (ids (Service.build_round t 8) = [ 1; 10; 20; 2; 21; 3 ]);
      List.iter (fun cl -> Queue.clear cl.Service.pending) [ a; b; c ];
      List.iter
        (fun id -> Queue.push (mk_req ~id "s") a.Service.pending)
        [ 1; 2; 3 ];
      Queue.push (mk_req ~id:10 "s") b.Service.pending;
      (* the cap truncates the round, leaving the tail queued *)
      check_bool "capped round" true
        (ids (Service.build_round t 3) = [ 1; 10; 2 ]);
      check_int "tail stays queued" 1 (Queue.length a.Service.pending))

(* ------------------------------------------------------------------ *)
(* Service: end-to-end over a real socket *)

let svc_ctr = ref 0

let with_service ?cache_dir ?(workers = 1) ?(budget = 0) f =
  incr svc_ctr;
  let sock = Printf.sprintf "tsvc-%d-%d.sock" (Unix.getpid ()) !svc_ctr in
  let cfg =
    {
      Service.sock_path = sock; workers; cache_dir; budget; verbose = false;
      handle_signals = false;
    }
  in
  let d = Domain.spawn (fun () -> Service.serve cfg) in
  let rec conn tries =
    match Client.connect ~sock with
    | Ok c -> c
    | Error e ->
        if tries = 0 then Alcotest.failf "connect: %s" e
        else (
          Unix.sleepf 0.01;
          conn (tries - 1))
  in
  Fun.protect
    ~finally:(fun () ->
      (* idempotent shutdown: fine if the test already stopped the daemon *)
      (match Client.connect ~sock with
      | Ok c ->
          ignore
            (Client.rpc c (Json.Obj [ ("op", Json.Str "shutdown"); ("id", Json.Int 0) ]));
          Client.close c
      | Error _ -> ());
      Domain.join d)
    (fun () ->
      let c = conn 500 in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f ~sock c))

let send_run c r = Client.send c (Proto.run_to_json r)

let recv_ok c =
  match Client.recv c with
  | Error e -> Alcotest.failf "recv: %s" e
  | Ok j -> (
      match Proto.str_field j "status" with
      | Some "ok" -> j
      | _ -> Alcotest.failf "expected ok reply, got %s" (Json.to_string j))

let recv_error c =
  match Client.recv c with
  | Error e -> Alcotest.failf "recv: %s" e
  | Ok j -> (
      match Proto.str_field j "status" with
      | Some "error" -> j
      | _ -> Alcotest.failf "expected error reply, got %s" (Json.to_string j))

let stats c =
  Client.send c (Json.Obj [ ("op", Json.Str "stats"); ("id", Json.Int 0) ]);
  recv_ok c

let stat j k =
  match Proto.int_field j k with
  | Some v -> v
  | None -> Alcotest.failf "stats reply missing %S: %s" k (Json.to_string j)

(* a service reply must match the one-shot pipeline bit for bit *)
let test_service_matches_oneshot () =
  let expect =
    match
      Ddsm.run_source ~nprocs:4 ~heap_words:(1 lsl 20) hello_src
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "oneshot: %s" e
  in
  with_service (fun ~sock:_ c ->
      send_run c (mk_req ~id:11 hello_src);
      let j = recv_ok c in
      check_int "id stamped" 11 (stat j "id");
      check_int "cycles match oneshot" expect.Ddsm.Engine.cycles
        (stat j "cycles");
      (match Proto.field j "prints" with
      | Some (Json.List ps) ->
          check_bool "prints match oneshot" true
            (List.map (fun p -> Json.Str p) expect.Ddsm.Engine.prints = ps)
      | _ -> Alcotest.fail "reply has no prints");
      (* ping answers out of band *)
      Client.send c (Json.Obj [ ("op", Json.Str "ping"); ("id", Json.Int 5) ]);
      let p = recv_ok c in
      check_int "ping id" 5 (stat p "id"))

let test_service_compile_error_reply () =
  with_service (fun ~sock:_ c ->
      send_run c (mk_req ~id:1 "      program bad\n      x = (\n      end\n");
      let j = recv_error c in
      check_str "code" "user" (Option.get (Proto.str_field j "code"));
      check_str "phase" "compile" (Option.get (Proto.str_field j "phase"));
      check_bool "user class, not internal" true
        (Proto.field j "internal" = Some (Json.Bool false));
      (* the connection still serves after a failed compile *)
      send_run c (mk_req ~id:2 hello_src);
      ignore (recv_ok c))

let test_service_proto_error_reply () =
  with_service (fun ~sock:_ c ->
      Client.send c (Json.Str "this is not an object");
      let j = recv_error c in
      check_bool "id is null" true (Proto.field j "id" = Some Json.Null);
      check_str "phase" "proto" (Option.get (Proto.str_field j "phase"));
      send_run c (mk_req ~id:2 hello_src);
      ignore (recv_ok c);
      (* an oversized heap is refused by name and the daemon stays up *)
      send_run c (mk_req ~id:3 ~heap_words:max_int hello_src);
      let j = recv_error c in
      check_bool "names heap_words" true
        (contains (Option.get (Proto.str_field j "error")) "heap_words");
      Client.send c (Json.Obj [ ("op", Json.Str "ping"); ("id", Json.Int 4) ]);
      check_int "ping after oversized request" 4 (stat (recv_ok c) "id"))

(* a line longer than [Proto.max_line_bytes] gets one proto error naming
   the limit; the rest of it, up to its newline, is dropped and the
   connection keeps serving *)
let test_service_line_cap () =
  with_service (fun ~sock:_ c ->
      let chunk = Bytes.make 65536 'x' in
      for _ = 1 to 2 * Proto.max_line_bytes / Bytes.length chunk do
        ignore (Unix.write c.Client.fd chunk 0 (Bytes.length chunk))
      done;
      ignore (Unix.write_substring c.Client.fd "\n" 0 1);
      Client.send c (Json.Obj [ ("op", Json.Str "ping"); ("id", Json.Int 7) ]);
      let j = recv_error c in
      check_bool "id is null" true (Proto.field j "id" = Some Json.Null);
      check_str "code" "user" (Option.get (Proto.str_field j "code"));
      check_str "phase" "proto" (Option.get (Proto.str_field j "phase"));
      check_bool "names the limit" true
        (contains (Option.get (Proto.str_field j "error"))
           (string_of_int Proto.max_line_bytes));
      check_int "ping answered next" 7 (stat (recv_ok c) "id"))

(* a hostile (budget-exceeding) request yields a structured cycle-budget
   error of the user class and does not poison the daemon *)
let test_service_cycle_budget () =
  with_service ~budget:500 (fun ~sock:_ c ->
      send_run c (mk_req ~id:1 hello_src);
      let j = recv_error c in
      check_str "code" "cycle-budget" (Option.get (Proto.str_field j "code"));
      check_bool "user class, not internal" true
        (Proto.field j "internal" = Some (Json.Bool false));
      (* same connection, same daemon: a per-request budget below the
         server cap also fires ... *)
      send_run c (mk_req ~id:2 ~max_cycles:100 hello_src);
      let j2 = recv_error c in
      check_str "request budget" "cycle-budget"
        (Option.get (Proto.str_field j2 "code")));
  (* ... and with an adequate budget the very same program completes *)
  with_service ~budget:0 (fun ~sock:_ c ->
      send_run c (mk_req ~id:3 hello_src);
      ignore (recv_ok c))

(* N clients submit an identical batch concurrently: exactly one compile,
   one simulation per distinct configuration, byte-identical reply
   streams, every requester answered *)
let test_service_concurrent_identical_batches () =
  let nclients = 4 in
  let batch = [ mk_req ~id:1 ~nprocs:2 hello_src; mk_req ~id:2 ~nprocs:4 hello_src; mk_req ~id:3 ~nprocs:2 hello_src ] in
  with_service ~workers:2 (fun ~sock c ->
      let clients =
        List.init nclients (fun i ->
            if i = 0 then c
            else
              match Client.connect ~sock with
              | Ok c' -> c'
              | Error e -> Alcotest.failf "client %d: %s" i e)
      in
      (* enqueue every batch before reading any reply: the daemon's
         round-robin rounds interleave all four clients *)
      List.iter (fun c -> List.iter (send_run c) batch) clients;
      let streams =
        List.map
          (fun c ->
            List.map
              (fun _ ->
                match Client.recv_line c with
                | Ok l -> l
                | Error e -> Alcotest.failf "recv: %s" e)
              batch)
          clients
      in
      (match streams with
      | first :: rest ->
          List.iteri
            (fun i s ->
              check_bool
                (Printf.sprintf "client %d stream byte-identical" (i + 1))
                true (s = first))
            rest;
          (* replies come back in request order with the right ids *)
          List.iter2
            (fun line (r : Proto.run_req) ->
              match Json.of_string line with
              | Ok j -> check_int "reply order" r.Proto.id (stat j "id")
              | Error e -> Alcotest.fail e)
            first batch
      | [] -> assert false);
      let s = stats c in
      check_int "exactly one compile" 1 (stat s "compile_misses");
      check_int "no disk involved" 0 (stat s "compile_disk_hits");
      (* 12 requests, 2 distinct simulate keys *)
      check_int "two simulations" 2 (stat s "sim_misses");
      check_int "everything else memoized" 10 (stat s "sim_hits");
      List.iteri (fun i c -> if i > 0 then Client.close c) clients)

(* a daemon restarted on the same cache directory warm-starts: the second
   life compiles nothing and the replies are byte-identical *)
let test_service_warm_restart () =
  incr svc_ctr;
  let dir = Printf.sprintf "tcache-%d-%d" (Unix.getpid ()) !svc_ctr in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then (
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir))
    (fun () ->
      let run_once () =
        with_service ~cache_dir:dir (fun ~sock:_ c ->
            send_run c (mk_req ~id:1 hello_src);
            let line =
              match Client.recv_line c with
              | Ok l -> l
              | Error e -> Alcotest.failf "recv: %s" e
            in
            (line, stats c))
      in
      let cold, cs = run_once () in
      check_int "first life compiles" 1 (stat cs "compile_misses");
      check_bool "image persisted" true
        (Sys.readdir dir |> Array.exists (fun f -> Filename.check_suffix f ".pfi"));
      let warm, ws = run_once () in
      check_str "restart reply byte-identical" cold warm;
      check_int "second life compiles nothing" 0 (stat ws "compile_misses");
      check_int "warm-started from disk" 1 (stat ws "compile_disk_hits");
      (* third life: corrupt the cached image — a clean miss, recompile,
         and still the same reply *)
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".pfi" then
            write_file (Filename.concat dir f) "DDSMBIN1 image 2 busted\n")
        (Sys.readdir dir);
      let fixed, fs = run_once () in
      check_str "corrupt cache still answers identically" cold fixed;
      check_int "corrupt entry rejected" 1 (stat fs "compile_disk_rejects");
      check_int "and recompiled" 1 (stat fs "compile_misses"))

let test_service_shutdown_op () =
  with_service (fun ~sock:_ c ->
      send_run c (mk_req ~id:1 hello_src);
      Client.send c (Json.Obj [ ("op", Json.Str "shutdown"); ("id", Json.Int 9) ]);
      (* the queued run is drained before the daemon goes away *)
      ignore (recv_ok c);
      let j = recv_ok c in
      check_int "shutdown ack" 9 (stat j "id");
      match Client.recv_line c with
      | Error _ -> ()
      | Ok l -> Alcotest.failf "daemon still talking after shutdown: %s" l)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "service"
    [
      ( "jobs env",
        [
          Alcotest.test_case "parse table" `Quick test_jobs_parse_table;
          Alcotest.test_case "env defaults" `Quick test_jobs_env_defaults;
        ] );
      ( "json parse",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "forms" `Quick test_json_parse_forms;
          Alcotest.test_case "rejects" `Quick test_json_rejects;
        ] );
      ( "binfile",
        [
          Alcotest.test_case "roundtrip" `Quick test_binfile_roundtrip;
          Alcotest.test_case "kind mismatch" `Quick test_binfile_kind_mismatch;
          Alcotest.test_case "foreign/empty" `Quick test_binfile_foreign_and_empty;
          Alcotest.test_case "stale version" `Quick test_binfile_stale_version;
          Alcotest.test_case "truncated" `Quick test_binfile_truncated;
          Alcotest.test_case "corrupt payload" `Quick test_binfile_corrupt_payload;
          Alcotest.test_case "trailing garbage" `Quick test_binfile_trailing_garbage;
          Alcotest.test_case "crash atomicity" `Quick test_binfile_crash_atomicity;
          Alcotest.test_case "loaders are total" `Quick test_loaders_are_total;
        ] );
      ( "proto",
        [
          Alcotest.test_case "defaults" `Quick test_proto_parse_defaults;
          Alcotest.test_case "canonicalization" `Quick test_proto_canonicalization;
          Alcotest.test_case "errors" `Quick test_proto_errors;
          Alcotest.test_case "cache keys" `Quick test_proto_keys;
        ] );
      ( "service",
        [
          Alcotest.test_case "round-robin fairness" `Quick test_round_robin_order;
          Alcotest.test_case "matches one-shot" `Quick test_service_matches_oneshot;
          Alcotest.test_case "compile error reply" `Quick test_service_compile_error_reply;
          Alcotest.test_case "proto error reply" `Quick test_service_proto_error_reply;
          Alcotest.test_case "line cap" `Quick test_service_line_cap;
          Alcotest.test_case "cycle budget" `Quick test_service_cycle_budget;
          Alcotest.test_case "concurrent identical batches" `Quick
            test_service_concurrent_identical_batches;
          Alcotest.test_case "warm restart" `Quick test_service_warm_restart;
          Alcotest.test_case "shutdown drains" `Quick test_service_shutdown_op;
        ] );
    ]
