(* Content-addressed caches for the pfld daemon.

   Two layers, both keyed by Proto digests:

   - compiled: compile key -> encoded image, the Binfile bytes of a
     [Prelink.linked] ({!Ddsm.encode_image}). The cache never holds a
     decoded image: a string is never marked by the GC, while the decoded
     images of a few hundred sources are most of the daemon's heap, and
     every simulation's runtime heap forces major cycles that would mark
     them all. Backed by an optional on-disk directory holding the same
     bytes (<dir>/<key>.pfi, written atomically), so a restarted daemon
     warm-starts its compile cache. A corrupt, truncated or stale-version
     cache file is counted and treated as a clean miss — never an error,
     never a crash. In memory the entries are bounded by
     [max_memory_bytes], oldest first out; an evicted entry still on disk
     comes back as a disk hit.

   - sims: simulate key -> memoized reply body (id-less JSON fields).
     In-memory only: replies are small and cheap to recompute after a
     restart once the compile cache is warm.

   All access is from the daemon's control thread, which also runs every
   simulation; each simulation decodes its own image. *)

module Ddsm = Ddsm_core.Ddsm
module Json = Ddsm_report.Json

let max_memory_bytes = 64 lsl 20

type t = {
  dir : string option;
  compiled : (string, string) Hashtbl.t;
  order : string Queue.t;  (** keys of [compiled], oldest first *)
  mutable bytes : int;  (** total length of [compiled]'s images *)
  sims : (string, (string * Json.t) list) Hashtbl.t;
  mutable compile_hits : int;  (** served from memory *)
  mutable compile_disk_hits : int;  (** served from the cache directory *)
  mutable compile_misses : int;  (** actually compiled *)
  mutable compile_disk_rejects : int;
      (** corrupt/stale cache files skipped (each one is also a miss) *)
  mutable compile_evictions : int;  (** dropped from memory by the bound *)
  mutable sim_hits : int;
  mutable sim_misses : int;
}

let create ?dir () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> (
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | _ -> ());
  {
    dir;
    compiled = Hashtbl.create 64;
    order = Queue.create ();
    bytes = 0;
    sims = Hashtbl.create 256;
    compile_hits = 0;
    compile_disk_hits = 0;
    compile_misses = 0;
    compile_disk_rejects = 0;
    compile_evictions = 0;
    sim_hits = 0;
    sim_misses = 0;
  }

let image_path dir key = Filename.concat dir (key ^ ".pfi")

(* Callers look a key up before storing it, so a key is added once per
   stay in memory; the guard keeps [order] and [bytes] exact regardless.
   An entry larger than the whole bound is evicted at once. *)
let remember t ~key image =
  if not (Hashtbl.mem t.compiled key) then begin
    Hashtbl.replace t.compiled key image;
    Queue.push key t.order;
    t.bytes <- t.bytes + String.length image;
    while t.bytes > max_memory_bytes do
      let old = Queue.pop t.order in
      t.bytes <- t.bytes - String.length (Hashtbl.find t.compiled old);
      Hashtbl.remove t.compiled old;
      t.compile_evictions <- t.compile_evictions + 1
    done
  end

(* Memory first, then the cache directory. Counts exactly one of
   {hit, disk hit, miss} per call; a rejected disk file counts both a
   reject and a miss. *)
let find_compiled t ~key =
  match Hashtbl.find_opt t.compiled key with
  | Some image ->
      t.compile_hits <- t.compile_hits + 1;
      Some image
  | None -> (
      match t.dir with
      | None ->
          t.compile_misses <- t.compile_misses + 1;
          None
      | Some dir -> (
          let path = image_path dir key in
          if not (Sys.file_exists path) then begin
            t.compile_misses <- t.compile_misses + 1;
            None
          end
          else
            match Ddsm.read_image ~path with
            | Ok image ->
                t.compile_disk_hits <- t.compile_disk_hits + 1;
                remember t ~key image;
                Some image
            | Error _ ->
                (* torn/stale/foreign cache entry: a clean miss *)
                t.compile_disk_rejects <- t.compile_disk_rejects + 1;
                t.compile_misses <- t.compile_misses + 1;
                None))

let store_compiled t ~key image =
  remember t ~key image;
  match t.dir with
  | None -> ()
  | Some dir -> (
      (* best-effort persistence: an unwritable cache directory degrades
         the daemon to memory-only, it never fails a request *)
      try Ddsm_linker.Binfile.write ~path:(image_path dir key) image
      with Sys_error _ -> ())

(* sim counting is done by the scheduler: a lookup that misses but is
   satisfied by a within-round duplicate's computation is still a hit
   (it cost no simulation), which only the round logic can know *)
let find_sim t ~key = Hashtbl.find_opt t.sims key
let store_sim t ~key body = Hashtbl.replace t.sims key body

let stats_fields t =
  [
    ("compile_hits", Json.Int t.compile_hits);
    ("compile_disk_hits", Json.Int t.compile_disk_hits);
    ("compile_misses", Json.Int t.compile_misses);
    ("compile_disk_rejects", Json.Int t.compile_disk_rejects);
    ("compile_evictions", Json.Int t.compile_evictions);
    ("sim_hits", Json.Int t.sim_hits);
    ("sim_misses", Json.Int t.sim_misses);
  ]
