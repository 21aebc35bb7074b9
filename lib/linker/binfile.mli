(** Hardened container for Marshal-persisted artifacts (object files,
    linked images, the daemon's compile cache).

    A bare [Marshal.from_channel] on an untrusted path is a crash (or
    worse) waiting to happen: truncated files, files written by an older
    build, or arbitrary foreign bytes all reach the unmarshaller
    unchecked. [Binfile] frames every payload with a one-line text
    header — magic, artifact kind, format version, payload length and an
    MD5 digest — and only unmarshals bytes that passed every check, so a
    bad file is always a diagnosable [Error], never an exception or
    undefined behaviour. The framed bytes are the same in memory
    ({!encode}/{!decode}) and on disk ({!save}/{!load}).

    Writes are atomic: the payload goes to a fresh temp file in the target
    directory which is then renamed into place, so a reader (or a
    concurrent daemon worker) either sees the complete old file, the
    complete new file, or no file — never a torn one. *)

val format_version : int
(** Bumped whenever the marshalled representation of any persisted type
    changes; old files then fail {!load} with a "stale version" error
    instead of unmarshalling garbage. *)

val encode : kind:string -> 'a -> string
(** [encode ~kind v] is [v] marshalled and framed: the exact bytes {!save}
    writes to disk. The result is a plain string, so a cache of encoded
    values costs the garbage collector nothing to mark, however large the
    decoded values would be. Raises [Invalid_argument] if [kind] contains
    a space or a newline. *)

val decode : kind:string -> string -> ('a, string) result
(** [decode ~kind s] validates magic, kind, version, length and digest
    before unmarshalling. Errors (unlocated) say which check failed: not
    a DDSM file, wrong artifact kind, stale format version, truncated,
    trailing garbage, or digest mismatch. *)

val save : kind:string -> path:string -> 'a -> unit
(** [save ~kind ~path v] is [write ~path (encode ~kind v)]. *)

val write : path:string -> string -> unit
(** [write ~path s] atomically installs the already encoded bytes [s] at
    [path]. Raises [Sys_error] on OS failures (unwritable directory,
    full disk); the target is untouched in that case. *)

val read : kind:string -> path:string -> (string, string) result
(** [read ~kind ~path] is the whole file at [path] once it has passed
    every check {!decode} makes, not yet unmarshalled. Errors are located
    (they start with [path]). *)

val load : kind:string -> path:string -> ('a, string) result
(** [load ~kind ~path] is {!decode} on the file at [path], with located
    errors. *)

(** {2 Fault injection (tests only)}

    Simulates a writer killed mid-write: {!write} (so {!save}) raises
    {!Crashed} after the temp file has received the header line and
    [after_bytes] bytes of payload, leaving the torn temp file on disk but never renaming it into place — the
    machinery the atomic-write test uses to prove readers cannot observe
    a partial file. The plan is one-shot: it clears when it fires. *)

exception Crashed

val inject_crash : after_bytes:int -> unit
val clear_crash : unit -> unit
