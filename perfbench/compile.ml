(* Compiling a single-file program to a linked image: either through the
   facade in one call (untraced runs), or layer by layer with a span around
   each layer's public entry point (traced runs). Both paths end in the
   same [Objfile.compile] + [Prelink.link] calls, so they yield the same
   image. *)

module Ddsm = Ddsm_core.Ddsm
module Objfile = Ddsm_linker.Objfile
module Prelink = Ddsm_linker.Prelink
module Flags = Ddsm_transform.Flags

let join = String.concat "; "

let plain ~fname src =
  match Ddsm.compile_source ~fname src with
  | Error es -> Error (join es)
  | Ok obj -> (
      match Ddsm.link [ obj ] with
      | Error es -> Error (join es)
      | Ok (_, linked) -> Ok linked)

(* Per-layer counts gathered beside the spans. *)
let routines = ref 0
let recompilations = ref 0
let image_bytes = ref 0

let digest (l : Prelink.linked) = Digest.string (Marshal.to_string l [])

(* [traced ~scratch ~fname src] also round-trips the image through
   [save_image]/[load_image] in directory [scratch] (the path the pfld
   cache directory takes) and fails if the reloaded image differs. *)
let traced ~scratch ~fname src =
  match Spans.span "frontend.parse" (fun () -> Ddsm.parse ~fname src) with
  | Error e -> Error e
  | Ok file -> (
      (* sema and the pass pipeline on their own: [Objfile.compile] runs
         both again inside, so its self time is its span minus these *)
      (match Spans.span "sema.analyse" (fun () -> Ddsm_sema.Sema.analyse_file file) with
      | Error _ -> ()
      | Ok envs ->
          List.iter
            (fun env ->
              incr routines;
              ignore
                (Spans.span "transform.pipeline" (fun () ->
                     Ddsm_transform.Pipeline.run Flags.all_on env)))
            envs);
      match Spans.span "linker.objfile" (fun () -> Objfile.compile file) with
      | Error es -> Error (join es)
      | Ok obj -> (
          match Spans.span "linker.prelink" (fun () -> Prelink.link [ obj ]) with
          | Error es -> Error (join es)
          | Ok linked -> (
              recompilations := !recompilations + linked.Prelink.recompilations;
              let path =
                Filename.concat scratch
                  (Printf.sprintf "img%d.pfi" (Spans.calls "linker.prelink"))
              in
              Spans.span "linker.image_save" (fun () -> Ddsm.save_image linked ~path);
              image_bytes := !image_bytes + (Unix.stat path).Unix.st_size;
              let loaded = Spans.span "linker.image_load" (fun () -> Ddsm.load_image ~path) in
              Sys.remove path;
              match loaded with
              | Error e -> Error ("image reload: " ^ e)
              | Ok l when digest l <> digest linked -> Error "image reload: image differs"
              | Ok _ -> Ok linked)))
