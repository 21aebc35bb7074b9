(* The pfld-mix request stream. Each request is one of four classes:

   - cold: a source the daemon has never seen (compile + simulate);
   - resim: an earlier source at a processor count / placement it has not
     run at (simulate only);
   - hit: an exact repeat of an earlier cold or resim request (answered
     from the simulation cache);
   - budget: an earlier source with a [max_cycles] far below its run time
     (must answer the cycle-budget diagnosis).

   The sources are a fixed pool: every size variant of the six kernels,
   and single-file generated programs (with subroutines, so the
   pre-linker's cloning runs) from fixed generator seeds. Each source is
   sent cold once and resimulated once, at two configurations fixed per
   source. The workload seed orders the pool, the class sequence, and the
   requests that hits and budget requests refer to. So every seed asks for
   the same compile and simulate work, and runs with different seeds
   measure the same thing; a seed-dependent pool made the work per pass
   vary by 20% between seeds.

   Under the closed loop of two connections a request is sent only after
   every request two or more places before it has been answered, so a
   request refers only to those: a hit is then always a cache hit, and a
   resim always finds its source compiled. *)

module Gen = Ddsm_fuzz.Gen
module Spec = Ddsm_fuzz.Spec
module Json = Ddsm_report.Json
module Proto = Ddsm_service.Proto

type cls = Cold | Resim | Hit | Budget

let classes = [ Cold; Resim; Hit; Budget ]

let cls_name = function
  | Cold -> "cold"
  | Resim -> "resim"
  | Hit -> "hit"
  | Budget -> "budget"

(* Percent of requests per class. pfld has no recorded request log, and
   the repository's own batches (bench/service.ml sends 50 sources cold,
   then the same 50 again; the CI smoke replays one batch twice) have
   neither resim nor budget requests. So these shares are an assumption:
   - cold = resim: each source is compiled once and re-run once at
     another processor count or placement, as the paper's kernels are run
     at several processor counts;
   - hits a third: an exact repeat of an earlier request, as a user
     re-running an unchanged program sends; fewer than the half of the
     repository's replay batches, because here resims take part of the
     repeat traffic;
   - budget a few, enough to take the error path every pass without
     weighing on its time.
   The per-class latencies (service.*_ms_p50) are reported so that the
   effect of another mix can be read off. *)
let share = function Cold -> 30 | Resim -> 30 | Hit -> 35 | Budget -> 5

type req = {
  cls : cls;
  src : int;  (** index into [sources] *)
  nprocs : int;
  policy : string;
  max_cycles : int option;
  repeats : int option;  (** a hit's original request *)
}

type source = {
  fname : string;
  text : string;
  prints : string list;  (** the reference interpreter's *)
}

type t = { sources : source array; reqs : req array }

let configs =
  Array.of_list
    (List.concat_map
       (fun np -> [ (np, "first-touch"); (np, "round-robin") ])
       [ 1; 2; 4; 8; 16 ])

(* The two configurations source [s] runs at: cold, then resim. *)
let cold_config s = configs.(s * 3 mod 10)
let resim_config s = configs.(((s * 3) + 5) mod 10)

(* well below the few thousand cycles any program's initialisation takes *)
let budget_cycles = 40

(* Generated programs: one file, up to three subroutines. *)
let gen_size = { (Gen.of_level 30) with Gen.max_files = 1 }

(* A candidate source is kept only if it compiles and the reference
   interpreter runs it, so no request of the stream is expected to fail.
   The image is not kept: a stream holds hundreds of sources, and a large
   live heap would slow every simulation the benchmark itself runs. *)
let admit ~compile (fname, text) =
  match Refs.interp_prints ~fname text with
  | Error _ -> None
  | Ok prints -> (
      match compile ~fname text with
      | Error _ -> None
      | Ok _ -> Some { fname; text; prints })

(* Every kernel variant, then generated programs from seeds 1, 2, ...
   until the pool holds [size] sources. *)
let pool ~compile ~kernels ~size =
  let admitted = List.filter_map (admit ~compile) (Kernels.variants kernels) in
  let rec gen seed acc k =
    if k = 0 then List.rev acc
    else
      match Spec.render (Gen.generate ~size:gen_size ~seed ()) with
      | [ file ] -> (
          match admit ~compile (Printf.sprintf "gen%d.pf" seed, snd file) with
          | Some s -> gen (seed + 1) (s :: acc) (k - 1)
          | None -> gen (seed + 1) acc k)
      | _ -> gen (seed + 1) acc k
  in
  admitted @ gen 1 [] (size - List.length admitted)

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l |> List.sort compare |> List.map snd

(* [n] requests; the pool holds one source per cold request. *)
let generate ~compile ~kernels ~seed ~n =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let count c = n * share c / 100 in
  let sources = Array.of_list (shuffle rng (pool ~compile ~kernels ~size:(count Cold))) in
  let seq =
    Array.of_list
      (shuffle rng
         (List.concat_map
            (fun c -> List.init (if c = Hit then n - count Cold - count Resim - count Budget else count c) (fun _ -> c))
            classes))
  in
  let reqs = Array.make n { cls = Cold; src = 0; nprocs = 1; policy = ""; max_cycles = None; repeats = None } in
  let next_src = ref 0 in
  (* sources sent cold and not yet resimulated, and cold/resim request
     indices, each with the index of the request that made it eligible *)
  let unresimmed = ref [] and simulated = ref [] in
  let eligible i l = List.filter (fun (k, _) -> k <= i - 2) l in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let feasible i = function
    | Cold -> !next_src < Array.length sources
    | Resim -> eligible i !unresimmed <> []
    | Hit | Budget -> eligible i !simulated <> []
  in
  for i = 0 to n - 1 do
    (* an infeasible class trades places with the next cold request *)
    (if not (feasible i seq.(i)) then
       match List.find_opt (fun k -> seq.(k) = Cold) (List.init (n - i) (fun d -> i + d)) with
       | Some k when feasible i Cold ->
           seq.(k) <- seq.(i);
           seq.(i) <- Cold
       | _ -> seq.(i) <- Hit);
    let r =
      match seq.(i) with
      | Cold ->
          let s = !next_src in
          incr next_src;
          let np, policy = cold_config s in
          unresimmed := (i, s) :: !unresimmed;
          { cls = Cold; src = s; nprocs = np; policy; max_cycles = None; repeats = None }
      | Resim ->
          let ((_, s) as e) = pick (eligible i !unresimmed) in
          unresimmed := List.filter (( != ) e) !unresimmed;
          let np, policy = resim_config s in
          { cls = Resim; src = s; nprocs = np; policy; max_cycles = None; repeats = None }
      | Hit ->
          let k, _ = pick (eligible i !simulated) in
          { (reqs.(k)) with cls = Hit; repeats = Some k }
      | Budget ->
          let _, s = pick (eligible i !simulated) in
          let np, policy = configs.(Random.State.int rng 10) in
          { cls = Budget; src = s; nprocs = np; policy; max_cycles = Some (budget_cycles + i); repeats = None }
    in
    reqs.(i) <- r;
    if r.cls = Cold || r.cls = Resim then simulated := (i, r.src) :: !simulated
  done;
  { sources; reqs }

(* The share of each class, and the distinct compile and simulate keys. *)
let summary t =
  let n = Array.length t.reqs in
  let count c = Array.fold_left (fun s r -> if r.cls = c then s + 1 else s) 0 t.reqs in
  let sims = Array.fold_left (fun s r -> if r.cls = Hit then s else s + 1) 0 t.reqs in
  Printf.sprintf "%d requests: %s; %d distinct sources, %d distinct simulate keys" n
    (String.concat ", "
       (List.map
          (fun c -> Printf.sprintf "%s %.1f%%" (cls_name c) (100. *. Report.ratio (count c) n))
          classes))
    (Array.length t.sources) sims

(* The wire form of request [i]. Machine and heap are left to the
   daemon's defaults. *)
let to_wire t i =
  let r = t.reqs.(i) and s = t.sources.(t.reqs.(i).src) in
  Json.Obj
    ([
       ("op", Json.Str "run"); ("id", Json.Int i); ("source", Json.Str s.text);
       ("fname", Json.Str s.fname); ("nprocs", Json.Int r.nprocs); ("policy", Json.Str r.policy);
     ]
    @ match r.max_cycles with None -> [] | Some c -> [ ("max_cycles", Json.Int c) ])

(* Request [i] as the daemon parses it, with those defaults filled in. *)
let run_req t i =
  match Proto.request_of_line (Json.to_string (to_wire t i)) with
  | Ok (Proto.Run r) -> r
  | Ok _ -> invalid_arg "Stream.run_req"
  | Error e -> failwith e
