(* Structural tests for the compiler transformation passes: scheduling,
   tiling/peeling, reference lowering, hoisting, CSE, div/mod selection.
   (Semantic equivalence against the unoptimized code is tested end-to-end
   in test_exec.ml.) *)

open Ddsm_ir
open Ddsm_frontend
open Ddsm_sema
open Ddsm_transform

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile ?(flags = Flags.all_on) src =
  match Parser.parse_file ~fname:"t.pf" src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok f -> (
      match Sema.analyse_file f with
      | Error es -> Alcotest.failf "sema: %s" (String.concat "; " es)
      | Ok envs -> List.map (Pipeline.run flags) envs)

let main_routine rs = List.hd rs

(* --- small expression census over a routine --- *)
let census (r : Decl.routine) =
  let doacross = ref 0
  and par = ref 0
  and hw_div = ref 0
  and fp_div = ref 0
  and meta = ref 0
  and baseof = ref 0
  and absload = ref 0
  and reshref = ref 0 in
  let rec go t =
    (match t.Stmt.s with
    | Stmt.Doacross _ -> incr doacross
    | Stmt.Par _ -> incr par
    | _ -> ());
    Stmt.iter_exprs
      (fun e ->
        Expr.iter
          (function
            | Expr.Idiv (Expr.Hw, _, _) | Expr.Imod (Expr.Hw, _, _) -> incr hw_div
            | Expr.Idiv (Expr.Fp, _, _) | Expr.Imod (Expr.Fp, _, _) -> incr fp_div
            | Expr.Meta _ -> incr meta
            | Expr.BaseOf _ -> incr baseof
            | Expr.AbsLoad _ -> incr absload
            | Expr.Ref _ -> incr reshref
            | _ -> ())
          e)
      t;
    match t.Stmt.s with
    | Stmt.Do d -> List.iter go d.Stmt.body
    | Stmt.If (_, a, b) ->
        List.iter go a;
        List.iter go b
    | Stmt.Par p -> List.iter go p.Stmt.pbody
    | Stmt.Doacross da -> List.iter go da.Stmt.loop.Stmt.body
    | _ -> ()
  in
  List.iter go r.Decl.rbody;
  (!doacross, !par, !hw_div, !fp_div, !meta, !baseof, !absload, !reshref)

(* count dynamic-position div/mod inside the innermost loops only *)
let rec innermost_divmod (ts : Stmt.t list) =
  List.fold_left
    (fun acc t ->
      match t.Stmt.s with
      | Stmt.Do d ->
          let inner_loops =
            List.exists
              (fun s -> match s.Stmt.s with Stmt.Do _ -> true | _ -> false)
              d.Stmt.body
          in
          if inner_loops then acc + innermost_divmod d.Stmt.body
          else
            let n = ref 0 in
            List.iter
              (fun s ->
                Stmt.iter_exprs
                  (fun e ->
                    Expr.iter
                      (function
                        | Expr.Idiv _ | Expr.Imod _ -> incr n
                        | _ -> ())
                      e)
                  s)
              d.Stmt.body;
            acc + !n
      | Stmt.Par p -> acc + innermost_divmod p.Stmt.pbody
      | Stmt.If (_, a, b) -> acc + innermost_divmod a + innermost_divmod b
      | _ -> acc)
    0 ts

(* does some innermost loop contain no div/mod at all? *)
let innermost_clean_exists (ts : Stmt.t list) =
  let found = ref false in
  let rec go t =
    match t.Stmt.s with
    | Stmt.Do d ->
        let has_inner =
          List.exists (fun s -> match s.Stmt.s with Stmt.Do _ -> true | _ -> false) d.Stmt.body
        in
        if has_inner then List.iter go d.Stmt.body
        else begin
          let n = ref 0 in
          List.iter
            (fun s ->
              Stmt.iter_exprs
                (fun e ->
                  Expr.iter
                    (function Expr.Idiv _ | Expr.Imod _ -> incr n | _ -> ())
                    e)
                s)
            d.Stmt.body;
          if !n = 0 then found := true
        end
    | Stmt.Par p -> List.iter go p.Stmt.pbody
    | Stmt.If (_, a, b) ->
        List.iter go a;
        List.iter go b
    | _ -> ()
  in
  List.iter go ts;
  !found

let simple_src =
  {|
      program p
      integer n, i
      parameter (n = 1000)
      real*8 a(n)
c$distribute_reshape a(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = i
      enddo
      end
|}

let test_doacross_becomes_par () =
  let r = main_routine (compile simple_src) in
  let doacross, par, _, _, _, _, _, _ = census r in
  check_int "no doacross left" 0 doacross;
  check_int "one par region" 1 par

let test_refs_lowered () =
  let r = main_routine (compile simple_src) in
  let _, _, _, _, _, baseof, absload, reshref = census r in
  check_bool "base pointer load present" true (baseof >= 1);
  check_bool "stores lowered" true (absload >= 0);
  check_int "no reshaped Ref remains" 0 reshref

let test_no_divmod_in_inner_loop_when_optimized () =
  let r = main_routine (compile ~flags:Flags.all_on simple_src) in
  check_int "optimized inner loop has no div/mod" 0 (innermost_divmod r.Decl.rbody)

let test_unoptimized_has_divmod () =
  let r = main_routine (compile ~flags:Flags.all_off simple_src) in
  check_bool "unoptimized inner loop has div or mod" true
    (innermost_divmod r.Decl.rbody > 0)

let test_fp_divmod_flag () =
  let _, _, hw, fp, _, _, _, _ =
    census (main_routine (compile ~flags:Flags.all_off simple_src))
  in
  check_bool "all_off uses hw div" true (hw > 0 && fp = 0);
  let _, _, _hw2, fp2, _, _, _, _ =
    census (main_routine (compile ~flags:{ Flags.all_off with Flags.fp_divmod = true } simple_src))
  in
  check_bool "fp flag switches implementation" true (fp2 > 0)

let stencil_src =
  {|
      program p
      integer n, i
      parameter (n = 1000)
      real*8 a(n), b(n)
c$distribute_reshape a(block), b(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 2, n-1
        a(i) = (b(i-1) + b(i) + b(i+1)) / 3
      enddo
      end
|}

let count_loops_under_par (r : Decl.routine) =
  let n = ref 0 in
  let rec go t =
    (match t.Stmt.s with Stmt.Do _ -> incr n | _ -> ());
    match t.Stmt.s with
    | Stmt.Do d -> List.iter go d.Stmt.body
    | Stmt.If (_, a, b) ->
        List.iter go a;
        List.iter go b
    | Stmt.Par p -> List.iter go p.Stmt.pbody
    | _ -> ()
  in
  List.iter go r.Decl.rbody;
  !n

let test_peeling_splits_loop () =
  let with_peel = main_routine (compile ~flags:Flags.all_on stencil_src) in
  let without_peel =
    main_routine
      (compile ~flags:{ Flags.all_on with Flags.peel = false } stencil_src)
  in
  check_bool "peeling creates extra loops" true
    (count_loops_under_par with_peel > count_loops_under_par without_peel);
  (* and the peeled version has a div/mod-free interior loop *)
  check_bool "an interior loop is clean" true
    (innermost_clean_exists with_peel.Decl.rbody)

let test_no_peel_keeps_neighbours_general () =
  let r =
    main_routine (compile ~flags:{ Flags.all_on with Flags.peel = false } stencil_src)
  in
  (* without peeling, b(i-1)/b(i+1) must keep general (div/mod) addressing *)
  check_bool "neighbour refs stay general" true (innermost_divmod r.Decl.rbody > 0)

let serial_tile_src =
  {|
      program p
      integer n, i
      parameter (n = 1000)
      real*8 a(n)
c$distribute_reshape a(block)
      do i = 1, n
        a(i) = i
      enddo
      end
|}

let test_serial_tiling () =
  let tiled = main_routine (compile ~flags:Flags.all_on serial_tile_src) in
  check_int "tiled serial loop is div/mod free inside" 0
    (innermost_divmod tiled.Decl.rbody);
  let untiled = main_routine (compile ~flags:Flags.all_off serial_tile_src) in
  check_bool "untiled pays div/mod" true (innermost_divmod untiled.Decl.rbody > 0)

let transpose_src =
  {|
      program p
      integer n, i, j
      parameter (n = 200)
      real*8 a(n, n), b(n, n)
c$distribute_reshape a(*, block), b(block, *)
c$doacross local(i, j)
      do i = 1, n
        do j = 1, n
          a(j, i) = b(i, j)
        enddo
      enddo
      end
|}

let test_transpose_both_arrays_reduced () =
  (* the i loop anchors A's dim 2 and coincides with B's dim 1 (both are the
     only distributed dimension of equal extent), so both references are
     strength-reduced *)
  let r = main_routine (compile ~flags:Flags.all_on transpose_src) in
  check_int "transpose interior is div/mod free" 0 (innermost_divmod r.Decl.rbody)

let skew_src =
  {|
      program p
      integer n, i, k
      parameter (n = 1000)
      real*8 a(n)
c$distribute_reshape a(block)
      k = 7
      do i = 1, n - 2*k
        a(i + 2*k) = i
      enddo
      end
|}

let test_skewing_enables_tiling () =
  (* with skewing the loop is tiled and its interior is div/mod free *)
  let skewed = main_routine (compile ~flags:Flags.all_on skew_src) in
  check_int "skewed interior clean" 0 (innermost_divmod skewed.Decl.rbody);
  (* without skewing the symbolic offset defeats tiling *)
  let unskewed =
    main_routine (compile ~flags:{ Flags.all_on with Flags.skew = false } skew_src)
  in
  check_bool "no skew -> div/mod remain" true
    (innermost_divmod unskewed.Decl.rbody > 0)

let test_hoist_moves_meta_out () =
  let no_hoist =
    main_routine (compile ~flags:{ Flags.all_on with Flags.hoist = false; cse = false } simple_src)
  in
  let hoist = main_routine (compile ~flags:Flags.all_on simple_src) in
  (* count Meta/BaseOf occurrences inside innermost loops *)
  let rec inner_meta ts =
    List.fold_left
      (fun acc t ->
        match t.Stmt.s with
        | Stmt.Do d ->
            let has_inner =
              List.exists (fun s -> match s.Stmt.s with Stmt.Do _ -> true | _ -> false) d.Stmt.body
            in
            if has_inner then acc + inner_meta d.Stmt.body
            else
              let n = ref 0 in
              List.iter
                (fun s ->
                  Stmt.iter_exprs
                    (fun e ->
                      Expr.iter
                        (function Expr.Meta _ | Expr.BaseOf _ -> incr n | _ -> ())
                        e)
                    s)
                d.Stmt.body;
              acc + !n
        | Stmt.Par p -> acc + inner_meta p.Stmt.pbody
        | Stmt.If (_, a, b) -> acc + inner_meta a + inner_meta b
        | _ -> acc)
      0 ts
  in
  check_bool "hoisting empties innermost loops of meta loads" true
    (inner_meta hoist.Decl.rbody < inner_meta no_hoist.Decl.rbody);
  check_int "fully hoisted" 0 (inner_meta hoist.Decl.rbody)

let test_cse_dedups () =
  (* same reshaped element read twice in one statement: CSE shares the
     address computation *)
  let src =
    {|
      program p
      integer n, i
      parameter (n = 100)
      real*8 a(n), s
c$distribute_reshape a(cyclic)
      s = 0.0
      do i = 1, n
        s = a(i) * a(i)
      enddo
      end
|}
  in
  let with_cse =
    main_routine (compile ~flags:{ Flags.all_off with Flags.cse = true } src)
  in
  let without =
    main_routine (compile ~flags:Flags.all_off src)
  in
  let _, _, hw_with, _, _, _, _, _ = census with_cse in
  let _, _, hw_without, _, _, _, _, _ = census without in
  check_bool "CSE reduced static div/mod count" true (hw_with < hw_without)

(* --- §7.2 hoisting and CSE against their references ([Hoist_ref],
   [Cse_ref]): the original implementations, which re-walk every subtree
   (hoisting) or the whole block per candidate (CSE) --- *)

(* The pass sequence of [Pipeline.run] with the hoisting and CSE passes
   supplied, on a fresh [Tctx] (so fresh temporary names are numbered
   identically). *)
let pipeline ~hoist ~cse flags (env : Sema.env) =
  let ctx = Tctx.create env in
  let surface =
    if flags.Flags.inspector then Inspector.routine ctx env.Sema.routine
    else env.Sema.routine
  in
  let r = Lower.routine ctx flags surface in
  let r = if flags.Flags.interchange then Interchange.routine r else r in
  let r = if flags.Flags.hoist then hoist ctx r else r in
  let r = if flags.Flags.cse then cse ctx r else r in
  if flags.Flags.fp_divmod then Divmod.routine r else r

(* structurally equal, and equal as marshalled bytes (sharing included:
   linked images are marshalled) *)
let same_routine what (a : Decl.routine) (b : Decl.routine) =
  if compare a b <> 0 || Marshal.to_string a [] <> Marshal.to_string b [] then
    Alcotest.failf "%s: the passes and their references disagree on routine %s" what
      a.Decl.rname

let check_passes_match_ref what (fname, src) =
  match Parser.parse_file ~fname src with
  | Error e -> Alcotest.failf "%s: parse: %s" what e
  | Ok f -> (
      match Sema.analyse_file f with
      | Error es -> Alcotest.failf "%s: sema: %s" what (String.concat "; " es)
      | Ok envs ->
          List.iter
            (fun env ->
              let got = pipeline ~hoist:Hoist.routine ~cse:Cse.routine Flags.all_on env in
              same_routine what got
                (pipeline ~hoist:Hoist_ref.routine ~cse:Cse_ref.routine Flags.all_on env);
              same_routine (what ^ " (Pipeline.run)") got (Pipeline.run Flags.all_on env))
            envs)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_cse_ref_examples () =
  (* under dune the test runs in _build/default/test *)
  let dir =
    List.find Sys.file_exists [ "../examples/programs"; "examples/programs" ]
  in
  let pfs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".pf")
    |> List.sort compare
  in
  check_bool "example programs found" true (List.length pfs >= 9);
  List.iter
    (fun f -> check_passes_match_ref f (f, read_file (Filename.concat dir f)))
    pfs

let test_cse_ref_generated () =
  let size = Ddsm_fuzz.Gen.of_level 30 in
  let subs = ref 0 in
  for seed = 0 to 199 do
    let files = Ddsm_fuzz.Spec.render (Ddsm_fuzz.Gen.generate ~size ~seed ()) in
    if List.length files > 1 then incr subs;
    List.iter (check_passes_match_ref (Printf.sprintf "seed %d" seed)) files
  done;
  check_bool "some seeds have subroutines" true (!subs > 0)

(* Hand-written blocks run through the CSE pass alone. *)
let cse_block_matches_ref body =
  let env =
    match Sema.analyse_file (Result.get_ok (Parser.parse_file ~fname:"t.pf" simple_src)) with
    | Ok (env :: _) -> { env with Sema.routine = { env.Sema.routine with Decl.rbody = body } }
    | _ -> Alcotest.fail "sema"
  in
  let got = Cse.routine (Tctx.create env) env.Sema.routine in
  same_routine "hand-written block" got (Cse_ref.routine (Tctx.create env) env.Sema.routine);
  got.Decl.rbody

let assign x e = Stmt.mk (Stmt.Assign (Stmt.LVar x, e))
let div v k = Expr.Idiv (Expr.Hw, Expr.Var v, Expr.Int k)

let cse_temps body =
  List.length
    (List.filter
       (fun t ->
         match t.Stmt.s with
         | Stmt.Assign (Stmt.LVar x, _) -> String.starts_with ~prefix:"cse" x
         | _ -> false)
       body)

let test_cse_ref_round_cap () =
  (* 60 profitable candidates, each occurring twice: only 51 rounds run *)
  let body =
    List.init 60 (fun k ->
        assign (Printf.sprintf "x%d" k) (Expr.Bin (Expr.Add, div "n" (k + 2), div "n" (k + 2))))
  in
  check_int "stops at the round cap" 51 (cse_temps (cse_block_matches_ref body))

let test_cse_ref_tie_break () =
  (* n/3 and m/5 both occur twice in a kill-free segment, with equal size;
     n/3 also has a second segment of count 2 after [n] is reassigned *)
  let body =
    [
      assign "x1" (div "n" 3);
      assign "y1" (div "m" 5);
      assign "x2" (div "n" 3);
      assign "y2" (div "m" 5);
      assign "n" (Expr.Int 7);
      assign "x3" (div "n" 3);
      assign "x4" (div "n" 3);
    ]
  in
  check_int "every tied segment gets its temp" 3 (cse_temps (cse_block_matches_ref body));
  (* an expression with a nan literal is never equal to itself *)
  let nan_div = Expr.Bin (Expr.Mul, Expr.Real Float.nan, div "n" 3) in
  let body = [ assign "x1" nan_div; assign "x2" nan_div; assign "x3" nan_div ] in
  check_int "only n/3 is shared" 1 (cse_temps (cse_block_matches_ref body))

let test_cyclic_figure2 () =
  let src =
    {|
      program p
      integer n, i
      parameter (n = 100)
      real*8 a(n)
c$distribute a(cyclic)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = i
      enddo
      end
|}
  in
  let r =
    main_routine (compile ~flags:{ Flags.all_on with Flags.cse = false } src)
  in
  (* the scheduled loop must step by P (a Meta procs expression) *)
  let found = ref false in
  let rec go t =
    match t.Stmt.s with
    | Stmt.Do d ->
        (match d.Stmt.step with
        | Some (Expr.Meta (_, Expr.Procs _)) -> found := true
        | _ -> ());
        List.iter go d.Stmt.body
    | Stmt.Par p -> List.iter go p.Stmt.pbody
    | Stmt.If (_, a, b) ->
        List.iter go a;
        List.iter go b
    | _ -> ()
  in
  List.iter go r.Decl.rbody;
  check_bool "cyclic loop steps by P" true !found

let test_interchange_bubbles_ptile () =
  (* serial nest over a column-distributed array: the j loop tiles, and the
     ptile loop should bubble above the i loop inside the Par region of an
     enclosing simple doacross... use a serial nest in a doacross region *)
  let src =
    {|
      program p
      integer n, i, j
      parameter (n = 100)
      real*8 a(n, n)
c$distribute_reshape a(block, *)
c$doacross local(i, j)
      do j = 1, n
        do i = 1, n
          a(i, j) = i + j
        enddo
      enddo
      end
|}
  in
  let flags = Flags.all_on in
  let r = main_routine (compile ~flags src) in
  (* find a ptile loop that directly contains a data loop (interchanged) *)
  let found = ref false in
  let rec go t =
    match t.Stmt.s with
    | Stmt.Do d ->
        (if String.length d.Stmt.var >= 5 && String.sub d.Stmt.var 0 5 = "ptile"
         then
           List.iter
             (fun s ->
               match s.Stmt.s with
               | Stmt.Do inner
                 when not
                        (String.length inner.Stmt.var >= 5
                        && String.sub inner.Stmt.var 0 5 = "ptile") ->
                   found := true
               | _ -> ())
             d.Stmt.body);
        List.iter go d.Stmt.body
    | Stmt.Par p -> List.iter go p.Stmt.pbody
    | Stmt.If (_, a, b) ->
        List.iter go a;
        List.iter go b
    | _ -> ()
  in
  List.iter go r.Decl.rbody;
  check_bool "a ptile loop directly wraps a data loop" !found true

let () =
  Alcotest.run "transform"
    [
      ( "lowering",
        [
          Alcotest.test_case "doacross -> Par" `Quick test_doacross_becomes_par;
          Alcotest.test_case "reshaped refs lowered" `Quick test_refs_lowered;
          Alcotest.test_case "cyclic schedule (Figure 2)" `Quick test_cyclic_figure2;
        ] );
      ( "tiling",
        [
          Alcotest.test_case "optimized inner loop div/mod free" `Quick
            test_no_divmod_in_inner_loop_when_optimized;
          Alcotest.test_case "unoptimized pays div/mod" `Quick test_unoptimized_has_divmod;
          Alcotest.test_case "peeling" `Quick test_peeling_splits_loop;
          Alcotest.test_case "no-peel keeps neighbours general" `Quick
            test_no_peel_keeps_neighbours_general;
          Alcotest.test_case "serial tiling" `Quick test_serial_tiling;
          Alcotest.test_case "transpose coincident groups" `Quick
            test_transpose_both_arrays_reduced;
          Alcotest.test_case "interchange bubbles ptile loops" `Quick
            test_interchange_bubbles_ptile;
          Alcotest.test_case "skewing enables tiling" `Quick test_skewing_enables_tiling;
        ] );
      ( "scalar opts",
        [
          Alcotest.test_case "hoisting" `Quick test_hoist_moves_meta_out;
          Alcotest.test_case "CSE" `Quick test_cse_dedups;
          Alcotest.test_case "hoist+CSE = reference on examples" `Quick test_cse_ref_examples;
          Alcotest.test_case "hoist+CSE = reference on generated programs" `Quick
            test_cse_ref_generated;
          Alcotest.test_case "CSE = reference at the round cap" `Quick test_cse_ref_round_cap;
          Alcotest.test_case "CSE = reference on a tie" `Quick test_cse_ref_tie_break;
          Alcotest.test_case "fp div/mod flag" `Quick test_fp_divmod_flag;
        ] );
    ]
