(* Reference hoisting: the original implementation of the §7.2 pass, kept
   verbatim as the test oracle for [Hoist]. [extract] re-tests [hoistable]
   at every node top-down, re-walking each subtree once per ancestor.
   Test-only: test_transform.ml runs the pass pipeline with each and
   requires structurally equal routines, fresh temporary names included. *)

open Ddsm_transform
open Ddsm_ir

let rec contains_expensive (e : Expr.t) =
  match e with
  | Expr.Meta _ | Expr.BaseOf _ | Expr.Idiv _ | Expr.Imod _ -> true
  | _ ->
      let found = ref false in
      (match e with
      | Expr.Ref (_, subs) | Expr.Intrin (_, subs) ->
          List.iter (fun x -> if contains_expensive x then found := true) subs
      | Expr.Bin (_, a, b) | Expr.Rel (_, a, b) | Expr.Log (_, a, b) ->
          found := contains_expensive a || contains_expensive b
      | Expr.Not a | Expr.Neg a | Expr.AbsLoad (_, a) -> found := contains_expensive a
      | _ -> ());
      !found

(* [GatherBase] counts as a memory read: its value is defined by the most
   recent execution of its site's [Stmt.Gather], so it must never move
   above one. *)
let reads_memory e =
  Expr.exists
    (function
      | Expr.AbsLoad _ | Expr.Ref _ | Expr.GatherBase _ -> true | _ -> false)
    e

let has_string e = Expr.exists (function Expr.Str _ -> true | _ -> false) e

(* Arrays whose layout a statement may change: any c$redistribute reachable
   inside [t], including nested bodies. [Meta]/[BaseOf] of such an array read
   the live layout tables, so they are not invariant across the statement. *)
let rec redistributed_arrays (t : Stmt.t) =
  match t.Stmt.s with
  | Stmt.Redistribute r -> [ r.Stmt.rarray ]
  | Stmt.Do d -> List.concat_map redistributed_arrays d.Stmt.body
  | Stmt.If (_, th, el) ->
      List.concat_map redistributed_arrays th
      @ List.concat_map redistributed_arrays el
  | Stmt.Par p -> List.concat_map redistributed_arrays p.Stmt.pbody
  | Stmt.Doacross da -> List.concat_map redistributed_arrays da.Stmt.loop.Stmt.body
  | _ -> []

(* Arrays whose layout tables an expression consults. *)
let meta_arrays e =
  let acc = ref [] in
  Expr.iter
    (function
      | Expr.Meta (a, _) | Expr.BaseOf (a, _) ->
          if not (List.mem a !acc) then acc := a :: !acc
      | _ -> ())
    e;
  !acc

let invariant ~killed ~relaid e =
  (not (reads_memory e))
  && (not (has_string e))
  && List.for_all (fun v -> not (List.mem v killed)) (Expr.free_vars e)
  && List.for_all (fun a -> not (List.mem a relaid)) (meta_arrays e)

let size e =
  let n = ref 0 in
  Expr.iter (fun _ -> incr n) e;
  !n

(* Hoist (a) anything containing the unsafe-but-constant expensive ops the
   paper targets, and (b) ordinary invariant arithmetic of non-trivial size
   — the job of the "regular loop-nest optimizations" the reshaped code is
   integrated with (§7.4 step 2). Without (b), lowered address arithmetic
   would be recomputed per iteration, which no production compiler does. *)
let hoistable ~killed ~relaid e =
  invariant ~killed ~relaid e
  && (contains_expensive e || size e >= 3)
  && (match e with Expr.Int _ | Expr.Real _ | Expr.Var _ -> false | _ -> true)

(* Replace maximal hoistable subtrees top-down; records (temp, expr) pairs. *)
let rec extract ctx ~killed ~relaid ~acc (e : Expr.t) : Expr.t =
  if hoistable ~killed ~relaid e then begin
    (* reuse a temp if the same expression was already extracted *)
    match List.assoc_opt e !acc with
    | Some tv -> Expr.Var tv
    | None ->
        let tv = Tctx.fresh ctx "hoist" in
        acc := (e, tv) :: !acc;
        Expr.Var tv
  end
  else
    let r = extract ctx ~killed ~relaid ~acc in
    match e with
    | Expr.Int _ | Expr.Real _ | Expr.Str _ | Expr.Var _ | Expr.Meta _
    | Expr.GatherBase _ ->
        e
    | Expr.Ref (a, subs) -> Expr.Ref (a, List.map r subs)
    | Expr.Bin (op, a, b) -> Expr.Bin (op, r a, r b)
    | Expr.Rel (op, a, b) -> Expr.Rel (op, r a, r b)
    | Expr.Log (op, a, b) -> Expr.Log (op, r a, r b)
    | Expr.Not a -> Expr.Not (r a)
    | Expr.Neg a -> Expr.Neg (r a)
    | Expr.Intrin (n, args) -> Expr.Intrin (n, List.map r args)
    | Expr.Idiv (i, a, b) -> Expr.Idiv (i, r a, r b)
    | Expr.Imod (i, a, b) -> Expr.Imod (i, r a, r b)
    | Expr.BaseOf (a, x) -> Expr.BaseOf (a, r x)
    | Expr.AbsLoad (ty, x) -> Expr.AbsLoad (ty, r x)

(* Like Stmt.map_exprs, but does not descend into Par regions: their
   expressions reference the worker-private myp$/np$ bindings and may only
   be hoisted within the region (handled when recursion reaches it). *)
let rec map_exprs_no_par f (t : Stmt.t) : Stmt.t =
  match t.Stmt.s with
  | Stmt.Par _ -> t
  | Stmt.Do d ->
      {
        t with
        Stmt.s =
          Stmt.Do
            {
              d with
              Stmt.lo = f d.Stmt.lo;
              hi = f d.Stmt.hi;
              step = Option.map f d.Stmt.step;
              body = List.map (map_exprs_no_par f) d.Stmt.body;
            };
      }
  | Stmt.If (c, th, el) ->
      {
        t with
        Stmt.s =
          Stmt.If (f c, List.map (map_exprs_no_par f) th, List.map (map_exprs_no_par f) el);
      }
  | _ -> Stmt.map_exprs f t

let rec hoist_body ctx stmts = List.concat_map (hoist_stmt ctx) stmts

and hoist_stmt ctx (t : Stmt.t) : Stmt.t list =
  match t.Stmt.s with
  | Stmt.Do d ->
      let killed = d.Stmt.var :: Stmt.assigned_vars d.Stmt.body in
      let relaid = List.concat_map redistributed_arrays d.Stmt.body in
      let acc = ref [] in
      let body' =
        List.map
          (fun s -> map_exprs_no_par (fun e -> extract ctx ~killed ~relaid ~acc e) s)
          d.Stmt.body
      in
      let pre =
        List.rev_map
          (fun (e, tv) -> Stmt.mk ~loc:t.Stmt.loc (Stmt.Assign (Stmt.LVar tv, e)))
          !acc
      in
      (* recurse: inner loops may hoist what remains *)
      pre @ [ { t with Stmt.s = Stmt.Do { d with Stmt.body = hoist_body ctx body' } } ]
  | Stmt.If (c, th, el) ->
      [ { t with Stmt.s = Stmt.If (c, hoist_body ctx th, hoist_body ctx el) } ]
  | Stmt.Par p ->
      [ { t with Stmt.s = Stmt.Par { Stmt.pbody = hoist_body ctx p.Stmt.pbody } } ]
  | Stmt.Doacross da ->
      [
        {
          t with
          Stmt.s =
            Stmt.Doacross
              {
                da with
                Stmt.loop =
                  { da.Stmt.loop with Stmt.body = hoist_body ctx da.Stmt.loop.Stmt.body };
              };
        };
      ]
  | _ -> [ t ]

let routine ctx (r : Decl.routine) =
  { r with Decl.rbody = hoist_body ctx r.Decl.rbody }
