open Ddsm_ir

(* A subterm is [Impure] when it reads memory or holds a string, else
   [Expensive] when it contains a descriptor load, an indirect base-pointer
   load or an integer div/mod, else [Cheap]. The CSE candidates are the
   [Expensive] subterms. *)
type kind = Cheap | Expensive | Impure

let join a b =
  match (a, b) with
  | Impure, _ | _, Impure -> Impure
  | Expensive, _ | _, Expensive -> Expensive
  | Cheap, Cheap -> Cheap

(* [scan acc e] prepends to [acc] the candidate subterms of [e] in
   [Expr.iter] (pre-)order, and returns [e]'s kind. Children are scanned
   right to left and a node is prepended after them, so [acc] ends up in
   pre-order. One bottom-up pass: a whole expression costs O(size) rather
   than O(size x depth) for testing each node separately. *)
let rec scan acc (e : Expr.t) =
  let node k =
    (match k with Expensive -> acc := e :: !acc | Cheap | Impure -> ());
    k
  in
  match e with
  | Expr.Int _ | Expr.Real _ | Expr.Var _ -> Cheap
  | Expr.Str _ | Expr.GatherBase _ -> Impure
  | Expr.Meta _ -> node Expensive
  | Expr.Ref (_, subs) ->
      ignore (scan_list acc subs);
      Impure
  | Expr.AbsLoad (_, a) ->
      ignore (scan acc a);
      Impure
  | Expr.Intrin (_, subs) -> node (scan_list acc subs)
  | Expr.Bin (_, a, b) | Expr.Rel (_, a, b) | Expr.Log (_, a, b) ->
      let kb = scan acc b in
      node (join (scan acc a) kb)
  | Expr.Idiv (_, a, b) | Expr.Imod (_, a, b) ->
      let kb = scan acc b in
      node (join Expensive (join (scan acc a) kb))
  | Expr.Not a | Expr.Neg a -> node (scan acc a)
  | Expr.BaseOf (_, a) -> node (join Expensive (scan acc a))

and scan_list acc es = List.fold_right (fun x k -> join (scan acc x) k) es Cheap

(* Expressions appearing at block level in a statement: everything except
   the contents of nested bodies (each nested body is its own block). *)
let shallow_exprs (t : Stmt.t) =
  match t.Stmt.s with
  | Stmt.Assign (Stmt.LVar _, e) -> [ e ]
  | Stmt.Assign (Stmt.LRef (_, subs), e) -> subs @ [ e ]
  | Stmt.AbsStore (_, a, v) -> [ a; v ]
  | Stmt.Do d -> (d.Stmt.lo :: d.Stmt.hi :: Option.to_list d.Stmt.step)
  | Stmt.If (c, _, _) -> [ c ]
  | Stmt.Call (_, args) -> args
  | Stmt.Print es -> es
  | _ -> []

let shallow_map f (t : Stmt.t) =
  let s =
    match t.Stmt.s with
    | Stmt.Assign (Stmt.LVar x, e) -> Stmt.Assign (Stmt.LVar x, f e)
    | Stmt.Assign (Stmt.LRef (a, subs), e) ->
        Stmt.Assign (Stmt.LRef (a, List.map f subs), f e)
    | Stmt.AbsStore (ty, a, v) -> Stmt.AbsStore (ty, f a, f v)
    | Stmt.Do d ->
        Stmt.Do { d with Stmt.lo = f d.Stmt.lo; hi = f d.Stmt.hi; step = Option.map f d.Stmt.step }
    | Stmt.If (c, th, el) -> Stmt.If (f c, th, el)
    | Stmt.Call (n, args) -> Stmt.Call (n, List.map f args)
    | Stmt.Print es -> Stmt.Print (List.map f es)
    | other -> other
  in
  { t with Stmt.s }

let expr_size e =
  let n = ref 0 in
  Expr.iter (fun _ -> incr n) e;
  !n

let replace_in c tv e =
  Expr.map (fun x -> if Expr.equal x c then Expr.Var tv else x) e

module Etbl = Hashtbl.Make (struct
  type t = Expr.t

  let equal = Expr.equal
  let hash = Hashtbl.hash
end)

(* A block statement with what the rounds need to know about it. [kills] are
   the variables it assigns that are visible at block level (nested bodies
   count: a loop body assigning x kills candidates mentioning x); [relaid]
   the arrays a c$redistribute inside it re-lays out — a candidate consulting
   their layout tables ([Meta]/[BaseOf]) dies there too. Both are computed
   once per block: a round only rewrites expressions, which changes neither,
   and the one statement it inserts ([tv = c]) kills just [tv]. [occ] lists
   the statement's candidate subterms and is recomputed for the statements a
   round rewrites. *)
type info = { st : Stmt.t; kills : string list; relaid : string list; occ : Expr.t list }

let occurrences t =
  let acc = ref [] in
  List.iter (fun e -> ignore (scan acc e)) (List.rev (shallow_exprs t));
  !acc

let info t =
  {
    st = t;
    kills = Stmt.assigned_vars [ t ];
    relaid = Hoist.redistributed_arrays t;
    occ = occurrences t;
  }

(* A candidate's walk over the block: the open kill-free segment, and the
   first segment with the most occurrences closed so far. *)
type cand = {
  c : Expr.t;
  mutable start : int;
  mutable count : int;
  mutable best : int;
  mutable s0 : int;
  mutable s1 : int;
}

(* One CSE round over a block: find the best candidate with >= 2 available
   occurrences in a kill-free segment; introduce a temp. Returns None when
   nothing profitable remains.

   All candidates walk the block together, in one pass: each listed subterm
   is looked up in an [Expr.equal] table and counts for its candidate
   (occurrences of one expression cannot nest, so this is the count of
   maximal, non-overlapping occurrences), and each statement's kills close
   the segments of exactly the candidates that mention a killed name. The
   winner is the largest (count, size); ties go to the first candidate in
   [Hashtbl.iter] order over [cands], then to its earliest segment. An
   expression with a nan literal is not [Expr.equal] to itself, so it is
   never found and never counted. *)
let round ctx (block : info array) : info array option =
  (* the tie-break order; the last occurrence seen is the key, the
     instance the temporary is assigned from *)
  let cands : (Expr.t, unit) Hashtbl.t = Hashtbl.create 32 in
  Array.iter (fun i -> List.iter (fun x -> Hashtbl.replace cands x ()) i.occ) block;
  let tbl = Etbl.create 64 in
  let by_var = Hashtbl.create 64 and by_array = Hashtbl.create 16 in
  let index h name k =
    Hashtbl.replace h name (k :: Option.value ~default:[] (Hashtbl.find_opt h name))
  in
  let order = ref [] in
  Hashtbl.iter
    (fun c () ->
      let k = { c; start = 0; count = 0; best = 0; s0 = 0; s1 = 0 } in
      Etbl.replace tbl c k;
      order := k :: !order;
      List.iter (fun v -> index by_var v k) (Expr.free_vars c);
      List.iter (fun a -> index by_array a k) (Hoist.meta_arrays c))
    cands;
  let close i k =
    if k.count >= 2 && k.count > k.best then begin
      k.best <- k.count;
      k.s0 <- k.start;
      k.s1 <- i
    end;
    k.start <- i;
    k.count <- 0
  in
  Array.iteri
    (fun i t ->
      List.iter
        (fun x ->
          match Etbl.find_opt tbl x with
          | Some k -> k.count <- k.count + 1
          | None -> ())
        t.occ;
      let kill h name =
        Option.iter (List.iter (close (i + 1))) (Hashtbl.find_opt h name)
      in
      List.iter (kill by_var) t.kills;
      List.iter (kill by_array) t.relaid)
    block;
  let n = Array.length block in
  let best = ref None in
  List.iter
    (fun k ->
      close n k;
      if k.best >= 2 then
        match !best with
        | Some (b, sz) when b.best > k.best || (b.best = k.best && sz >= expr_size k.c) -> ()
        | _ -> best := Some (k, expr_size k.c))
    (List.rev !order);
  match !best with
  | None -> None
  | Some ({ c; s0; s1; _ }, _) ->
      let tv = Tctx.fresh ctx "cse" in
      let def = Stmt.mk ~loc:block.(s0).st.Stmt.loc (Stmt.Assign (Stmt.LVar tv, c)) in
      Some
        (Array.init (n + 1) (fun j ->
             if j < s0 then block.(j)
             else if j = s0 then info def
             else
               let t = block.(j - 1) in
               if j - 1 < s1 then
                 let st = shallow_map (replace_in c tv) t.st in
                 { t with st; occ = occurrences st }
               else t))

let rec cse_block ctx block =
  let rec fix block iters =
    if iters > 50 || Array.for_all (fun i -> i.occ = []) block then block
    else match round ctx block with None -> block | Some b -> fix b (iters + 1)
  in
  let block =
    Array.fold_right (fun i acc -> i.st :: acc) (fix (Array.of_list (List.map info block)) 0) []
  in
  List.map
    (fun t ->
      match t.Stmt.s with
      | Stmt.Do d -> { t with Stmt.s = Stmt.Do { d with Stmt.body = cse_block ctx d.Stmt.body } }
      | Stmt.If (c, th, el) ->
          { t with Stmt.s = Stmt.If (c, cse_block ctx th, cse_block ctx el) }
      | Stmt.Par p -> { t with Stmt.s = Stmt.Par { Stmt.pbody = cse_block ctx p.Stmt.pbody } }
      | _ -> t)
    block

let routine ctx (r : Decl.routine) = { r with Decl.rbody = cse_block ctx r.Decl.rbody }
