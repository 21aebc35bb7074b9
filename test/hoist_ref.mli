(** Reference (per-node re-walking) §7.2 hoisting — the oracle for
    {!Ddsm_transform.Hoist}. Test-only: both must turn every routine into
    structurally equal code, fresh temporary names included. *)

val routine :
  Ddsm_transform.Tctx.t -> Ddsm_ir.Decl.routine -> Ddsm_ir.Decl.routine
