(** Reference (quadratic) §7.2 CSE — the oracle for {!Ddsm_transform.Cse}.
    Test-only: both must turn every routine into structurally equal code,
    fresh temporary names included. *)

val routine :
  Ddsm_transform.Tctx.t -> Ddsm_ir.Decl.routine -> Ddsm_ir.Decl.routine
